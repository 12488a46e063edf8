"""Reference OTFS modem: the literal SFFT/OFDM cascade.

Transmitter: inverse SFFT to time-frequency, per-symbol M-point IDFT,
cyclic-prefix insertion, column-major serialization. Receiver: CP removal,
per-symbol M-point DFT, time windowing, forward SFFT. This is the
correctness oracle for the low-complexity modem and the cost baseline for
the complexity audit.

The bare OFDM modulator/demodulator (SFFT stages bypassed) is also exposed
here so the audit can measure all three modem structures from one codebase.
"""

from __future__ import annotations

import numpy as np

from .grids import ModemConfig, SeparableWindow, sfft_inv, sfft_windowed
from .numerics import CmCounter, dft


def _idft_to_frame(grid: np.ndarray, cfg: ModemConfig, axis: int, counter, stage: str):
    """Inverse DFT of grids (..., M, N) along `axis`, written straight into the
    data samples of frames (..., L); each symbol's CP is then copied in front."""
    *lead, m, n = grid.shape
    symbols = np.empty((*lead, n, cfg.sym_len), dtype=np.complex128)
    body = np.swapaxes(symbols[..., cfg.cp_len :], -1, -2)
    dft(grid, axis=axis, inverse=True, counter=counter, stage=stage, out=body)
    symbols[..., : cfg.cp_len] = symbols[..., m:]
    return symbols.reshape(*lead, n * cfg.sym_len)


def _frame_to_symbols(frame: np.ndarray, cfg: ModemConfig) -> np.ndarray:
    """Frames (..., L) -> per-symbol sample columns (..., M + cp_len, N)."""
    frame = np.asarray(frame, dtype=np.complex128)
    if frame.ndim < 1 or frame.shape[-1] != cfg.frame_len:
        raise ValueError(f"frame must have length {cfg.frame_len}, got shape {frame.shape}")
    if not np.isfinite(frame).all():
        raise ValueError("frame has non-finite samples")
    symbols = frame.reshape(*frame.shape[:-1], cfg.N, cfg.sym_len)
    return np.swapaxes(symbols, -1, -2)


def _check_grid(grid: np.ndarray, cfg: ModemConfig) -> np.ndarray:
    grid = np.asarray(grid, dtype=np.complex128)
    if grid.shape[-2:] != (cfg.M, cfg.N):
        raise ValueError(f"grid must be {cfg.M} x {cfg.N}, got {grid.shape}")
    if not np.isfinite(grid).all():
        raise ValueError("grid has non-finite entries")
    return grid


def modulate_ofdm(
    y_tf: np.ndarray, cfg: ModemConfig, counter: CmCounter | None = None
) -> np.ndarray:
    """Plain OFDM modulator: per-symbol M-point IDFT, CP insertion, serialize."""
    y_tf = _check_grid(y_tf, cfg)
    return _idft_to_frame(y_tf, cfg, -2, counter, "ofdm_mod")


def demodulate_ofdm(
    frame: np.ndarray, cfg: ModemConfig, counter: CmCounter | None = None
) -> np.ndarray:
    """Plain OFDM demodulator: CP removal and per-symbol M-point DFT."""
    symbols = _frame_to_symbols(frame, cfg)
    return dft(symbols[..., cfg.cp_len :, :], axis=-2, counter=counter, stage="ofdm_demod")


def modulate_reference(
    x_dd: np.ndarray, cfg: ModemConfig, counter: CmCounter | None = None
) -> np.ndarray:
    """Reference OTFS transmitter: inverse SFFT followed by OFDM modulation.

    Costs ``M*N*log2(M) + (M*N/2)*log2(N)`` CMs for power-of-two sizes.
    """
    x_dd = _check_grid(x_dd, cfg)
    return modulate_ofdm(sfft_inv(x_dd, counter=counter), cfg, counter=counter)


def demodulate_reference(
    frame: np.ndarray,
    window: SeparableWindow,
    cfg: ModemConfig,
    counter: CmCounter | None = None,
) -> np.ndarray:
    """Reference OTFS receiver: OFDM demodulation, windowing, forward SFFT.

    Costs ``M*N*log2(M) + (M*N/2)*(1 + log2(N))`` CMs for power-of-two sizes
    (the MN/2 term is the windowing, charged regardless of window content).
    """
    z_tf = demodulate_ofdm(frame, cfg, counter=counter)
    return sfft_windowed(z_tf, window, counter=counter)
