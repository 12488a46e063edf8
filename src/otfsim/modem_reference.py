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

from .grids import ModemConfig, sfft_inv, sfft_windowed
from .numerics import CmCounter, as_array, check_out, dft, require


def _symbol_columns(frame: np.ndarray, cfg: ModemConfig) -> np.ndarray:
    """Frames (..., L) as per-symbol sample columns (..., M + cp_len, N); a view
    when the frames are C-contiguous, so writing it writes them."""
    symbols = frame.reshape(*frame.shape[:-1], cfg.N, cfg.sym_len)
    return np.swapaxes(symbols, -1, -2)


def _idft_to_frame(
    grid: np.ndarray, cfg: ModemConfig, axis: int, counter, stage: str, out: np.ndarray | None
):
    """Inverse DFT of grids (..., M, N) along `axis`, written straight into the
    data samples of frames (..., L); each symbol's CP is then copied in front.
    `grid` may be the data samples of `out` itself."""
    frame = check_out(out, (*grid.shape[:-2], cfg.frame_len))
    symbols = _symbol_columns(frame, cfg)
    body = symbols[..., cfg.cp_len :, :]
    dft(grid, axis=axis, inverse=True, counter=counter, stage=stage, out=body)
    symbols[..., : cfg.cp_len, :] = symbols[..., cfg.M :, :]
    return frame


def _frame_to_symbols(frame: np.ndarray, cfg: ModemConfig) -> np.ndarray:
    """Frames (..., L) -> per-symbol sample columns (..., M + cp_len, N)."""
    frame = as_array("frame", frame, finite=True)
    need = f"of shape (..., {cfg.frame_len})"
    require(frame.shape[-1:] == (cfg.frame_len,), "frame", need, frame)
    return _symbol_columns(frame, cfg)


def _check_grid(grid: np.ndarray, cfg: ModemConfig, name: str) -> np.ndarray:
    """The argument `name`, grids (..., M, N), as a finite complex128 array."""
    grid = as_array(name, grid, finite=True)
    require(grid.shape[-2:] == (cfg.M, cfg.N), name, f"of shape (..., {cfg.M}, {cfg.N})", grid)
    return grid


def modulate_ofdm(
    y_tf: np.ndarray,
    cfg: ModemConfig,
    counter: CmCounter | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Plain OFDM modulator: per-symbol M-point IDFT, CP insertion, serialize.

    With `out`, frames are written into it and it is returned; `y_tf` may be
    its data samples, transformed in place.
    """
    y_tf = _check_grid(y_tf, cfg, "y_tf")
    return _idft_to_frame(y_tf, cfg, -2, counter, "ofdm_mod", out)


def demodulate_ofdm(
    frame: np.ndarray,
    cfg: ModemConfig,
    counter: CmCounter | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Plain OFDM demodulator: CP removal and per-symbol M-point DFT.

    With `out`, grids are written into it and it is returned.
    """
    symbols = _frame_to_symbols(frame, cfg)
    out = check_out(out, (*symbols.shape[:-2], cfg.M, cfg.N))
    body = symbols[..., cfg.cp_len :, :]
    return dft(body, axis=-2, counter=counter, stage="ofdm_demod", out=out)


def modulate_reference(
    x_dd: np.ndarray,
    cfg: ModemConfig,
    counter: CmCounter | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Reference OTFS transmitter: inverse SFFT followed by OFDM modulation.

    Costs ``M*N*log2(M) + (M*N/2)*log2(N)`` CMs for power-of-two sizes.
    With `out`, a C-contiguous complex128 array of the frames' shape, every
    transform runs in place on its data samples and `out` is returned.
    """
    x_dd = _check_grid(x_dd, cfg, "x_dd")
    frame = check_out(out, (*x_dd.shape[:-2], cfg.frame_len))
    body = _symbol_columns(frame, cfg)[..., cfg.cp_len :, :]
    y_tf = sfft_inv(x_dd, counter=counter, out=body)
    return _idft_to_frame(y_tf, cfg, -2, counter, "ofdm_mod", frame)


def demodulate_reference(
    frame: np.ndarray,
    window: np.ndarray,
    cfg: ModemConfig,
    counter: CmCounter | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Reference OTFS receiver: OFDM demodulation, windowing, forward SFFT.

    Costs ``M*N*log2(M) + (M*N/2)*(1 + log2(N))`` CMs for power-of-two sizes
    (the MN/2 term is the windowing, charged regardless of window content).
    With `out`, a C-contiguous complex128 array of the grids' shape, the
    M-point DFT lands in it, every later stage runs in place and `out` is
    returned.
    """
    z_tf = demodulate_ofdm(frame, cfg, counter=counter, out=out)
    return sfft_windowed(z_tf, window, counter=counter, out=z_tf)
