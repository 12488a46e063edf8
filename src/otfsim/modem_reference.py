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
from .numerics import CmCounter, dft


def _out_array(out: np.ndarray | None, shape: tuple) -> np.ndarray:
    """`out` itself if it can hold a result of `shape`, else a ValueError naming
    it; a fresh array when `out` is None. A result is written whole into its
    buffer, never into a copy, so `out` must be C-contiguous complex128."""
    if out is None:
        return np.empty(shape, dtype=np.complex128)
    if not isinstance(out, np.ndarray):
        got = type(out).__name__
    elif out.shape != shape or out.dtype != np.complex128 or not out.flags.c_contiguous:
        got = f"{out.dtype} {out.shape}, C-contiguous: {out.flags.c_contiguous}"
    else:
        return out
    raise ValueError(f"out must be a C-contiguous complex128 array of shape {shape}, got {got}")


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
    frame = _out_array(out, (*grid.shape[:-2], cfg.frame_len))
    symbols = _symbol_columns(frame, cfg)
    body = symbols[..., cfg.cp_len :, :]
    dft(grid, axis=axis, inverse=True, counter=counter, stage=stage, out=body)
    symbols[..., : cfg.cp_len, :] = symbols[..., cfg.M :, :]
    return frame


def _frame_to_symbols(frame: np.ndarray, cfg: ModemConfig) -> np.ndarray:
    """Frames (..., L) -> per-symbol sample columns (..., M + cp_len, N)."""
    frame = np.asarray(frame, dtype=np.complex128)
    if frame.ndim < 1 or frame.shape[-1] != cfg.frame_len:
        raise ValueError(f"frame must have length {cfg.frame_len}, got shape {frame.shape}")
    if not np.isfinite(frame).all():
        raise ValueError("frame has non-finite samples")
    return _symbol_columns(frame, cfg)


def _check_grid(grid: np.ndarray, cfg: ModemConfig) -> np.ndarray:
    grid = np.asarray(grid, dtype=np.complex128)
    if grid.shape[-2:] != (cfg.M, cfg.N):
        raise ValueError(f"grid must be {cfg.M} x {cfg.N}, got {grid.shape}")
    if not np.isfinite(grid).all():
        raise ValueError("grid has non-finite entries")
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
    y_tf = _check_grid(y_tf, cfg)
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
    out = _out_array(out, (*symbols.shape[:-2], cfg.M, cfg.N))
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
    x_dd = _check_grid(x_dd, cfg)
    frame = _out_array(out, (*x_dd.shape[:-2], cfg.frame_len))
    body = _symbol_columns(frame, cfg)[..., cfg.cp_len :, :]
    return modulate_ofdm(sfft_inv(x_dd, counter=counter, out=body), cfg, counter=counter, out=frame)


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
