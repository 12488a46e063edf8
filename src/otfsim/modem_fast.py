"""Low-complexity OTFS modem exploiting the SFFT/OFDM transform cancellation.

At the transmitter the M-point DFT inside the inverse SFFT cancels the OFDM
modulator's M-point IDFT, leaving only N-point IDFTs across the rows of the
data grid before CP insertion. At the receiver the mirror cancellation
leaves per-symbol scaling by the time window plus N-point DFTs across the
rows. Both produce bit-identical results to the
reference cascade at a fraction of the complex multiplications.
"""

from __future__ import annotations

import numpy as np

from .grids import ModemConfig, apply_window
from .numerics import dft


def modulate_fast(x_dd: np.ndarray, cfg: ModemConfig) -> np.ndarray:
    """Low-complexity OTFS transmitter: N-point IDFTs on the rows of X, then CP.

    Sample-for-sample identical to the reference transmitter while charging
    only ``(M*N/2)*log2(N)`` CMs per frame. Grids (..., M, N) give frames
    (..., L), a fresh array that every stage writes in place.
    """
    x_dd = cfg.check_grid(x_dd, "x_dd")
    frame = np.empty((*x_dd.shape[:-2], cfg.frame_len), dtype=np.complex128)
    dft(x_dd, axis=-1, inverse=True, stage="mod_rows", out=cfg.symbols(frame))
    return cfg.insert_cp(frame)


def demodulate_fast(frame: np.ndarray, window: np.ndarray, cfg: ModemConfig) -> np.ndarray:
    """Low-complexity OTFS receiver.

    Per symbol: CP removal and scaling by the time-window coefficient, then
    N-point DFTs across the rows. Charges ``(M*N/2)*(1 + log2(N))`` CMs per
    frame. Frames (..., L) give grids (..., M, N), a fresh array that every
    stage writes in place.
    """
    grid = cfg.symbols(cfg.check_frame(frame)).copy()
    apply_window(grid, cfg.check_window(window), grid)
    return dft(grid, axis=-1, stage="demod_rows", out=grid)
