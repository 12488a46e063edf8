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
from .numerics import check_out, dft


def modulate_fast(x_dd: np.ndarray, cfg: ModemConfig, out: np.ndarray | None = None) -> np.ndarray:
    """Low-complexity OTFS transmitter: N-point IDFTs on the rows of X, then CP.

    Sample-for-sample identical to the reference transmitter while charging
    only ``(M*N/2)*log2(N)`` CMs per frame. Grids (..., M, N) give frames
    (..., L), written into `out` when given (a C-contiguous complex128 array
    of that shape), which is then returned.
    """
    x_dd = cfg.check_grid(x_dd, "x_dd")
    frame = check_out(out, (*x_dd.shape[:-2], cfg.frame_len))
    dft(x_dd, axis=-1, inverse=True, stage="mod_rows", out=cfg.symbols(frame))
    return cfg.insert_cp(frame)


def demodulate_fast(
    frame: np.ndarray,
    window: np.ndarray,
    cfg: ModemConfig,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Low-complexity OTFS receiver.

    Per symbol: CP removal and scaling by the time-window coefficient, then
    N-point DFTs across the rows. Charges ``(M*N/2)*(1 + log2(N))`` CMs per
    frame. Frames (..., L) give grids (..., M, N), written into `out` when
    given (a C-contiguous complex128 array of that shape), which is then
    returned.
    """
    symbols = cfg.symbols(cfg.check_frame(frame))
    out = check_out(out, symbols.shape)
    apply_window(symbols, cfg.check_window(window), out)
    return dft(out, axis=-1, stage="demod_rows", out=out)
