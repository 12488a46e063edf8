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
from .modem_reference import _check_grid, _frame_to_symbols, _idft_to_frame
from .numerics import CmCounter, check_out, dft


def modulate_fast(
    x_dd: np.ndarray,
    cfg: ModemConfig,
    counter: CmCounter | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Low-complexity OTFS transmitter: N-point IDFTs on the rows of X, then CP.

    Sample-for-sample identical to the reference transmitter while charging
    only ``(M*N/2)*log2(N)`` CMs per frame. Grids (..., M, N) give frames
    (..., L), written into `out` when given (a C-contiguous complex128 array
    of that shape), which is then returned.
    """
    x_dd = _check_grid(x_dd, cfg, "x_dd")
    return _idft_to_frame(x_dd, cfg, -1, counter, "mod_rows", out)


def demodulate_fast(
    frame: np.ndarray,
    window: np.ndarray,
    cfg: ModemConfig,
    counter: CmCounter | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Low-complexity OTFS receiver.

    Per symbol: CP removal and scaling by the time-window coefficient, then
    N-point DFTs across the rows. Charges ``(M*N/2)*(1 + log2(N))`` CMs per
    frame. Frames (..., L) give grids (..., M, N), written into `out` when
    given (a C-contiguous complex128 array of that shape), which is then
    returned.
    """
    symbols = _frame_to_symbols(frame, cfg)
    out = check_out(out, (*symbols.shape[:-2], cfg.M, cfg.N))
    apply_window(symbols[..., cfg.cp_len :, :], window, counter, out)
    return dft(out, axis=-1, counter=counter, stage="demod_rows", out=out)
