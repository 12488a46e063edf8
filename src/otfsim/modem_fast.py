"""Low-complexity OTFS modem exploiting the SFFT/OFDM transform cancellation.

At the transmitter the M-point DFT inside the inverse SFFT cancels the OFDM
modulator's M-point IDFT, leaving only N-point IDFTs across the rows of the
data grid before CP insertion. At the receiver (with a rectangular frequency
window) the mirror cancellation leaves per-symbol scaling by the time window
plus N-point DFTs across the rows. Both produce bit-identical results to the
reference cascade at a fraction of the complex multiplications.
"""

from __future__ import annotations

import numpy as np

from .grids import ModemConfig, SeparableWindow
from .modem_reference import _add_cp, _check_grid, _frame_to_symbols
from .numerics import CmCounter, dft


def modulate_fast(
    x_dd: np.ndarray, cfg: ModemConfig, counter: CmCounter | None = None
) -> np.ndarray:
    """Low-complexity OTFS transmitter: N-point IDFTs on the rows of X, then CP.

    Sample-for-sample identical to the reference transmitter while charging
    only ``(M*N/2)*log2(N)`` CMs per frame. Grids (..., M, N) give frames
    (..., L).
    """
    x_dd = _check_grid(x_dd, cfg)
    body = dft(x_dd, axis=-1, inverse=True, counter=counter, stage="mod_rows")
    return _add_cp(body, cfg.cp_len)


def _resolve_time_window(window, n: int) -> np.ndarray:
    if isinstance(window, SeparableWindow):
        if not window.is_rect_freq:
            raise ValueError(
                "fast demodulator supports only rectangular frequency windows; "
                "use demodulate_reference for a shaped frequency window"
            )
        wr = window.wr
    else:
        wr = np.asarray(window, dtype=np.complex128)
    if wr.ndim != 1 or wr.size != n:
        raise ValueError(f"time window must have length {n}")
    return wr


def demodulate_fast(
    frame: np.ndarray,
    window,
    cfg: ModemConfig,
    counter: CmCounter | None = None,
) -> np.ndarray:
    """Low-complexity OTFS receiver for rectangular frequency windows.

    Per symbol: CP removal and scaling by the time-window coefficient, then
    N-point DFTs across the rows. Charges ``(M*N/2)*(1 + log2(N))`` CMs per
    frame. `window` may be a SeparableWindow (frequency factor must be
    all-ones) or a bare length-N time window. Frames (..., L) give grids
    (..., M, N).
    """
    wr = _resolve_time_window(window, cfg.N)
    symbols = _frame_to_symbols(frame, cfg)
    scaled = symbols[..., cfg.cp_len :, :] * wr
    if counter is not None:
        counter.add("window", (scaled.size // (cfg.M * cfg.N)) * ((cfg.M * cfg.N) // 2))
    return dft(scaled, axis=-1, counter=counter, stage="demod_rows")
