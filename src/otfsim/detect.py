"""Linear detection, one OFDM symbol at a time.

The receiver output grid X~ relates to the transmitted grid X through N
independent per-symbol systems. With ``S = X F_N^H`` and ``Y = X~ F_N^H``
(unitary IDFTs across the rows), column n obeys

    y_n = wr[n] (H_n s_n + v_n),    Cov(v_n) = noise_var I,

with the v_n mutually uncorrelated. This holds for any channel whose
length is at most cp_len + 1, not only in the block-fading regime; the H_n
come from ``otfsim.channel.channel_blocks``, which refuses a longer channel.
The detectors undo the receive window on Y (``SeparableWindow.apply`` with
power -1), which leaves white noise, and then apply one M x M filter per
symbol before a row DFT: ``H_n^{-1}``, computed once per channel, or
``H_n^H (H_n H_n^H + noise_var I)^{-1}``, computed once per noise level.
Since ``F_N kron I_M`` is unitary and the symbols are white, both equal
their MN x MN delay-Doppler counterparts for the windowed system exactly:
an invertible receive window changes the delay-Doppler response but not
what a linear detector decides.

A batch of T received grids (..., M, N) is detected with one filter product
per symbol that has T columns. Its rounding can differ from T one-column
products in the last bits (a few 1e-14 at most at 64 x 8 and 256 x 16).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .channel import BlockFadingChannel, LtvChannel, channel_blocks
from .grids import ModemConfig, SeparableWindow
from .numerics import SingularMatrixError, inv_checked


@dataclass(eq=False)
class EffectiveSystem:
    """The per-symbol model of one channel/window/config combination.

    `blocks` holds the N unwindowed channel blocks ``H_n`` (shape (N, M, M))
    of `channel`, the channel they were built from (None for blocks given
    directly); `window` is the receive window the detectors undo, and the
    noise level is ``cfg.noise_var``. The detector filters are cached on
    first use; the system is fixed per channel realization while many frames
    are detected against it.
    """

    blocks: np.ndarray
    window: SeparableWindow
    cfg: ModemConfig
    channel: LtvChannel | BlockFadingChannel | None = None
    _zf_filter: np.ndarray | None = field(default=None, repr=False)
    _mmse_filter: np.ndarray | None = field(default=None, repr=False)

    def with_noise_var(self, noise_var: float) -> EffectiveSystem:
        """The same channel at another noise level; the ZF filter is shared."""
        return replace(self, cfg=replace(self.cfg, noise_var=noise_var), _mmse_filter=None)


def assemble_effective(ch, window: SeparableWindow, cfg: ModemConfig) -> EffectiveSystem:
    """Build the per-symbol system for a channel, receive window, and config.

    Refuses a channel longer than cp_len + 1 (see ``channel_blocks``), a
    channel with non-finite values, and a window with a zero or non-finite
    coefficient, which the detectors could not divide out.
    """
    window.check_dims(cfg.N)
    bad = np.flatnonzero(~np.isfinite(window.wr) | (window.wr == 0))
    if bad.size:
        raise ValueError(
            f"window wr[{bad[0]}] is {window.wr[bad[0]]}; the detectors divide by "
            "the window, so every coefficient must be finite and nonzero"
        )
    blocks = channel_blocks(ch, cfg)
    if not np.isfinite(blocks).all():
        raise ValueError("channel has non-finite values")
    return EffectiveSystem(blocks=blocks, window=window, cfg=cfg, channel=ch)


def _received_grids(d_tilde, cfg: ModemConfig) -> np.ndarray:
    """Received grids, shape (..., M, N), checked."""
    d = np.asarray(d_tilde, dtype=np.complex128)
    if d.shape[-2:] != (cfg.M, cfg.N):
        raise ValueError(f"grid must be {cfg.M} x {cfg.N}, got {d.shape}")
    if not np.isfinite(d).all():
        raise ValueError("received grid has non-finite entries")
    return d


def _filter_grids(filters: np.ndarray, d: np.ndarray, window: SeparableWindow) -> np.ndarray:
    """Per-symbol estimates ``s_n = F_n y_n`` of every grid in `d`.

    The row IDFTs of the T grids, with the window undone, are gathered into
    an (N, M, T) stack whose column t of symbol n is y_n of grid t, so each
    symbol takes one product with T columns; a row DFT maps the estimates
    back to grids.
    """
    y = np.fft.ifft(d.reshape(-1, *d.shape[-2:]), axis=-1, norm="ortho")
    y = window.apply(y, -1).T.copy()
    return np.fft.fft((filters @ y).T, axis=-1, norm="ortho").reshape(d.shape)


def zf_detect(d_tilde, sys: EffectiveSystem) -> np.ndarray:
    """Zero-forcing: ``s_n = H_n^{-1} y_n`` per symbol; returns the M x N grid(s)."""
    d = _received_grids(d_tilde, sys.cfg)
    if sys._zf_filter is None:
        sys._zf_filter = inv_checked(sys.blocks)
    return _filter_grids(sys._zf_filter, d, sys.window)


def mmse_detect(d_tilde, sys: EffectiveSystem) -> np.ndarray:
    """Linear MMSE for unit-energy symbols.

    ``s_n = H_n^H (H_n H_n^H + noise_var I)^{-1} y_n`` per symbol; reduces
    to zero-forcing as the noise variance goes to zero. The noise term is
    added to the diagonal of the Gram stack in place.
    """
    d = _received_grids(d_tilde, sys.cfg)
    if sys._mmse_filter is None:
        h = sys.blocks
        gram = h @ h.conj().transpose(0, 2, 1)
        diag = np.arange(sys.cfg.M)
        gram[:, diag, diag] += sys.cfg.noise_var
        try:
            np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            raise SingularMatrixError(
                "MMSE matrix H_n H_n^H + noise_var I is not positive definite"
            ) from None
        # (gram^{-1} H_n)^H = H_n^H gram^{-1}, as gram is Hermitian
        filters = np.linalg.solve(gram, h)
        sys._mmse_filter = np.conjugate(filters, out=filters).transpose(0, 2, 1)
    return _filter_grids(sys._mmse_filter, d, sys.window)


@dataclass(frozen=True)
class BerStat:
    """Bit-error count with its Monte-Carlo standard error."""

    n_bits: int
    n_errors: int

    @property
    def ber(self) -> float:
        return self.n_errors / self.n_bits

    @property
    def stderr(self) -> float:
        p = self.ber
        return float(np.sqrt(p * (1.0 - p) / self.n_bits))


def bit_error_rate(detected_bits: np.ndarray, reference_bits: np.ndarray) -> BerStat:
    """Hamming distance over length, as a BerStat."""
    detected_bits = np.asarray(detected_bits)
    reference_bits = np.asarray(reference_bits)
    if detected_bits.shape != reference_bits.shape:
        raise ValueError("bit streams must have equal length")
    return BerStat(
        n_bits=detected_bits.size,
        n_errors=int(np.count_nonzero(detected_bits != reference_bits)),
    )
