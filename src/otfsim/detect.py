"""Linear detection, one OFDM symbol at a time.

The receiver output grid X~ relates to the transmitted grid X through N
independent per-symbol systems. With ``S = X F_N^H`` and ``Y = X~ F_N^H``
(unitary IDFTs across the rows), column n obeys

    y_n = G_n s_n + v_n,    G_n = Wbar_c wr[n] H_n,
    Cov(v_n) = noise_var |wr[n]|^2 Qc,    Qc = Wbar_c Wbar_c^H,

with the v_n mutually uncorrelated. This holds for any channel whose length
is at most cp_len + 1, not only in the block-fading regime; the H_n come
from ``otfsim.channel.channel_blocks``, which refuses a longer channel. ZF
and MMSE detection are therefore one M x M filter per symbol between a row
IDFT and a row DFT: ``G_n^{-1}``, computed once per channel, or
``G_n^H (G_n G_n^H + Cov(v_n))^{-1}``, computed once per noise level. Since
``F_N kron I_M`` is unitary and the symbols are white, both equal their
MN x MN delay-Doppler counterparts exactly.

A batch of T received grids (..., M, N) is detected with one filter product
per symbol that has T columns. Its rounding can differ from T one-column
products in the last bits (a few 1e-14 at most at 64 x 8 and 256 x 16).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .channel import channel_blocks
from .grids import ModemConfig, SeparableWindow
from .numerics import SingularMatrixError, inv_checked, unvec


@dataclass(eq=False)
class EffectiveSystem:
    """The per-symbol model of one channel/window/config combination.

    `blocks` holds the N effective channel blocks ``G_n`` (shape (N, M, M))
    and `qc` the noise shape ``Wbar_c Wbar_c^H`` (the identity for a
    rectangular frequency window); the noise level is ``cfg.noise_var``.
    The detector filters are cached on first use; the system is fixed per
    channel realization while many frames are detected against it.
    """

    blocks: np.ndarray
    qc: np.ndarray
    window: SeparableWindow
    cfg: ModemConfig
    _zf_filter: np.ndarray | None = field(default=None, repr=False)
    _mmse_filter: np.ndarray | None = field(default=None, repr=False)

    def symbol_noise_gains(self) -> np.ndarray:
        """Each symbol's noise level ``noise_var |wr[n]|^2``; ``Cov(v_n)`` is it times Qc."""
        return self.cfg.noise_var * np.abs(self.window.wr) ** 2

    def symbol_covariance(self) -> np.ndarray:
        """Covariance of each symbol's windowed noise, ``noise_var |wr[n]|^2 Qc``."""
        return self.symbol_noise_gains()[:, None, None] * self.qc

    def with_noise_var(self, noise_var: float) -> EffectiveSystem:
        """The same channel at another noise level; the ZF filter is shared."""
        return replace(self, cfg=replace(self.cfg, noise_var=noise_var), _mmse_filter=None)


def assemble_effective(ch, window: SeparableWindow, cfg: ModemConfig) -> EffectiveSystem:
    """Build the per-symbol system for a channel, receive window, and config.

    Refuses a channel longer than cp_len + 1 (see ``channel_blocks``) and a
    channel or window with non-finite values.
    """
    window.check_dims(cfg.M, cfg.N)
    blocks = channel_blocks(ch, cfg)
    blocks *= window.wr[:, None, None]
    if window.is_rect_freq:
        qc = np.eye(cfg.M, dtype=np.complex128)
    else:
        wbar = window.wbar_c()
        blocks = wbar @ blocks
        qc = wbar @ wbar.conj().T
    if not np.isfinite(blocks).all():
        raise ValueError("channel or window has non-finite values")
    return EffectiveSystem(blocks=blocks, qc=qc, window=window, cfg=cfg)


def _received_grids(d_tilde, cfg: ModemConfig) -> np.ndarray:
    """Received grids, shape (..., M, N), checked; a vec'd grid is unvec'd."""
    d = np.asarray(d_tilde, dtype=np.complex128)
    if d.ndim == 1:
        d = unvec(d, cfg.M, cfg.N)
    elif d.shape[-2:] != (cfg.M, cfg.N):
        raise ValueError(f"grid must be {cfg.M} x {cfg.N}, got {d.shape}")
    if not np.isfinite(d).all():
        raise ValueError("received grid has non-finite entries")
    return d


def _filter_grids(filters: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Per-symbol estimates ``s_n = F_n y_n`` of every grid in `d`.

    The row IDFTs of the T grids are gathered into an (N, M, T) stack whose
    column t of symbol n is y_n of grid t, so each symbol takes one product
    with T columns; a row DFT maps the estimates back to grids.
    """
    y = np.fft.ifft(d.reshape(-1, *d.shape[-2:]), axis=-1, norm="ortho").T.copy()
    return np.fft.fft((filters @ y).T, axis=-1, norm="ortho").reshape(d.shape)


def zf_detect(d_tilde, sys: EffectiveSystem) -> np.ndarray:
    """Zero-forcing: ``s_n = G_n^{-1} y_n`` per symbol; returns the M x N grid(s)."""
    d = _received_grids(d_tilde, sys.cfg)
    if sys._zf_filter is None:
        sys._zf_filter = inv_checked(sys.blocks)
    return _filter_grids(sys._zf_filter, d)


def mmse_detect(d_tilde, sys: EffectiveSystem) -> np.ndarray:
    """Linear MMSE for unit-energy symbols.

    ``s_n = G_n^H (G_n G_n^H + Cov(v_n))^{-1} y_n`` per symbol; reduces to
    zero-forcing as the noise variance goes to zero. Building the filters
    holds one (N, M, M) stack beside the blocks and the filters: the noise
    term is added to the Gram stack one symbol at a time.
    """
    d = _received_grids(d_tilde, sys.cfg)
    if sys._mmse_filter is None:
        g = sys.blocks
        gram = g @ g.conj().transpose(0, 2, 1)
        for block, gain in zip(gram, sys.symbol_noise_gains()):
            block += gain * sys.qc
        try:
            np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            raise SingularMatrixError(
                "MMSE matrix G_n G_n^H + Cov(v_n) is not positive definite"
            ) from None
        # (gram^{-1} G_n)^H = G_n^H gram^{-1}, as gram is Hermitian
        filters = np.linalg.solve(gram, g)
        sys._mmse_filter = np.conjugate(filters, out=filters).transpose(0, 2, 1)
    return _filter_grids(sys._mmse_filter, d)


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
