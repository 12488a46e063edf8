"""Linear detection, one OFDM symbol at a time, by a banded Cholesky solve.

With ``S = X F_N^H`` and ``Y = X~ F_N^H`` (unitary row IDFTs of the sent and
received grids), column n obeys ``y_n = wr[n] (H_n s_n + v_n)``, the v_n
white with variance noise_var and mutually uncorrelated, for any channel of
length L <= cp_len + 1; H_n is cyclic banded, ``H_n[i, (i - ell) mod M] =
h(n*(M + cp_len) + cp_len + i, ell)`` (see ``otfsim.channel.symbol_gains``).
The detectors undo the window and estimate ``s_n = H_n^H A_n^{-1} y_n`` with
``A_n = H_n H_n^H + noise_var I``: MMSE for unit-energy symbols, and
zero-forcing at noise_var = 0. As ``F_N kron I_M`` is unitary, both equal
their MN x MN counterparts for the windowed system: an invertible receive
window changes the delay-Doppler response, not a linear detector's output.

In the zig-zag order 0, M-1, 1, M-2, ... the cyclic band becomes a plain
band of half-width at most 2(L-1). H_n is kept in row blocks of B >= 2(L-1)
rows, each with the at most three column blocks its band reaches, the last
padded with identity rows, so A_n is block tridiagonal. Its block Cholesky
factor, diagonal blocks inverted, is cached per noise level, so a frame
costs batched matrix products only: O(N M B) work and memory. ZF solves
these normal equations, so its error grows as cond(H_n)^2; a symbol whose
estimated rcond(A_n) is below 1e-12 (for ZF, cond(H_n) > 1e6) is refused by
name.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import BlockFadingChannel, LtvChannel, symbol_gains
from .grids import ModemConfig, apply_window
from .modem_reference import _check_grid
from .numerics import (
    SingularMatrixError, all_finite, as_array, check_int, check_noise_var, check_window, require
)

#: smallest estimated reciprocal condition number of A_n the detectors accept
RCOND_MIN = 1e-12


@dataclass(eq=False)
class EffectiveSystem:
    """The per-symbol model of one channel/window/config combination.

    Block (k, c), |k - c| <= 1, of the zig-zag-ordered, unwindowed H_n of
    `channel` is ``bands[n, 2k + c]``, shape (N, 3K - 2, B, B). `window` is
    undone by the detectors, and the factors of the latest noise level are
    cached.
    """

    bands: np.ndarray
    window: np.ndarray
    cfg: ModemConfig
    channel: LtvChannel | BlockFadingChannel
    _factor: tuple | None = field(default=None, repr=False)


def _zigzag(m: int) -> np.ndarray:
    """The position of each of m indices in the zig-zag order 0, m-1, 1, m-2, ..."""
    i = np.arange(m)
    return np.where(2 * i < m, 2 * i, 2 * (m - i) - 1)


def assemble_effective(ch, window: np.ndarray, cfg: ModemConfig) -> EffectiveSystem:
    """Build the per-symbol system for a channel, receive window, and config.

    Each tap's gains are scattered into the row blocks of every H_n: B =
    ceil(M / K0) for the most blocks K0 of at least max(2(L - 1), 8) rows
    that M splits into, and K = ceil(M / B), so fewer than B rows pad the
    last block. Refuses a channel longer than cp_len + 1, a channel with
    non-finite values, and a window with a zero or non-finite coefficient,
    which the detectors could not divide out.
    """
    window = check_window(window, cfg.N)
    bad = np.flatnonzero(~np.isfinite(window) | (window == 0))
    if bad.size:
        raise ValueError(
            f"window wr[{bad[0]}] is {window[bad[0]]}; the detectors divide by "
            "the window, so every coefficient must be finite and nonzero"
        )
    delays, gains = symbol_gains(ch, cfg)
    if not all_finite(gains):
        raise ValueError("channel has non-finite values")
    m = cfg.M
    b = -(-m // max(m // max(2 * (ch.length - 1), 8), 1))
    k = -(-m // b)
    pos = _zigzag(m)
    bands = np.zeros((cfg.N, 3 * k - 2, b, b), dtype=np.complex128)
    for j, ell in enumerate(delays):
        q = pos[(np.arange(m) - ell) % m]
        bands[:, 2 * (pos // b) + q // b, pos % b, q % b] = gains[:, :, j]
    pad = np.arange(m, k * b) % b
    bands[:, -1, pad, pad] = 1.0
    return EffectiveSystem(bands=bands, window=window, cfg=cfg, channel=ch)


def _herm(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _tril_inv(low: np.ndarray) -> np.ndarray:
    """Inverses of lower-triangular matrices by halves, a third of the work
    of a general inverse: ``[[A, 0], [C, D]]^-1 = [[A^-1, 0], [-D^-1 C A^-1, D^-1]]``."""
    h = low.shape[-1] // 2
    if h < 32:
        return np.linalg.inv(low)
    out = np.zeros_like(low)
    out[..., :h, :h] = a = _tril_inv(low[..., :h, :h])
    out[..., h:, h:] = d = _tril_inv(low[..., h:, h:])
    out[..., h:, :h] = -(d @ low[..., h:, :h] @ a)
    return out


def _factorize(bands: np.ndarray, m: int, noise_var: float):
    """Block Cholesky factor L_n of each A_n: ``inv[n, k]`` inverts its diagonal
    block k, ``low[n, k - 1]`` is its block (k, k - 1). Refuses, by name, the
    first symbol whose A_n is not positive definite or whose rcond, estimated
    by two inverse-iteration steps against the largest row sum of |A_n|, is
    below ``RCOND_MIN``."""
    n_sym, n_blocks, b, _ = bands.shape
    k_count = (n_blocks + 2) // 3
    # A_n's blocks (k, k) and (k, k - 1) are built here, then factored in place
    inv = np.empty((n_sym, k_count, b, b), dtype=np.complex128)
    low = np.empty((n_sym, k_count - 1, b, b), dtype=np.complex128)
    norm = np.empty(n_sym)  # the largest absolute row sum of A_n, padding rows left out
    step = max(2**19 // (n_blocks * b * b), 1)  # symbols per chunk: temporaries of 8 MB
    for first in range(0, n_sym, step):
        h, d, c = bands[first : first + step], inv[first : first + step], low[first : first + step]
        # block (k, k) of A_n sums the Gram blocks of block row k: 3k - 1 ... 3k + 1
        np.matmul(h[:, 0::3], _herm(h[:, 0::3]), out=d)
        d[:, 1:] += h[:, 2::3] @ _herm(h[:, 2::3])
        d[:, :-1] += h[:, 1::3] @ _herm(h[:, 1::3])
        d += noise_var * np.eye(b)
        c[:] = h[:, 2::3] @ _herm(h[:, 0:-2:3]) + h[:, 3::3] @ _herm(h[:, 1::3])
        sums = np.abs(d).sum(axis=-1)
        sums[:, 1:] += np.abs(c).sum(axis=-1)
        sums[:, :-1] += np.abs(c).sum(axis=-2)
        norm[first : first + step] = sums.reshape(len(d), -1)[:, :m].max(axis=1)
        for k in range(k_count):
            if k:
                c[:, k - 1] = e = c[:, k - 1] @ _herm(d[:, k - 1])
                d[:, k] -= e @ _herm(e)
            try:
                d[:, k] = _tril_inv(np.linalg.cholesky(d[:, k]))
            except np.linalg.LinAlgError:
                w = np.linalg.eigvalsh(d[:, k])
                n = first + int(np.argmax(w[:, 0] <= RCOND_MIN * w[:, -1]))
                raise SingularMatrixError(f"symbol {n} of {n_sym} is singular: H_n H_n^H + "
                                          "noise_var I is not positive definite") from None
    u = np.pad(np.cos(np.arange(m)) + 0j, (0, k_count * b - m)).reshape(k_count, b, 1)
    u = np.repeat(u[None], n_sym, axis=0)
    with np.errstate(all="ignore"):  # an overflow is a refusal too
        for _ in range(2):
            u = np.conj(_solve(inv, low, u)) * norm[:, None, None, None]
            size = np.linalg.norm(u.reshape(n_sym, -1), axis=1)  # -> 1 / rcond
            u /= size[:, None, None, None]
    bad = np.flatnonzero(~(size <= 1 / RCOND_MIN))
    if bad.size:
        raise SingularMatrixError(f"symbol {bad[0]} of {n_sym} is singular: H_n H_n^H + noise_var"
                                  f" I has estimated rcond {1 / size[bad[0]]:.1e} < {RCOND_MIN:g}")
    return inv, low


def _solve(inv: np.ndarray, low: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``conj(A_n^{-1} y_n)`` for block columns y (N, K, B, T), by block forward
    and back substitution with the factors of :func:`_factorize`; overwrites y.
    The back substitution runs on conj(y), where each L^H is a transpose."""
    y[:, 0] = inv[:, 0] @ y[:, 0]
    for k in range(1, inv.shape[1]):
        y[:, k] = inv[:, k] @ (y[:, k] - low[:, k - 1] @ y[:, k - 1])
    y = np.conj(y, out=y)
    inv, low = inv.swapaxes(-1, -2), low.swapaxes(-1, -2)
    y[:, -1] = inv[:, -1] @ y[:, -1]
    for k in reversed(range(inv.shape[1] - 1)):
        y[:, k] = inv[:, k] @ (y[:, k] - low[:, k] @ y[:, k + 1])
    return y


def _detect(d_tilde, sys: EffectiveSystem, noise_var: float) -> np.ndarray:
    """``s_n = H_n^H A_n^{-1} y_n`` for the grids (..., M, N) in `d_tilde`.

    The row IDFTs of the T grids, window undone, are gathered into zig-zag
    block columns (N, K, B, T), so each block product has T columns and can
    round differently from T one-grid solves in the last bits.
    """
    m, n_sym, d = sys.cfg.M, sys.cfg.N, _check_grid(d_tilde, sys.cfg, "d_tilde")
    if sys._factor is None or sys._factor[0] != noise_var:
        sys._factor = None  # the old factors go before the new ones are built
        sys._factor = (noise_var, *_factorize(sys.bands, m, noise_var))
    _, inv, low = sys._factor
    k_count, b, pos = inv.shape[1], inv.shape[2], _zigzag(m)
    y = apply_window(np.fft.ifft(d.reshape(-1, m, n_sym), axis=-1, norm="ortho"), 1 / sys.window)
    u = np.zeros((n_sym, k_count * b, y.shape[0]), dtype=np.complex128)
    u[:, pos] = y.T
    u = _solve(inv, low, u.reshape(n_sym, k_count, b, -1))  # conjugated
    h = sys.bands.swapaxes(-1, -2)  # conj(H_n^H u) = H_n^T conj(u), block by block
    s = h[:, 0::3] @ u  # blocks (k, k)
    s[:, :-1] += h[:, 2::3] @ u[:, 1:]  # blocks (k, k - 1)
    s[:, 1:] += h[:, 1::3] @ u[:, :-1]  # blocks (k, k + 1)
    out = np.conj(s.reshape(n_sym, k_count * b, -1)[:, pos].T)
    return np.fft.fft(out, axis=-1, norm="ortho").reshape(d.shape)


def zf_detect(d_tilde, sys: EffectiveSystem) -> np.ndarray:
    """Zero-forcing, ``s_n = H_n^{-1} y_n`` per symbol, through the normal
    equations (error as cond(H_n)^2); returns the M x N grid(s)."""
    return _detect(d_tilde, sys, 0.0)


def mmse_detect(d_tilde, sys: EffectiveSystem, noise_var: float) -> np.ndarray:
    """Linear MMSE for unit-energy symbols, ``s_n = H_n^H (H_n H_n^H +
    noise_var I)^{-1} y_n`` per symbol; it tends to zero-forcing as noise_var
    goes to 0."""
    return _detect(d_tilde, sys, check_noise_var(noise_var))


@dataclass(frozen=True)
class BerStat:
    """Bit-error count with its Monte-Carlo standard error."""

    n_bits: int
    n_errors: int

    def __post_init__(self):
        n_bits = check_int("n_bits", self.n_bits, 1)  # a BER over no bits is 0 / 0
        n_errors = check_int("n_errors", self.n_errors)
        require(n_errors <= n_bits, "n_errors", f"at most n_bits = {n_bits}", n_errors)

    @property
    def ber(self) -> float:
        return self.n_errors / self.n_bits

    @property
    def stderr(self) -> float:
        p = self.ber
        return float(np.sqrt(p * (1.0 - p) / self.n_bits))


def bit_error_rate(detected_bits: np.ndarray, reference_bits: np.ndarray) -> BerStat:
    """Hamming distance over length, as a BerStat."""
    detected_bits = as_array("detected_bits", detected_bits, dtype=None)
    reference_bits = as_array("reference_bits", reference_bits, dtype=None)
    shapes = detected_bits.shape, reference_bits.shape
    ok = shapes[0] == shapes[1] and detected_bits.size > 0
    require(ok, "detected_bits and reference_bits", "non-empty arrays of one shape", shapes)
    return BerStat(
        n_bits=detected_bits.size,
        n_errors=int(np.count_nonzero(detected_bits != reference_bits)),
    )
