"""Linear detection, one OFDM symbol at a time, by a banded Cholesky solve.

With ``S = X F_N^H`` and ``Y = X~ F_N^H`` (unitary row IDFTs of the sent and
received grids), column n obeys ``y_n = wr[n] (H_n s_n + v_n)``, the v_n
white with variance noise_var and mutually uncorrelated, for any channel whose
delays are at most cp_len; H_n is cyclic banded, ``H_n[i, (i - ell) mod M] =
h(n*(M + cp_len) + cp_len + i, ell)``. :func:`assemble_effective` samples h
once; the simulator, the detector and :func:`build_dd_response` read that one
array. The detector undoes the window and estimates ``s_n = H_n^H A_n^{-1}
y_n`` with ``A_n = H_n H_n^H + noise_var I``: MMSE for unit-energy symbols,
and zero-forcing at noise_var = 0. As ``F_N kron I_M`` is unitary, both equal
their MN x MN counterparts for the windowed system: an invertible receive
window changes the delay-Doppler response, not a linear detector's output.

The system keeps only the tap gains, O(N (M + cp_len) D) numbers for D delays.
``factor`` returns a frozen record of A_n's block Cholesky factor at one noise
level, made in three steps. `_order` alone picks the row order, zig-zag 0, M-1,
1, M-2, ..., and row blocks of B >= 2 w rows, for w the largest cyclic distance
of two delays (taps at 200 and 210 give w = 10); `_build` writes H_n H_n^H's
blocks from the gains, the last padded with rows of I, so A_n is block tridiagonal;
and `_cholesky` factors them in place, diagonal blocks inverted, O(N M B) numbers.
The record's ``detect`` costs batched block products and one shifted product per
delay: O(N M (B + D)) work. ZF solves these normal equations, so its error grows
as cond(H_n)^2; a symbol whose estimated rcond(A_n) is below 1e-12 (for ZF,
cond(H_n) > 1e6) is refused by name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import ModemConfig, apply_window
from .numerics import SingularMatrixError, all_finite, check_noise_var, dft, is_integer, require

#: smallest estimated reciprocal condition number of A_n the detectors accept
RCOND_MIN = 1e-12


@dataclass(frozen=True, eq=False)
class EffectiveSystem:
    """One channel/window/config combination, as simulated and as detected:
    ``taps[kappa, j] = h(kappa, delays[j])`` at each sample of a frame, (frame_len, D),
    and the unwindowed ``H_n[i, (i - delays[j]) mod M] = gains[n, i, j]``, a view of
    them. `window` is undone by the detector."""

    delays: np.ndarray
    taps: np.ndarray
    window: np.ndarray
    cfg: ModemConfig

    @property
    def gains(self) -> np.ndarray:
        """`taps` at the samples each symbol keeps, shape (N, M, D): a view."""
        return self.cfg.symbols(self.taps.T).T

    def coeffs(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        """The channel interface: the delays and ``taps[:size]``, a view; 0 <= size <= frame_len."""
        ok = is_integer(size) and 0 <= size <= len(self.taps)
        require(ok, "size", f"an integer in [0, {len(self.taps)}]", size)
        return self.delays, self.taps[:size]

    def factor(self, noise_var: float) -> Factors:
        """The factors of every A_n: zero-forcing at noise_var 0, MMSE above it.
        Refuses a negative or non-finite noise_var, and a singular symbol, by name."""
        noise_var = check_noise_var(noise_var)
        return Factors(self, noise_var, *_factorize(self, noise_var))


@dataclass(frozen=True, eq=False)
class Factors:
    """The block Cholesky factor L_n of each A_n of `system` at `noise_var`, from :func:`_order`,
    :func:`_build` and :func:`_cholesky`: A_n's row i is L_n's row ``pos[i]``, ``inv[n, k]``
    inverts its diagonal block k, ``low[n, k - 1]`` is its block (k, k - 1), and ``rcond[n]``
    estimates A_n's reciprocal condition number."""

    system: EffectiveSystem
    noise_var: float
    pos: np.ndarray
    inv: np.ndarray
    low: np.ndarray
    rcond: np.ndarray

    def detect(self, d_tilde) -> np.ndarray:
        """``s_n = H_n^H A_n^{-1} y_n`` for the grids (..., M, N) in `d_tilde`."""
        return fast_block_solve(d_tilde, self)


def fast_block_solve(d_tilde, factors: Factors) -> np.ndarray:
    """:meth:`Factors.detect`, bound at module level so a tracer can rebind it. The
    row IDFTs of the T grids, window undone, are gathered in the order ``factors.pos``
    into block columns (N, K, B, T) for the block solve; H_n^H then takes one shifted
    product per delay in the natural row order. Each block product has T columns and
    can round differently from T one-grid solves in the last bits. In a counting
    scope, both row transforms are charged to `detect_rows`."""
    sys = factors.system
    m, n_sym, d = sys.cfg.M, sys.cfg.N, sys.cfg.check_grid(d_tilde, "d_tilde")
    y = dft(d.reshape(-1, m, n_sym), inverse=True, axis=-1, stage="detect_rows")
    y = apply_window(y, 1 / sys.window)
    rows = (slice(None), *np.unravel_index(factors.pos, factors.inv.shape[1:3]))  # (block, row)
    u = np.zeros((*factors.inv.shape[:-1], len(y)), dtype=np.complex128)
    u[rows] = y.T
    u = _solve(factors.inv, factors.low, u)[rows]  # conjugated
    s = np.zeros_like(u)  # conj(H_n^H v)[(i - ell) mod M] += g[n, i, ell] conj(v)[i]
    for j, ell in enumerate(sys.delays):
        s += np.roll(sys.gains[:, :, j, None] * u, -ell, axis=1)
    return dft(np.conj(s.T), axis=-1, stage="detect_rows").reshape(d.shape)


def assemble_effective(ch, window: np.ndarray, cfg: ModemConfig) -> EffectiveSystem:
    """Build the per-symbol system for a channel, receive window, and config:
    the tap delays and their gains ``taps[kappa, j] = h(kappa, delays[j])`` at
    every sample of a frame, the one sampling of `ch` in a run.

    Refuses a channel sampled at a delay past cp_len, whose inter-symbol
    interference reaches the kept samples and which the per-symbol model would
    omit; a channel with non-finite values; and a window with a zero or
    non-finite coefficient, which the detectors could not divide out.
    """
    window = cfg.check_window(window)
    bad = np.flatnonzero(~np.isfinite(window) | (window == 0))
    if bad.size:
        raise ValueError(
            f"window wr[{bad[0]}] is {window[bad[0]]}; the detectors divide by "
            "the window, so every coefficient must be finite and nonzero"
        )
    delays, taps = ch.coeffs(cfg.frame_len)
    if delays.max(initial=0) > cfg.cp_len:
        raise ValueError(
            f"channel length {delays.max() + 1} exceeds Mcp + 1 = {cfg.cp_len + 1}; the "
            "per-symbol model would ignore the inter-symbol interference it causes"
        )
    if not all_finite(taps):
        raise ValueError("channel has non-finite values")
    return EffectiveSystem(delays=delays, taps=taps, window=window, cfg=cfg)


def build_dd_response(system: EffectiveSystem) -> np.ndarray:
    """Windowed delay-Doppler channel impulse response (M x N) of `system`.

    Column l is the first column of the l-th windowed Doppler tap ``(1/N)
    sum_n window[n] H_n exp(-j*2*pi*l*n/N)``. The first column of ``H_n`` holds
    ``gains[n, ell, j]`` at row ell = delays[j], so it is read from the gains.
    """
    cfg, delays = system.cfg, system.delays
    first = np.zeros((cfg.M, cfg.N), dtype=np.complex128)
    first[delays] = system.gains[:, delays, np.arange(delays.size)].T
    return np.fft.fft(apply_window(first, system.window, out=first), axis=1) / cfg.N


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


def _order(delays: np.ndarray, m: int) -> tuple[np.ndarray, int]:
    """The row pos[i] of each index i < m in the zig-zag order 0, m-1, 1, m-2, ..., and the block
    size B = ceil(m / K0) for the most blocks K0 of at least max(2 w, 8) rows. A_n couples rows i
    and (i + s) mod m only at a lag s = ell' - ell of two delays, so its band in the zig-zag order
    has half-width at most 2 w, for w the largest cyclic distance min(s, m - s) of such a lag."""
    lag = (delays[None, :] - delays[:, None]) % m
    w = np.minimum(lag, m - lag).max(initial=0)
    i, b = np.arange(m), -(-m // max(m // max(2 * w, 8), 1))
    return np.where(2 * i < m, 2 * i, 2 * (m - i) - 1), b


def _factorize(system: EffectiveSystem, noise_var: float):
    """``pos``, ``inv``, ``low`` and ``rcond`` of :class:`Factors`, a chunk of symbols at a time.
    Refuses, by name, the first symbol whose rcond, estimated by two inverse-iteration steps
    against the largest absolute row sum of A_n, from :func:`_build`, is below RCOND_MIN."""
    m, n_sym = system.cfg.M, system.cfg.N
    pos, b = _order(system.delays, m)
    k_count = -(-m // b)
    inv = np.zeros((n_sym, k_count, b, b), dtype=np.complex128)
    low = np.zeros((n_sym, k_count - 1, b, b), dtype=np.complex128)
    norm = np.empty(n_sym)  # the largest absolute row sum of A_n
    step = max(2**19 // ((3 * k_count - 2) * b * b), 1)  # symbols per chunk: blocks under 8 MB
    for first in range(0, n_sym, step):
        d, c = inv[first : first + step], low[first : first + step]
        sums = _build(system.delays, system.gains[first : first + step], pos, d, c)
        d += noise_var * np.eye(b)
        norm[first : first + step] = sums.max(axis=1) + noise_var
        _cholesky(d, c, first, n_sym)
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
    return pos, inv, low, 1 / size


def _build(delays: np.ndarray, gains: np.ndarray, pos: np.ndarray, d: np.ndarray, c: np.ndarray):
    """Write H_n H_n^H, for ``H_n[i, (i - delays[j]) mod M] = gains[n, i, j]``, row i at row
    pos[i], into the zero blocks (k, k) d[n, k] and (k, k - 1) c[n, k - 1], padded by I, and
    return its absolute row sums (n, M), taken over every lag, those above the diagonal too."""
    m, b = gains.shape[1], d.shape[-1]
    rows, lag = np.arange(m), (delays[None, :] - delays[:, None]) % m  # lag[j, j'] = ell' - ell
    sums = np.zeros(gains.shape[:2])
    for s in set(lag.flat):
        # A_n[i, (i + s) mod M] sums g[n, i, ell] conj(g[n, i + s, ell']) over ell' - ell = s;
        # in the order pos it is entry (pos[i], q), kept in block (k, k) or (k, k - 1)
        j, j2 = np.nonzero(lag == s)
        a = (gains[:, :, j] * np.roll(gains[:, :, j2], -s, axis=1).conj()).sum(axis=-1)
        q = pos[(rows + s) % m]
        diag, sub = pos // b == q // b, pos // b == q // b + 1
        d.reshape(len(d), -1)[:, pos[diag] * b + q[diag] % b] = a[:, diag]
        c.reshape(len(c), -1)[:, (pos[sub] - b) * b + q[sub] % b] = a[:, sub]
        sums += np.abs(a)
    pad = np.arange(m, d.shape[1] * b) % b
    d[:, -1, pad, pad] = 1.0
    return sums


def _cholesky(d: np.ndarray, c: np.ndarray, first: int, n_sym: int):
    """Overwrite A_n's blocks of :func:`_build` with ``inv`` and ``low`` of :class:`Factors`.
    Refuses, as symbol first + n of n_sym, the first A_n that is not positive definite."""
    for k in range(d.shape[1]):
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


def _solve(inv: np.ndarray, low: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``conj(A_n^{-1} y_n)`` for block columns y (N, K, B, T), by block forward
    and back substitution with the factors of :func:`_cholesky`; overwrites y.
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
