"""Shared independent oracles used by the unit and acceptance tests.

These deliberately re-derive receiver math through numpy's FFTs and explicit
summations so they share no code path with the package under test.
"""

import math
from dataclasses import dataclass

import numpy as np

from otfsim.channel import BlockFadingChannel, ChannelTap, LtvChannel
from otfsim.cli import EQUIVALENCE_TOL
from otfsim.modem_fast import demodulate_fast, modulate_fast
from otfsim.modem_reference import demodulate_reference, modulate_reference


@dataclass(frozen=True, eq=False)
class CpMatrices:
    """Explicit cyclic-prefix matrices, the product form of CP handling."""

    add: np.ndarray  # (M + cp_len, M), [G^T, I^T]^T
    remove: np.ndarray  # (M, M + cp_len), [0, I]


def vec(a):
    """Stack the columns of a matrix into one vector (column-major)."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("vec expects a matrix")
    return a.reshape(-1, order="F")


def unvec(v, rows, cols):
    """Refill a (rows, cols) matrix column by column from a vector (inverse of vec)."""
    v = np.asarray(v)
    if v.ndim != 1 or v.size != rows * cols:
        raise ValueError(f"cannot unvec length-{v.size} vector into {rows}x{cols}")
    return v.reshape(rows, cols, order="F")


def dft_matrix(p, inverse=False):
    """Unitary P-point DFT matrix, [F]_pq = exp(-j*2*pi*p*q/P)/sqrt(P)."""
    if p < 1:
        raise ValueError("DFT size must be >= 1")
    sign = 1.0 if inverse else -1.0
    grid = np.outer(np.arange(p), np.arange(p))
    return np.exp(sign * 2j * np.pi * grid / p) / np.sqrt(p)


def doppler_cycles_per_sample(speed_mps, carrier_hz, sample_rate_hz, light_speed=299792458.0):
    """Convert a physical mobile speed to normalized Doppler (cycles/sample)."""
    return (speed_mps / light_speed) * carrier_hz / sample_rate_hz


def identity_channel():
    return LtvChannel((ChannelTap(delay=0, gain=1.0),))


def random_ltv_channel(rng, n_taps, max_delay, max_doppler):
    """Random unit-power LTV channel with distinct delays in [0, max_delay]."""
    delays = rng.choice(max_delay + 1, size=min(n_taps, max_delay + 1), replace=False)
    if 0 not in delays:
        delays[0] = 0  # keep a line-of-sight tap so the gain normalization is meaningful
    gains = rng.normal(size=delays.size) + 1j * rng.normal(size=delays.size)
    gains /= np.linalg.norm(gains)
    taps = tuple(
        ChannelTap(
            delay=int(d),
            gain=complex(g),
            doppler=float(rng.uniform(-max_doppler, max_doppler)),
            phase=float(rng.uniform(0, 2 * np.pi)),
        )
        for d, g in zip(delays, gains)
    )
    return LtvChannel(taps)


class CountingChannel:
    """`ch`, recording the size of each call of its coeffs; a call past the
    first `limit` raises, so a test can show that a channel is not sampled again."""

    def __init__(self, ch, limit=None):
        self.ch, self.limit, self.calls = ch, limit, []

    def coeffs(self, size):
        self.calls.append(size)
        if self.limit is not None and len(self.calls) > self.limit:
            raise AssertionError(f"coeffs called {len(self.calls)} times, limit {self.limit}")
        return self.ch.coeffs(size)


def random_block_fading_channel(rng, cfg, length):
    """Random per-symbol impulse responses (unit average power)."""
    gains = rng.normal(size=(cfg.N, length)) + 1j * rng.normal(size=(cfg.N, length))
    gains /= np.sqrt(2.0 * length)
    return BlockFadingChannel(gains=gains, sym_len=cfg.sym_len)


# ---------------------------------------------------------------------------
# Gray-coded QAM by bit arithmetic, the reference for the table-driven mapper
# ---------------------------------------------------------------------------

def _gray_encode(i):
    return i ^ (i >> 1)


def _gray_decode(g, nbits):
    i = g.copy()
    shift = 1
    while shift < nbits:
        i = i ^ (i >> shift)
        shift *= 2
    return i


def _axis_levels(bits, nbits):
    """Map per-axis bit groups (MSB first) to Gray-coded PAM levels."""
    weights = 1 << np.arange(nbits - 1, -1, -1)
    idx = _gray_decode((bits * weights).sum(axis=-1), nbits)
    return ((1 << nbits) - 1) - 2 * idx


def qam_map_reference(bits, order):
    """Gray-coded square QAM: in-phase bits first, each axis decoded by arithmetic."""
    half = int(math.log2(order)) // 2
    groups = np.asarray(bits, dtype=np.int64).reshape(-1, 2 * half)
    re = _axis_levels(groups[:, :half], half)
    im = _axis_levels(groups[:, half:], half)
    return math.sqrt(3.0 / (2.0 * (order - 1))) * (re + 1j * im)


def qam_demap_reference(symbols, order):
    """Nearest-level decision per axis, Gray-encoded bit by bit."""
    symbols = np.asarray(symbols, dtype=np.complex128).ravel()
    half = int(math.log2(order)) // 2
    levels = 1 << half
    scale = math.sqrt(3.0 / (2.0 * (order - 1)))
    edge = (levels - 1) * scale
    out = np.empty((symbols.size, 2 * half), dtype=np.int64)
    for pos, axis in ((0, symbols.real), (half, symbols.imag)):
        idx = np.rint(((levels - 1) - np.clip(axis, -edge, edge) / scale) / 2).astype(np.int64)
        codes = _gray_encode(idx)
        for b in range(half):
            out[:, pos + b] = (codes >> (half - 1 - b)) & 1
    return out.reshape(-1)


def cp_matrices(cfg):
    eye = np.eye(cfg.M)
    add = np.vstack([eye[cfg.M - cfg.cp_len :, :], eye])
    remove = np.hstack([np.zeros((cfg.M, cfg.cp_len)), eye])
    return CpMatrices(add=add, remove=remove)


def batched_noise_receiver(cfg, window, n_frames, noise_var, rng):
    """Push noise-only frames through an independent receive chain.

    Returns (frames, vec_outputs): the raw frames (n_frames, frame_len) and
    the column-stacked delay-Doppler outputs (n_frames, M*N).
    """
    sym_len = cfg.sym_len
    scale = np.sqrt(noise_var / 2)
    noise = scale * (
        rng.normal(size=(n_frames, cfg.N, sym_len))
        + 1j * rng.normal(size=(n_frames, cfg.N, sym_len))
    )
    frames = noise.reshape(n_frames, -1)
    sym = noise.transpose(0, 2, 1)  # (B, sym_len, N), column-major frames
    body = sym[:, cfg.cp_len :, :]
    z = np.fft.fft(body, axis=1, norm="ortho")
    zw = z * window[None, None, :]
    x = np.fft.fft(np.fft.ifft(zw, axis=1, norm="ortho"), axis=2, norm="ortho")
    return frames, x.transpose(0, 2, 1).reshape(n_frames, -1)


def channel_blocks(ch, cfg):
    """Dense per-symbol channel matrices, shape (N, M, M):
    ``H_n[i, (i - ell) mod M] = h(n*(M + cp_len) + cp_len + i, ell)``.

    The dense model the banded detectors replace; test_channel checks it
    against the explicit CP-matrix product ``R_cp @ H_breve_n @ A_cp``. It
    samples `ch` over the frame itself and picks the kept samples by its own
    arithmetic, so it shares no code with assemble_effective.
    """
    kappa = np.arange(cfg.N)[:, None] * cfg.sym_len + cfg.cp_len + np.arange(cfg.M)
    delays, h = ch.coeffs(cfg.frame_len)
    return _dense_blocks(delays, h[kappa])


def system_blocks(sys):
    """The dense H_n an EffectiveSystem holds as tap gains, shape (N, M, M)."""
    return _dense_blocks(sys.delays, sys.gains)


def _dense_blocks(delays, gains):
    """``H_n[i, (i - delays[j]) mod M] = gains[n, i, j]``, shape (N, M, M)."""
    n, m, _ = gains.shape
    rows = np.arange(m)
    blocks = np.zeros((n, m, m), dtype=np.complex128)
    for j, ell in enumerate(delays):
        blocks[:, rows, (rows - ell) % m] = gains[:, :, j]
    return blocks


def windowed_blocks(ch, window, cfg):
    """The windowed per-symbol blocks ``G_n = wr[n] H_n``, shape (N, M, M)."""
    return channel_blocks(ch, cfg) * window[:, None, None]


def symbol_covariance(window, cfg, noise_var):
    """Covariance of each symbol's windowed noise, ``noise_var |wr[n]|^2 I``."""
    gains = noise_var * np.abs(window) ** 2
    return gains[:, None, None] * np.eye(cfg.M)


def empirical_covariance(samples):
    """Sample covariance sum v v^H / B for row-stacked samples (B, D)."""
    return samples.T @ samples.conj() / samples.shape[0]


def qfunc(x):
    """Gaussian tail probability Q(x) of a scalar."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# Dense MN x MN reference for the per-symbol detectors
#
# This is the model the per-symbol detectors replace: the block-circulant
# Doppler-tap system with its Kronecker noise covariance, solved densely.
# It shares only the channel's coeffs with the package, through
# channel_blocks, which test_channel checks against the explicit CP-matrix
# product.
# ---------------------------------------------------------------------------

def build_doppler_taps(ch, wr, cfg):
    """Doppler-domain channel taps: the DFT across symbols of the windowed H_n.

    ``taps[k] = (1/N) * sum_i H_i * wr[i] * exp(-j*2*pi*k*i/N)``.
    """
    wr = np.asarray(wr, dtype=np.complex128)
    if wr.shape != (cfg.N,):
        raise ValueError(f"time window must have length {cfg.N}")
    h_stack = channel_blocks(ch, cfg)
    phases = np.exp(-2j * np.pi * np.outer(np.arange(cfg.N), np.arange(cfg.N)) / cfg.N)
    weights = phases * wr[None, :] / cfg.N
    taps = np.einsum("ki,imn->kmn", weights, h_stack)
    return [taps[k] for k in range(cfg.N)]


def block_circulant_assemble(blocks):
    """Assemble the MN x MN block-circulant matrix from N blocks of size M x M.

    Block (r, c) of the result is ``blocks[(r - c) mod N]``, i.e. the blocks
    form the first block column and wrap circularly.
    """
    if len(blocks) < 1:
        raise ValueError("need at least one block")
    blocks = [np.asarray(blk, dtype=np.complex128) for blk in blocks]
    m = blocks[0].shape[0]
    for blk in blocks:
        if blk.shape != (m, m):
            raise ValueError("all blocks must be square with identical shape")
    n = len(blocks)
    out = np.empty((m * n, m * n), dtype=np.complex128)
    for r in range(n):
        for c in range(n):
            out[r * m : (r + 1) * m, c * m : (c + 1) * m] = blocks[(r - c) % n]
    return out


def dense_effective(ch, window, cfg):
    """The MN x MN effective matrix ``H_BC`` of the windowed Doppler taps."""
    return block_circulant_assemble(build_doppler_taps(ch, window, cfg))


def kron_noise_covariance(window, cfg, noise_var):
    """Exact covariance of vec(V~): noise_var * (C kron I_M).

    C is the N x N circulant whose first column is the DFT of |wr|^2 divided
    by N.
    """
    c = np.fft.fft(np.abs(window) ** 2) / cfg.N
    row_cov = np.stack([np.roll(c, shift) for shift in range(cfg.N)], axis=1)
    return noise_var * np.kron(row_cov, np.eye(cfg.M))


def dense_zf(h_eff, d, cfg):
    """Dense zero-forcing solve of ``H_eff vec(X) = d``; returns the M x N grid."""
    return np.linalg.solve(h_eff, d).reshape(cfg.M, cfg.N, order="F")


def dense_mmse(h_eff, cov, d, cfg):
    """Dense LMMSE ``H^H (H H^H + C)^{-1} d`` for unit-energy symbols."""
    x = h_eff.conj().T @ np.linalg.solve(h_eff @ h_eff.conj().T + cov, d)
    return x.reshape(cfg.M, cfg.N, order="F")


def dd_response_from_taps(taps):
    """Column l is the first column of ``taps[l]``."""
    return np.stack([tap[:, 0] for tap in taps], axis=1)


def circ_conv2d(a, b):
    """2-D circular convolution of equal-shape matrices, by 2-D FFTs:
    ``C[k, l] = sum_p sum_q A[p, q] * B[(k - p) mod M, (l - q) mod N]``."""
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim != 2 or a.shape != b.shape:
        raise ValueError(f"circ_conv2d expects matrices of one shape, got {a.shape} and {b.shape}")
    return np.fft.ifft2(np.fft.fft2(a) * np.fft.fft2(b))


def brute_circ_conv2d(a, b):
    """Quadruple-loop summation oracle for the 2D circular convolution."""
    m, n = a.shape
    out = np.zeros((m, n), dtype=complex)
    for k in range(m):
        for l in range(n):
            for p in range(m):
                for q in range(n):
                    out[k, l] += a[p, q] * b[(k - p) % m, (l - q) % n]
    return out


def fft2_block_fading_solve(d, ch, window, cfg):
    """Zero-forcing by 2-D FFT diagonalization, valid only for block fading.

    In the block-fading regime the system is a 2-D circular convolution
    with the delay-Doppler response, so ``X = ifft2(fft2(D) / fft2(response))``.
    Refuses any other regime.
    """
    taps = build_doppler_taps(ch, window, cfg)
    for k, tap in enumerate(taps):
        circulant = np.stack([np.roll(tap[:, 0], c) for c in range(cfg.M)], axis=1)
        if np.max(np.abs(tap - circulant)) > 1e-10:
            raise ValueError(f"Doppler tap {k} is not circulant; channel is not block fading")
    response = np.stack([tap[:, 0] for tap in taps], axis=1)
    grid = np.asarray(d, dtype=np.complex128).reshape(cfg.M, cfg.N, order="F")
    return np.fft.ifft2(np.fft.fft2(grid) / np.fft.fft2(response))


def add_cp(body, cp_len):
    """Serialize symbol columns with their cyclic prefixes: (..., M, N) -> (..., L)."""
    *lead, m, n = body.shape
    frame = np.empty((*lead, n, m + cp_len), dtype=body.dtype)
    frame[..., cp_len:] = np.swapaxes(body, -1, -2)
    frame[..., :cp_len] = frame[..., m:]
    return frame.reshape(*lead, n * (m + cp_len))


def modulate_fast_copying(x_dd, cfg):
    """The fast transmitter as a fresh row IDFT, then a copy into the frame."""
    return add_cp(np.fft.ifft(x_dd, axis=-1, norm="ortho"), cfg.cp_len)


def modulate_ofdm_copying(y_tf, cfg):
    """The OFDM modulator as a fresh column IDFT, then a copy into the frame."""
    return add_cp(np.fft.ifft(y_tf, axis=-2, norm="ortho"), cfg.cp_len)


def modulate_reference_copying(x_dd, cfg):
    """The reference transmitter with a fresh array per stage: column DFT, row
    IDFT, then the OFDM modulator's column IDFT copied into the frame."""
    y_tf = np.fft.ifft(np.fft.fft(x_dd, axis=-2, norm="ortho"), axis=-1, norm="ortho")
    return modulate_ofdm_copying(y_tf, cfg)


def demodulate_reference_copying(frame, window, cfg):
    """The reference receiver with a fresh array per stage: column DFT of each
    symbol's data samples, window, column IDFT, row DFT."""
    symbols = np.swapaxes(frame.reshape(*frame.shape[:-1], cfg.N, cfg.sym_len), -1, -2)
    z_tf = np.fft.fft(symbols[..., cfg.cp_len :, :], axis=-2, norm="ortho") * window
    return np.fft.fft(np.fft.ifft(z_tf, axis=-2, norm="ortho"), axis=-1, norm="ortho")


def uniform_complex(rng, shape):
    """Fresh complex values of `shape`, real then imaginary part drawn in turn,
    each uniform on [-sqrt(3), sqrt(3)]."""
    parts = rng.random(shape + (2,)) * (2 * math.sqrt(3)) - math.sqrt(3)
    return parts.view(np.complex128)[..., 0]


def sequential_equivalence(cfg):
    """The equivalence report from one loop on one thread: grid g and frame g
    are the g-th draws from the first and second child of the seed, and each
    grid runs both modem checks in turn. The modems are the package's; the
    draw, the loop and the order are the oracle."""
    mcfg = cfg.modem_config()
    window = cfg.build_window()
    grid_seed, frame_seed = np.random.SeedSequence(cfg.seed).spawn(2)
    grid_rng, frame_rng = np.random.default_rng(grid_seed), np.random.default_rng(frame_seed)
    mod_dev = demod_dev = 0.0
    for _ in range(cfg.grids):
        x = uniform_complex(grid_rng, (mcfg.M, mcfg.N))
        frame = uniform_complex(frame_rng, (mcfg.frame_len,))
        dev = modulate_fast(x, mcfg) - modulate_reference(x, mcfg)
        mod_dev = max(mod_dev, float(np.abs(dev).max()))
        dev = demodulate_fast(frame, window, mcfg) - demodulate_reference(frame, window, mcfg)
        demod_dev = max(demod_dev, float(np.abs(dev).max()))
    return dict(
        grids=cfg.grids,
        modulator_max_dev=mod_dev,
        demodulator_max_dev=demod_dev,
        tolerance=EQUIVALENCE_TOL,
        passed=mod_dev <= EQUIVALENCE_TOL and demod_dev <= EQUIVALENCE_TOL,
    )
