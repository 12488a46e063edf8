"""Shared independent oracles used by the unit and acceptance tests.

These deliberately re-derive receiver math through numpy's FFTs and explicit
summations so they share no code path with the package under test.
"""

import math
from dataclasses import dataclass

import numpy as np

from otfsim.channel import BlockFadingChannel, ChannelTap, LtvChannel, channel_blocks


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


def dft_matrix(p, inverse=False):
    """Unitary P-point DFT matrix, [F]_pq = exp(-j*2*pi*p*q/P)/sqrt(P)."""
    if p < 1:
        raise ValueError("DFT size must be >= 1")
    sign = 1.0 if inverse else -1.0
    grid = np.outer(np.arange(p), np.arange(p))
    return np.exp(sign * 2j * np.pi * grid / p) / np.sqrt(p)


def wbar_c(window):
    """Delay-domain image of the frequency window, F_M^H diag(wc) F_M."""
    f = dft_matrix(window.wc.size)
    return f.conj().T @ (window.wc[:, None] * f)


def doppler_cycles_per_sample(speed_mps, carrier_hz, sample_rate_hz, light_speed=299792458.0):
    """Convert a physical mobile speed to normalized Doppler (cycles/sample)."""
    return (speed_mps / light_speed) * carrier_hz / sample_rate_hz


def identity_channel():
    return LtvChannel((ChannelTap(delay=0, gain=1.0),))


def random_block_fading_channel(rng, cfg, length):
    """Random per-symbol impulse responses (unit average power)."""
    gains = rng.normal(size=(cfg.N, length)) + 1j * rng.normal(size=(cfg.N, length))
    gains /= np.sqrt(2.0 * length)
    return BlockFadingChannel(gains=gains, sym_len=cfg.sym_len)


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
    zw = window.wc[None, :, None] * z * window.wr[None, None, :]
    x = np.fft.fft(np.fft.ifft(zw, axis=1, norm="ortho"), axis=2, norm="ortho")
    return frames, x.transpose(0, 2, 1).reshape(n_frames, -1)


def windowed_blocks(ch, window, cfg):
    """The windowed per-symbol blocks ``G_n = Wbar_c wr[n] H_n``, shape (N, M, M)."""
    return wbar_c(window) @ (channel_blocks(ch, cfg) * window.wr[:, None, None])


def symbol_covariance(window, cfg):
    """Covariance of each symbol's windowed noise, ``noise_var |wr[n]|^2 Wbar_c Wbar_c^H``."""
    wbar = wbar_c(window)
    gains = cfg.noise_var * np.abs(window.wr) ** 2
    return gains[:, None, None] * (wbar @ wbar.conj().T)


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
# It shares only channel_blocks with the package; channel_blocks is itself
# checked against the explicit CP-matrix product in test_channel.
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
    """The MN x MN effective matrix ``(I_N kron Wbar_c) H_BC``."""
    h_bc = block_circulant_assemble(build_doppler_taps(ch, window.wr, cfg))
    return np.kron(np.eye(cfg.N), wbar_c(window)) @ h_bc


def kron_noise_covariance(window, cfg):
    """Exact covariance of vec(V~): sigma^2 * (C kron Qc).

    C is the N x N circulant whose first column is the DFT of |wr|^2 divided
    by N; Qc = F_M^H diag(|wc|^2) F_M.
    """
    c = np.fft.fft(np.abs(window.wr) ** 2) / cfg.N
    row_cov = np.stack([np.roll(c, shift) for shift in range(cfg.N)], axis=1)
    wbar = wbar_c(window)
    return cfg.noise_var * np.kron(row_cov, wbar @ wbar.conj().T)


def dense_zf(h_eff, d, cfg):
    """Dense zero-forcing solve of ``H_eff vec(X) = d``; returns the M x N grid."""
    return np.linalg.solve(h_eff, d).reshape(cfg.M, cfg.N, order="F")


def dense_mmse(h_eff, cov, d, cfg):
    """Dense LMMSE ``H^H (H H^H + C)^{-1} d`` for unit-energy symbols."""
    x = h_eff.conj().T @ np.linalg.solve(h_eff @ h_eff.conj().T + cov, d)
    return x.reshape(cfg.M, cfg.N, order="F")


def dd_response_from_taps(taps, window):
    """Column l is the first column of ``Wbar_c @ taps[l]``."""
    return np.stack([(wbar_c(window) @ tap)[:, 0] for tap in taps], axis=1)


def fft2_block_fading_solve(d, ch, window, cfg):
    """Zero-forcing by 2-D FFT diagonalization, valid only for block fading.

    In the block-fading regime with a rectangular frequency window the
    system is a 2-D circular convolution with the delay-Doppler response,
    so ``X = ifft2(fft2(D) / fft2(response))``. Refuses any other regime.
    """
    if not window.is_rect_freq:
        raise ValueError("2-D FFT solve requires a rectangular frequency window")
    taps = build_doppler_taps(ch, window.wr, cfg)
    for k, tap in enumerate(taps):
        circulant = np.stack([np.roll(tap[:, 0], c) for c in range(cfg.M)], axis=1)
        if np.max(np.abs(tap - circulant)) > 1e-10:
            raise ValueError(f"Doppler tap {k} is not circulant; channel is not block fading")
    response = np.stack([tap[:, 0] for tap in taps], axis=1)
    grid = np.asarray(d, dtype=np.complex128).reshape(cfg.M, cfg.N, order="F")
    return np.fft.ifft2(np.fft.fft2(grid) / np.fft.fft2(response))
