"""Tests for the per-symbol system, its noise statistics, and the linear detectors."""

import ast
import re
import threading
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path
from sys import getswitchinterval, setswitchinterval

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    CountingChannel,
    batched_noise_receiver,
    channel_blocks,
    dense_effective,
    dense_mmse,
    dense_zf,
    empirical_covariance,
    fft2_block_fading_solve,
    identity_channel,
    kron_noise_covariance,
    random_block_fading_channel,
    random_ltv_channel,
    symbol_covariance,
    system_blocks,
    unvec,
    vec,
)

from otfsim.channel import (
    BlockFadingChannel,
    ChannelTap,
    LtvChannel,
    add_awgn,
    apply_channel,
)
from otfsim import cli, detect
from otfsim.cli import RunConfig, run_simulation
from otfsim.detect import Factors, assemble_effective
from otfsim.grids import (
    WINDOW_KINDS,
    ModemConfig,
    apply_window,
    make_window,
    qam_demap,
    qam_map,
)
from otfsim.modem_fast import demodulate_fast, modulate_fast
from otfsim.modem_reference import demodulate_reference
from otfsim.numerics import CmCounter, SingularMatrixError


def tapered_window(n, rho=0.5):
    return make_window("time-tapered", n, rho=rho)


def row_idft_noise(outputs, cfg):
    """Noise-only receiver outputs (B, MN) -> their row IDFTs, (B, M, N)."""
    grids = outputs.reshape(-1, cfg.N, cfg.M).transpose(0, 2, 1)
    return np.fft.ifft(grids, axis=2, norm="ortho")


def symbol_major(y):
    """Grids (B, M, N) -> (B, MN), the columns of each grid one after another."""
    return y.transpose(0, 2, 1).reshape(y.shape[0], -1)


def check_symbol_covariance(y, covs, atol):
    """The columns of the grids y (B, M, N) have covariances covs (N, M, M);
    distinct columns are uncorrelated."""
    m = y.shape[1]
    emp = empirical_covariance(symbol_major(y))
    model = np.zeros_like(emp)
    for n, cov in enumerate(covs):
        model[n * m : (n + 1) * m, n * m : (n + 1) * m] = cov
    np.testing.assert_allclose(emp, model, atol=atol)


def check_white_after_unwindowing(y, window, cfg, noise_var, atol):
    """With the window undone, as the detectors do, the noise is white."""
    white = np.broadcast_to(noise_var * np.eye(cfg.M), (cfg.N, cfg.M, cfg.M))
    check_symbol_covariance(apply_window(y, 1 / window), white, atol=atol)


def held_arrays(*records):
    """The arrays held by the records given: a system and its factors."""
    return [v for record in records for v in vars(record).values() if isinstance(v, np.ndarray)]


class TestAssembleEffective:
    def test_rectangular_window_white_noise(self):
        # the windowed model's covariance is white, and undoing the window
        # leaves the grid bit for bit
        cfg = ModemConfig(M=4, N=4, cp_len=1)
        w = make_window("rectangular", 4)
        cov = symbol_covariance(w, cfg, 0.7)
        np.testing.assert_allclose(cov, 0.7 * np.eye(4)[None].repeat(4, 0), rtol=0, atol=1e-15)
        y = np.random.default_rng(56).normal(size=(4, 4)) + 0j
        np.testing.assert_array_equal(apply_window(y, 1 / w), y)

    def test_identity_channel_identity_system(self):
        cfg = ModemConfig(M=4, N=4, cp_len=1)
        sys = assemble_effective(identity_channel(), make_window("rectangular", 4), cfg)
        np.testing.assert_array_equal(system_blocks(sys), np.eye(4)[None].repeat(4, 0))

    def test_covariance_hermitian_psd_and_trace(self):
        cfg = ModemConfig(M=4, N=8, cp_len=1)
        w = tapered_window(8)
        cov = symbol_covariance(w, cfg, 0.9)
        np.testing.assert_allclose(cov, cov.conj().transpose(0, 2, 1), atol=1e-12)
        assert np.min(np.linalg.eigvalsh(cov)) >= -1e-12
        expected_trace = 0.9 * 4 * np.sum(np.abs(w) ** 2)
        assert abs(np.trace(cov, axis1=1, axis2=2).sum().real - expected_trace) <= 1e-10

    def test_covariance_matches_monte_carlo(self):
        # tapered window, white channel noise: the row IDFT of the receiver
        # output has per-symbol covariance noise_var |wr[n]|^2 I and no
        # correlation between symbols
        cfg = ModemConfig(M=4, N=8, cp_len=1)
        w = tapered_window(8)
        rng = np.random.default_rng(60)
        _, outputs = batched_noise_receiver(cfg, w, 40_000, 1.0, rng)
        y = row_idft_noise(outputs, cfg)
        check_symbol_covariance(y, symbol_covariance(w, cfg, 1.0), atol=0.05)
        check_white_after_unwindowing(y, w, cfg, 1.0, atol=0.05)

    def test_symbol_covariance_is_kronecker_model(self):
        # the per-symbol covariance is the dense Kronecker covariance seen
        # through the unitary row IDFT
        cfg = ModemConfig(M=4, N=6, cp_len=1)
        w = tapered_window(6)
        basis = np.eye(cfg.M * cfg.N)
        t = np.stack([symbol_major(row_idft_noise(col[None], cfg))[0] for col in basis], axis=1)
        transformed = t @ kron_noise_covariance(w, cfg, 0.8) @ t.conj().T
        model = np.zeros_like(transformed)
        for n, cov in enumerate(symbol_covariance(w, cfg, 0.8)):
            model[n * 4 : (n + 1) * 4, n * 4 : (n + 1) * 4] = cov
        np.testing.assert_allclose(transformed, model, atol=1e-12)

    def test_oracle_receiver_matches_pipeline(self):
        # ties the vectorized noise oracle to the real receive path
        cfg = ModemConfig(M=4, N=8, cp_len=1)
        w = tapered_window(8)
        rng = np.random.default_rng(61)
        frames, outputs = batched_noise_receiver(cfg, w, 8, 1.0, rng)
        for b in range(8):
            expected = demodulate_reference(frames[b], w, cfg)
            np.testing.assert_allclose(outputs[b], vec(expected), atol=1e-12)

    def test_zf_identity_recovery_at_128x64(self):
        # MN = 8192: twice the size the dense detector used to refuse
        cfg = ModemConfig(M=128, N=64, cp_len=0)
        sys = assemble_effective(identity_channel(), make_window("rectangular", 64), cfg)
        rng = np.random.default_rng(57)
        d = rng.normal(size=(128, 64)) + 1j * rng.normal(size=(128, 64))
        np.testing.assert_allclose(sys.factor(0.0).detect(d), d, atol=1e-12)

    def test_refuses_channel_longer_than_cp(self):
        cfg = ModemConfig(M=16, N=4, cp_len=2)
        ch = LtvChannel((ChannelTap(delay=0, gain=1.0), ChannelTap(delay=6, gain=0.5)))
        with pytest.raises(ValueError, match=r"channel length 7 exceeds Mcp \+ 1 = 3"):
            assemble_effective(ch, make_window("rectangular", 4), cfg)

    def test_refuses_block_fading_by_its_largest_sampled_delay(self):
        # seven gain columns, but delay 5 the last that is not all zero
        cfg = ModemConfig(M=16, N=3, cp_len=4)
        gains = np.zeros((3, 7), dtype=complex)
        gains[:, 0], gains[1, 5] = 1.0, 0.5
        ch = BlockFadingChannel(gains, cfg.sym_len)
        with pytest.raises(ValueError, match=r"channel length 6 exceeds Mcp \+ 1 = 5"):
            assemble_effective(ch, make_window("rectangular", 3), cfg)

    @pytest.mark.parametrize("value", [0.0, np.nan])
    def test_refuses_bad_window_coefficient(self, value):
        # the detectors divide by the window, so a zero or NaN coefficient
        # is refused by name before any block is built
        cfg = ModemConfig(M=4, N=6, cp_len=1)
        wr = np.ones(6)
        wr[2] = value
        with pytest.raises(ValueError, match=r"window wr\[2\] is"):
            assemble_effective(identity_channel(), wr, cfg)


class TestZfDetect:
    def test_identity_system_passthrough(self):
        cfg = ModemConfig(M=4, N=4, cp_len=1)
        sys = assemble_effective(identity_channel(), make_window("rectangular", 4), cfg)
        rng = np.random.default_rng(62)
        d = rng.normal(size=16) + 1j * rng.normal(size=16)
        np.testing.assert_allclose(vec(sys.factor(0.0).detect(unvec(d, 4, 4))), d, atol=1e-12)

    def test_noise_free_recovery_over_ltv_channel(self):
        cfg = ModemConfig(M=16, N=8, cp_len=4)
        ch = LtvChannel(
            (
                ChannelTap(delay=0, gain=0.8, doppler=0.004, phase=0.1),
                ChannelTap(delay=3, gain=0.5j, doppler=-0.008, phase=1.2),
            )
        )
        w = make_window("rectangular", 8)
        rng = np.random.default_rng(63)
        bits = rng.integers(0, 2, size=cfg.M * cfg.N * 2)  # 4-QAM
        x = qam_map(bits, 4).reshape(16, 8, order="F")
        d_tilde = demodulate_fast(apply_channel(modulate_fast(x, cfg), ch), w, cfg)
        sys = assemble_effective(ch, w, cfg)
        np.testing.assert_allclose(sys.factor(0.0).detect(d_tilde), x, atol=1e-8)

    def test_round_trip_random_system(self):
        rng = np.random.default_rng(64)
        cfg = ModemConfig(M=8, N=4, cp_len=3)
        w = tapered_window(4)
        for _ in range(5):
            ch = random_ltv_channel(rng, n_taps=3, max_delay=3, max_doppler=0.02)
            sys = assemble_effective(ch, w, cfg)
            d = rng.normal(size=32) + 1j * rng.normal(size=32)
            np.testing.assert_allclose(
                vec(sys.factor(0.0).detect(unvec(dense_effective(ch, w, cfg) @ d, 8, 4))),
                d,
                atol=1e-8,
            )

    def test_singular_system_reported(self):
        # symbol 1 of a block-fading channel has a spectral null at frequency
        # M/2: its H_n is singular, or, with one gain a hair off, has
        # cond(H_n) ~ 2e8; zero-forcing refuses it by name either way
        cfg = ModemConfig(M=4, N=3, cp_len=1)
        w = make_window("rectangular", 3)
        for second in (1.0, 1.0 - 1e-8):
            gains = np.array([[1.0, 0.3], [1.0, second], [1.0, -0.3j]])
            sys = assemble_effective(BlockFadingChannel(gains, cfg.sym_len), w, cfg)
            with pytest.raises(SingularMatrixError, match="symbol 1 of 3"):
                sys.factor(0.0)

    @pytest.mark.parametrize("offset, refused", [(1e-4, False), (1e-7, True)])
    def test_refusal_by_estimated_condition(self, offset, refused):
        # ZF solves H_n H_n^H, so cond(H_n) > 1e6 puts rcond(H_n H_n^H) below
        # 1e-12: cond(H_1) ~ 2e4 passes, cond(H_1) ~ 2e7 is refused
        cfg = ModemConfig(M=4, N=2, cp_len=1)
        gains = np.array([[1.0, 0.3], [1.0, 1.0 - offset]])
        ch = BlockFadingChannel(gains, cfg.sym_len)
        sys = assemble_effective(ch, make_window("rectangular", 2), cfg)
        d = np.random.default_rng(72).normal(size=(4, 2)) + 0j
        if refused:
            with pytest.raises(SingularMatrixError, match="symbol 1 of 2 .* rcond"):
                sys.factor(0.0)
        else:
            h = dense_effective(ch, make_window("rectangular", 2), cfg)
            zf = sys.factor(0.0).detect(d)
            np.testing.assert_allclose(zf, dense_zf(h, vec(d), cfg), rtol=1e-6)


class TestMmseDetect:
    def test_matches_zf_in_vanishing_noise(self):
        rng = np.random.default_rng(65)
        cfg = ModemConfig(M=8, N=4, cp_len=3)
        ch = random_ltv_channel(rng, n_taps=2, max_delay=2, max_doppler=0.01)
        sys = assemble_effective(ch, make_window("rectangular", 4), cfg)
        d = unvec(rng.normal(size=32) + 1j * rng.normal(size=32), 8, 4)
        diff = np.max(np.abs(sys.factor(1e-12).detect(d) - sys.factor(0.0).detect(d)))
        assert diff <= 1e-6

    def test_mmse_beats_zf_in_noise(self):
        rng = np.random.default_rng(66)
        cfg = ModemConfig(M=4, N=8, cp_len=2)
        w = make_window("rectangular", 8)
        for _ in range(50):
            ch = random_ltv_channel(rng, n_taps=3, max_delay=2, max_doppler=0.02)
            sys = assemble_effective(ch, w, cfg)
            h_dense = dense_effective(ch, w, cfg)
            mmse, zf = sys.factor(0.5), sys.factor(0.0)
            mse_mmse = mse_zf = 0.0
            for _ in range(100):
                bits = rng.integers(0, 2, size=cfg.M * cfg.N * 2)  # 4-QAM
                d = qam_map(bits, 4)
                noise = np.sqrt(0.25) * (
                    rng.normal(size=32) + 1j * rng.normal(size=32)
                )
                d_tilde = unvec(h_dense @ d + noise, 4, 8)
                mse_mmse += np.mean(np.abs(vec(mmse.detect(d_tilde)) - d) ** 2)
                mse_zf += np.mean(np.abs(vec(zf.detect(d_tilde)) - d) ** 2)
            assert mse_mmse <= mse_zf

    def test_rejects_bad_covariance(self):
        # without noise, a symbol in a complete fade leaves
        # H_n H_n^H + noise_var I = 0, which is not positive definite and is
        # refused by name; any noise makes it definite
        cfg = ModemConfig(M=4, N=3, cp_len=1)
        gains = np.array([[1.0, 0.3], [0.0, 0.0], [1.0, -0.3j]])
        ch = BlockFadingChannel(gains=gains, sym_len=cfg.sym_len)
        sys = assemble_effective(ch, make_window("rectangular", 3), cfg)
        with pytest.raises(SingularMatrixError, match="symbol 1 of 3 .* not positive definite"):
            sys.factor(0.0)
        assert np.isfinite(sys.factor(0.1).detect(np.ones((4, 3)))).all()

    @pytest.mark.parametrize("noise_var", [-1e-3, -1.0, np.nan, np.inf])
    def test_bad_noise_var_named(self, noise_var, monkeypatch):
        # refused before any factor is built: a small negative level would
        # otherwise pass the Cholesky, and NaN read as a singular symbol
        cfg = ModemConfig(M=4, N=4, cp_len=1)
        sys = assemble_effective(identity_channel(), make_window("rectangular", 4), cfg)
        monkeypatch.setattr(detect, "_factorize", lambda *args: pytest.fail("factored"))
        message = f"noise_var must be finite and non-negative, got {noise_var}"
        with pytest.raises(ValueError, match=message):
            sys.factor(noise_var)


#: the noise levels of both detectors
DETECTORS = [pytest.param(0.0, id="zf_detect"), pytest.param(0.1, id="mmse_detect")]


class TestNonFiniteInput:
    @pytest.mark.parametrize("noise_var", DETECTORS)
    def test_nan_received_grid_rejected(self, noise_var):
        cfg = ModemConfig(M=4, N=4, cp_len=1)
        sys = assemble_effective(identity_channel(), make_window("rectangular", 4), cfg)
        d = np.ones((4, 4), dtype=complex)
        d[1, 2] = np.nan
        with pytest.raises(ValueError, match="d_tilde must be finite"):
            sys.factor(noise_var).detect(d)

    @pytest.mark.parametrize("noise_var", DETECTORS)
    def test_nan_channel_gain_rejected(self, noise_var):
        # refused when the system is built, before either detector is factored
        cfg = ModemConfig(M=4, N=4, cp_len=1)
        gains = np.ones((4, 2), dtype=complex)
        gains[2, 1] = np.nan
        ch = BlockFadingChannel(gains=gains, sym_len=cfg.sym_len)
        with pytest.raises(ValueError, match="non-finite"):
            assemble_effective(ch, make_window("rectangular", 4), cfg).factor(noise_var)


class TestGridShape:
    @pytest.mark.parametrize("noise_var", DETECTORS)
    def test_vector_input_refused(self, noise_var):
        # the detectors take (..., M, N) grids only; a column-stacked grid is refused
        cfg = ModemConfig(M=4, N=4, cp_len=1)
        sys = assemble_effective(identity_channel(), make_window("rectangular", 4), cfg)
        message = "d_tilde must be of shape (..., 4, 4), got a (16,) complex128 array"
        with pytest.raises(ValueError, match=re.escape(message)):
            sys.factor(noise_var).detect(np.ones(16))

    @pytest.mark.parametrize("noise_var", DETECTORS)
    def test_empty_batch_gives_empty_result(self, noise_var):
        cfg = ModemConfig(M=4, N=4, cp_len=1)
        sys = assemble_effective(identity_channel(), make_window("rectangular", 4), cfg)
        assert sys.factor(noise_var).detect(np.ones((0, 4, 4))).shape == (0, 4, 4)


class TestFastBlockSolve:
    """The 2-D FFT block-fading solve, kept as a test oracle, against per-symbol ZF."""

    def test_matches_dense_zf(self):
        rng = np.random.default_rng(67)
        cfg = ModemConfig(M=16, N=8, cp_len=4)
        w = make_window("rectangular", 8)
        for _ in range(5):
            ch = random_block_fading_channel(rng, cfg, length=4)
            sys = assemble_effective(ch, w, cfg)
            d = rng.normal(size=128) + 1j * rng.normal(size=128)
            expected = dense_zf(dense_effective(ch, w, cfg), d, cfg)
            np.testing.assert_allclose(fft2_block_fading_solve(d, ch, w, cfg), expected, atol=1e-9)
            np.testing.assert_allclose(sys.factor(0.0).detect(unvec(d, 16, 8)), expected, atol=1e-9)

    def test_identity_solve(self):
        cfg = ModemConfig(M=4, N=4, cp_len=1)
        w = make_window("rectangular", 4)
        rng = np.random.default_rng(68)
        d = rng.normal(size=16) + 1j * rng.normal(size=16)
        np.testing.assert_allclose(
            vec(fft2_block_fading_solve(d, identity_channel(), w, cfg)), d, atol=1e-12
        )

    def test_rejects_within_symbol_variation(self):
        # the 2-D FFT solve needs block fading; the per-symbol solve does not
        rng = np.random.default_rng(71)
        cfg = ModemConfig(M=8, N=4, cp_len=3)
        ch = LtvChannel((ChannelTap(delay=0, gain=1.0, doppler=0.03),))
        w = make_window("rectangular", 4)
        d = rng.normal(size=32) + 1j * rng.normal(size=32)
        with pytest.raises(ValueError, match="not block fading"):
            fft2_block_fading_solve(d, ch, w, cfg)
        np.testing.assert_allclose(
            assemble_effective(ch, w, cfg).factor(0.0).detect(unvec(d, 8, 4)),
            dense_zf(dense_effective(ch, w, cfg), d, cfg),
            atol=1e-10,
        )

    def test_works_without_dense_matrix(self):
        # the per-symbol system holds O(N M^2) numbers, never an MN x MN matrix
        rng = np.random.default_rng(69)
        cfg = ModemConfig(M=16, N=8, cp_len=4)
        ch = random_block_fading_channel(rng, cfg, length=3)
        w = make_window("rectangular", 8)
        sys = assemble_effective(ch, w, cfg)
        zf = sys.factor(0.0)
        d = rng.normal(size=128) + 1j * rng.normal(size=128)
        np.testing.assert_allclose(
            zf.detect(unvec(d, 16, 8)), fft2_block_fading_solve(d, ch, w, cfg), atol=1e-9
        )
        assert max(a.size for a in held_arrays(sys, zf)) <= cfg.N * cfg.M**2


@st.composite
def per_symbol_cases(draw):
    """A random geometry, window, and well-conditioned channel.

    Sizes include non-powers of two; a unit line-of-sight tap outweighs
    the others together, so every block is well conditioned and a 1e-10
    agreement reflects the algebra, not the conditioning.
    """
    m = draw(st.integers(2, 9))
    n = draw(st.integers(2, 6))
    cp_len = draw(st.integers(0, m - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.sampled_from(WINDOW_KINDS)) == "rectangular":
        window = make_window("rectangular", n)
    else:
        window = make_window("time-tapered", n, rho=draw(st.floats(0.1, 1.0)))
    length = draw(st.integers(1, cp_len + 1))
    spread = 0.4 / max(length - 1, 1)
    if draw(st.booleans()):
        taps = [ChannelTap(delay=0, gain=1.0, doppler=float(rng.uniform(-0.02, 0.02)))]
        taps += [
            ChannelTap(
                delay=d,
                gain=complex(spread * np.exp(2j * np.pi * rng.uniform())),
                doppler=float(rng.uniform(-0.02, 0.02)),
            )
            for d in range(1, length)
        ]
        ch = LtvChannel(tuple(taps))
    else:
        gains = spread * np.exp(2j * np.pi * rng.uniform(size=(n, length)))
        gains[:, 0] = np.exp(2j * np.pi * rng.uniform(size=n))
        ch = BlockFadingChannel(gains=gains, sym_len=m + cp_len)
    noise_var = draw(st.floats(0.01, 1.0))
    cfg = ModemConfig(M=m, N=n, cp_len=cp_len)
    d = rng.normal(size=m * n) + 1j * rng.normal(size=m * n)
    return ch, window, cfg, noise_var, d


class TestPerSymbolMatchesDense:
    @settings(max_examples=60, deadline=None)
    @given(per_symbol_cases())
    def test_zf_and_mmse_equal_dense_oracle(self, case):
        ch, window, cfg, noise_var, d = case
        sys = assemble_effective(ch, window, cfg)
        h_dense = dense_effective(ch, window, cfg)
        cov = kron_noise_covariance(window, cfg, noise_var)
        grid = unvec(d, cfg.M, cfg.N)
        zf = sys.factor(0.0).detect(grid)
        np.testing.assert_allclose(zf, dense_zf(h_dense, d, cfg), atol=1e-10)
        np.testing.assert_allclose(
            sys.factor(noise_var).detect(grid), dense_mmse(h_dense, cov, d, cfg), atol=1e-10
        )


#: (M, Mcp) -> K, the number of row blocks of a channel of length Mcp + 1:
#: one block (M < 8, or M < 2L), two, and three or more, at odd and prime M,
#: and more blocks than rows in a block (M = 89 and 256), where the padding
#: is shorter than a block only if K is derived from B
BANDED_GEOMETRIES = {
    (5, 4): 1, (7, 2): 1, (13, 12): 1, (17, 3): 2, (29, 4): 3, (37, 4): 4, (40, 6): 3,
    (89, 4): 10, (256, 5): 24,
}


@st.composite
def banded_cases(draw):
    """A geometry of BANDED_GEOMETRIES, a window of either kind, a
    well-conditioned channel of length Mcp + 1 whose every lag, or a drawn
    subset of them, carries a tap, and a noise level that may be 0."""
    (m, cp_len), n = draw(st.sampled_from(sorted(BANDED_GEOMETRIES))), draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    window = make_window(draw(st.sampled_from(WINDOW_KINDS)), n, rho=draw(st.floats(0.1, 1.0)))
    delays = np.arange(cp_len + 1)
    if not draw(st.booleans()):
        delays = delays[(rng.uniform(size=delays.size) < 0.5) | (delays % cp_len == 0)]
    # a unit line-of-sight tap outweighs the others together
    spread = 0.4 / max(delays.size - 1, 1)
    gains = np.zeros((n, cp_len + 1), dtype=complex)
    gains[:, delays] = spread * np.exp(2j * np.pi * rng.uniform(size=(n, delays.size)))
    gains[:, 0] = np.exp(2j * np.pi * rng.uniform(size=n))
    if draw(st.booleans()):
        ch = BlockFadingChannel(gains=gains, sym_len=m + cp_len)
    else:
        ch = LtvChannel(tuple(
            ChannelTap(int(d), complex(gains[0, d]), doppler=float(rng.uniform(-0.02, 0.02)))
            for d in delays
        ))
    noise_var = draw(st.sampled_from([0.0, 0.05, 0.7]))
    cfg = ModemConfig(M=m, N=n, cp_len=cp_len)
    return ch, window, cfg, noise_var, rng.normal(size=m * n) + 1j * rng.normal(size=m * n)


def check_dense_oracle(ch, window, cfg, noise_var, rng):
    """ZF, and MMSE at noise_var, of the system of `ch` on a grid drawn from `rng`
    equal the dense MN x MN oracle's within 1e-9; returns the ZF factors."""
    sys, h_dense = assemble_effective(ch, window, cfg), dense_effective(ch, window, cfg)
    d = rng.normal(size=cfg.M * cfg.N) + 1j * rng.normal(size=cfg.M * cfg.N)
    zf, grid = sys.factor(0.0), unvec(d, cfg.M, cfg.N)
    np.testing.assert_allclose(zf.detect(grid), dense_zf(h_dense, d, cfg), rtol=0, atol=1e-9)
    cov = kron_noise_covariance(window, cfg, noise_var)
    np.testing.assert_allclose(
        sys.factor(noise_var).detect(grid), dense_mmse(h_dense, cov, d, cfg), rtol=0, atol=1e-9
    )
    return zf


def difference_rule_block_rows(delays, m):
    """B for the largest cyclic distance w of two delays: M split into the most
    blocks of at least max(2 w, 8) rows, as evenly as whole rows allow."""
    w = max(min((a - b) % m, (b - a) % m) for a in delays for b in delays)
    k_count = max(m // max(2 * w, 8), 1)
    return -(-m // k_count)


@st.composite
def sparse_tap_cases(draw):
    """2 to 4 LTV taps at distinct delays in [0, Mcp], Mcp up to M - 1 and M not
    only a power of two, with or without a tap at delay 0; one tap of unit gain
    outweighs the others together, so every H_n is well conditioned."""
    m, n = draw(st.integers(8, 64)), draw(st.integers(2, 3))
    cp_len, with_zero = draw(st.integers(2, m - 1)), draw(st.booleans())
    others = st.sets(st.integers(1, cp_len), min_size=2 - with_zero, max_size=4 - with_zero)
    delays = sorted(draw(others) | ({0} if with_zero else set()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gains = 0.4 / (len(delays) - 1) * np.exp(2j * np.pi * rng.uniform(size=len(delays)))
    gains[draw(st.integers(0, len(delays) - 1))] = 1.0
    taps = tuple(
        ChannelTap(d, complex(g), doppler=float(rng.uniform(-0.02, 0.02)))
        for d, g in zip(delays, gains)
    )
    window = make_window(draw(st.sampled_from(WINDOW_KINDS)), n, rho=draw(st.floats(0.1, 1.0)))
    noise_var = draw(st.sampled_from([0.05, 0.7]))
    return LtvChannel(taps), window, ModemConfig(M=m, N=n, cp_len=cp_len), noise_var, rng


class TestBandedMatchesDense:
    """The zig-zag banded solve against the dense MN x MN oracle."""

    @settings(max_examples=80, deadline=None)
    @given(banded_cases())
    def test_zf_and_mmse_equal_dense_oracle(self, case):
        ch, window, cfg, noise_var, d = case
        sys = assemble_effective(ch, window, cfg)
        h_dense = dense_effective(ch, window, cfg)
        cov = kron_noise_covariance(window, cfg, noise_var)
        grid = unvec(d, cfg.M, cfg.N)
        zf = sys.factor(0.0).detect(grid)
        np.testing.assert_allclose(zf, dense_zf(h_dense, d, cfg), atol=1e-9)
        np.testing.assert_allclose(
            sys.factor(noise_var).detect(grid), dense_mmse(h_dense, cov, d, cfg), atol=1e-9
        )

    @settings(max_examples=40, deadline=None)
    @given(banded_cases())
    def test_bands_hold_the_channel_matrices(self, case):
        # the stored tap gains are the dense H_n, entry for entry
        ch, window, cfg, _, _ = case
        sys = assemble_effective(ch, window, cfg)
        np.testing.assert_array_equal(system_blocks(sys), channel_blocks(ch, cfg))

    @settings(max_examples=40, deadline=None)
    @given(banded_cases(), st.sampled_from([0.0, 0.3]))
    def test_factor_rebuilds_the_banded_normal_matrix(self, case, noise_var):
        # the block-lower L of the factors, rebuilt from inv and low, gives
        # L L^H = H_n H_n^H + noise_var I, row i at the recorded row pos[i],
        # padded with (1 + noise_var) I, for the dense H_n of the channel oracle
        ch, window, cfg, _, _ = case
        factors = assemble_effective(ch, window, cfg).factor(noise_var)
        n, k_count, b, _ = factors.inv.shape
        chol = np.zeros((n, k_count * b, k_count * b), dtype=complex)
        for k in range(k_count):
            chol[:, k * b : (k + 1) * b, k * b : (k + 1) * b] = np.linalg.inv(factors.inv[:, k])
            if k:
                chol[:, k * b : (k + 1) * b, (k - 1) * b : k * b] = factors.low[:, k - 1]
        h, pos = channel_blocks(ch, cfg), factors.pos
        expected = np.repeat((1 + noise_var) * np.eye(k_count * b, dtype=complex)[None], n, 0)
        expected[:, pos[:, None], pos] = h @ h.conj().swapaxes(1, 2) + noise_var * np.eye(cfg.M)
        np.testing.assert_allclose(chol @ chol.conj().swapaxes(1, 2), expected, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("geometry", sorted(BANDED_GEOMETRIES), ids=lambda g: "M%d-Mcp%d" % g)
    def test_block_counts(self, geometry):
        m, cp_len = geometry
        cfg = ModemConfig(M=m, N=2, cp_len=cp_len)
        ch = LtvChannel((ChannelTap(0, 1.0), ChannelTap(cp_len, 0.5)))
        sys = assemble_effective(ch, make_window("rectangular", 2), cfg)
        assert sys.factor(1.0).inv.shape[1] == BANDED_GEOMETRIES[geometry]
        np.testing.assert_array_equal(system_blocks(sys), channel_blocks(ch, cfg))

    @pytest.mark.parametrize("window_kind", WINDOW_KINDS)
    def test_block_size_from_the_largest_delay(self, window_kind):
        # a block-fading channel of Mcp + 1 = 17 gain columns whose columns past
        # delay 2 are all zero: B comes from its sampled delays, at most 2 apart,
        # so 8 blocks of the floor of 8 rows, where 17 columns would give 2 of 32
        rng = np.random.default_rng(74)
        cfg = ModemConfig(M=64, N=3, cp_len=16)
        gains = np.zeros((3, 17), dtype=complex)
        gains[:, :3] = 0.2 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        gains[:, 0] += 1.0
        ch = BlockFadingChannel(gains, cfg.sym_len)
        zf = check_dense_oracle(ch, make_window(window_kind, 3), cfg, 0.1, rng)
        np.testing.assert_array_equal(zf.system.delays, [0, 1, 2])
        assert zf.inv.shape[1] == 8

    @pytest.mark.parametrize("window_kind", WINDOW_KINDS)
    def test_large_blocks_equal_dense_oracle(self, window_kind):
        # taps at delays 0 and 40 of M = 160 give two blocks of 80 rows, large
        # enough that each triangular inverse recurses by halves
        rng = np.random.default_rng(75)
        cfg = ModemConfig(M=160, N=2, cp_len=40)
        ch = LtvChannel((ChannelTap(0, 1.0, doppler=0.003), ChannelTap(40, 0.5j, doppler=-0.002)))
        zf = check_dense_oracle(ch, make_window(window_kind, 2), cfg, 0.2, rng)
        assert zf.inv.shape == (2, 2, 80, 80)

    @pytest.mark.parametrize("window_kind", WINDOW_KINDS)
    @pytest.mark.parametrize("m, cp_len, delays, k_count", [
        pytest.param(256, 64, (40, 44), 32, id="offset-taps"),
        pytest.param(64, 63, (0, 61), 8, id="conjugate-delays"),
    ])
    def test_blocks_sized_from_delay_differences(self, m, cp_len, delays, k_count, window_kind):
        # A_n couples rows only at delay differences: taps at 40 and 44 are 4
        # apart, and delays 0 and 61 of M = 64 (those of H_n^H for taps at 0
        # and 3) are 3 apart cyclically, so both take blocks of 8 rows, where
        # the largest delay would give 2 blocks and 1
        rng = np.random.default_rng(76)
        cfg = ModemConfig(M=m, N=2, cp_len=cp_len)
        ch = LtvChannel((
            ChannelTap(delays[0], 1.0, doppler=0.003), ChannelTap(delays[1], 0.5j, doppler=-0.002)
        ))
        zf = check_dense_oracle(ch, make_window(window_kind, 2), cfg, 0.2, rng)
        assert zf.inv.shape == (2, k_count, 8, 8)

    @pytest.mark.parametrize("window_kind", WINDOW_KINDS)
    def test_trailing_zero_gain_column_accepted(self, window_kind):
        # Mcp + 2 gain columns, the last all zero: the sampled delays reach Mcp
        # alone, so the per-symbol model is exact and the channel is accepted
        rng = np.random.default_rng(77)
        cfg = ModemConfig(M=16, N=3, cp_len=4)
        gains = np.zeros((3, 6), dtype=complex)
        gains[:, :5] = 0.1 * (rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5)))
        gains[:, 0] += 1.0
        ch = BlockFadingChannel(gains, cfg.sym_len)
        zf = check_dense_oracle(ch, make_window(window_kind, 3), cfg, 0.1, rng)
        np.testing.assert_array_equal(zf.system.delays, [0, 1, 2, 3, 4])

    @settings(max_examples=40, deadline=None)
    @given(sparse_tap_cases())
    def test_sparse_taps_follow_the_difference_rule(self, case):
        ch, window, cfg, noise_var, rng = case
        zf = check_dense_oracle(ch, window, cfg, noise_var, rng)
        assert zf.inv.shape[-1] == difference_rule_block_rows(zf.system.delays, cfg.M)

    def test_chunked_factorization(self):
        # with one 400-row block per symbol, symbols are factored three at a
        # time: the second chunk solves as the first, and a complete fade in
        # it is named by its own index
        rng = np.random.default_rng(73)
        cfg = ModemConfig(M=400, N=4, cp_len=181)
        gains = 0.01 * (rng.normal(size=(4, 182)) + 1j * rng.normal(size=(4, 182)))
        gains[:, 0] += 3.0
        window = make_window("rectangular", 4)
        ch = BlockFadingChannel(gains, cfg.sym_len)
        zf = assemble_effective(ch, window, cfg).factor(0.0)
        assert zf.inv.shape == (4, 1, 400, 400)
        y = rng.normal(size=(400, 4)) + 1j * rng.normal(size=(400, 4))
        s = zf.detect(np.fft.fft(y, axis=1, norm="ortho"))
        s = np.fft.ifft(s, axis=1, norm="ortho")
        for n, h in enumerate(channel_blocks(ch, cfg)):
            np.testing.assert_allclose(s[:, n], np.linalg.solve(h, y[:, n]), rtol=0, atol=1e-9)
        gains[3] = 0.0
        faded = assemble_effective(BlockFadingChannel(gains, cfg.sym_len), window, cfg)
        with pytest.raises(SingularMatrixError, match="symbol 3 of 4"):
            faded.factor(0.0)

    def test_default_channel_state_at_1024x32(self):
        # the default two-tap channel at 1024 x 32: the system's tap gains
        # hold under 2 MiB, and with its ZF factors under 32 MB; the dense
        # H_n alone would take 512 MiB
        run = RunConfig(M=1024, N=32)
        sys = assemble_effective(run.build_channel(), run.build_window(), run.modem_config())
        zf = sys.factor(0.0)
        zf.detect(np.ones((1024, 32)))
        assert sum(a.nbytes for a in held_arrays(sys)) < 2 * 2**20
        assert sum(a.nbytes for a in held_arrays(sys, zf)) < 32 * 2**20


@st.composite
def sampled_channel_cases(draw):
    """Any geometry, non-powers of two included, a channel no longer than
    cp_len + 1, LTV with Doppler and phase or block fading, and a generator."""
    m, n = draw(st.integers(2, 40)), draw(st.integers(2, 9))
    cfg = ModemConfig(M=m, N=n, cp_len=draw(st.integers(0, m - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    length = draw(st.integers(1, cfg.cp_len + 1))
    if draw(st.booleans()):
        return random_ltv_channel(rng, draw(st.integers(1, 4)), length - 1, 0.05), cfg, rng
    return random_block_fading_channel(rng, cfg, length), cfg, rng


class TestOneSampledChannel:
    """The simulator and the detector read one array, sampled once from the channel."""

    @settings(max_examples=60, deadline=None)
    @given(sampled_channel_cases())
    def test_system_is_the_channel_sampled_over_the_frame(self, case):
        ch, cfg, rng = case
        sys = assemble_effective(ch, make_window("rectangular", cfg.N), cfg)
        delays, taps = ch.coeffs(cfg.frame_len)
        np.testing.assert_array_equal(sys.delays, delays)
        np.testing.assert_array_equal(sys.taps, taps)
        # the detector's view of the kept samples, and those samples read alone
        kept = taps[cfg.symbols(np.arange(cfg.frame_len)).T.ravel()]
        np.testing.assert_array_equal(sys.gains, kept.reshape(cfg.N, cfg.M, -1))
        assert np.shares_memory(sys.gains, sys.taps)
        # the system hands out its taps, the first rows for a shorter size
        assert np.shares_memory(sys.coeffs(cfg.frame_len)[1], sys.taps)
        np.testing.assert_array_equal(sys.coeffs(cfg.sym_len)[1], taps[: cfg.sym_len])
        signal = rng.normal(size=(2, cfg.frame_len)) + 1j * rng.normal(size=(2, cfg.frame_len))
        np.testing.assert_array_equal(apply_channel(signal, sys), apply_channel(signal, ch))

    @pytest.mark.parametrize("detector", ["zf", "mmse"])
    def test_a_sweep_runs_the_system_it_is_given(self, monkeypatch, detector):
        # two SNR points of three trials in two chunks each: the channel is
        # sampled once, to build the system, and the rows are those of a
        # system built by the sweep itself
        cfg = RunConfig(M=16, N=4, cp_len=4, detector=detector, snr_db=(0.0, 10.0),
                        trials=3, seed=2)
        monkeypatch.setattr(cli, "CHUNK_SAMPLES", 2 * cfg.modem_config().frame_len)
        channel = CountingChannel(cfg.build_channel(), limit=1)
        system = assemble_effective(channel, cfg.build_window(), cfg.modem_config())
        assert run_simulation(cfg, system) == run_simulation(cfg)
        assert channel.calls == [cfg.modem_config().frame_len]

    def test_system_fields_are_plain_data(self):
        assert [f.name for f in fields(detect.EffectiveSystem)] == ["delays", "taps", "window", "cfg"]

    def test_detect_imports_grids_and_numerics_alone(self):
        # the channel objects build a system; the detector never reads them
        tree = ast.parse(Path(detect.__file__).read_text())
        imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert imported == {"__future__", "dataclasses", "grids", "numerics"}


class TestBatchMatchesFrames:
    @settings(max_examples=40, deadline=None)
    @given(per_symbol_cases(), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_pipeline_batch_equals_stacked_frames(self, case, trials, seed):
        # a batch of T frames through modulate, channel, demodulate, ZF and
        # MMSE equals the T single-frame runs; the filter products with T
        # columns may round differently from T one-column products
        ch, window, cfg, noise_var, _ = case
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(trials, cfg.M, cfg.N)) + 1j * rng.normal(size=(trials, cfg.M, cfg.N))
        sys = assemble_effective(ch, window, cfg)
        zf, mmse = sys.factor(0.0), sys.factor(noise_var)

        def pipeline(grids):
            received = demodulate_fast(apply_channel(modulate_fast(grids, cfg), ch), window, cfg)
            return received, zf.detect(received), mmse.detect(received)

        frames = [pipeline(grid) for grid in x]
        for stage, batch in enumerate(pipeline(x)):
            expected = np.stack([frame[stage] for frame in frames])
            np.testing.assert_allclose(batch, expected, rtol=0, atol=1e-12)


class TestWindowIndependence:
    """With linear detection an invertible receive window changes the
    delay-Doppler response but not the detected bits."""

    @pytest.mark.parametrize("detector", ["zf", "mmse"])
    @pytest.mark.parametrize(
        "geometry",
        [dict(M=64, N=8, cp_len=16, qam_order=4), dict(M=32, N=16, cp_len=8, qam_order=16)],
        ids=["64x8-qam4", "32x16-qam16"],
    )
    def test_ber_rows_equal_across_windows(self, geometry, detector):
        snr_db = tuple(float(s) for s in range(0, 21, 2))
        rows = [
            run_simulation(
                RunConfig(**geometry, window_kind=kind, detector=detector,
                          snr_db=snr_db, trials=20, seed=3)
            )
            for kind in WINDOW_KINDS
        ]
        assert rows[0] == rows[1]
        assert sum(row["bit_errors"] for row in rows[0]) > 0


class TestTransmitWindowCost:
    """The abstract argues against a window at the transmitter. A transmit
    window w_t scales symbol n's signal but not its noise, so under ZF the
    error variance of delay-Doppler bin k becomes
    (noise_var / N) sum_n c_{n,k} / |w_t[n]|^2, c_{n,k} = [(H_n^H H_n)^-1]_kk.
    Without Doppler, c does not depend on n, and the error power is
    mean(1 / |w_t|^2) times the rectangular window's: at least 1 when
    sum |w_t|^2 = N, and 1.42 for the taper at N = 8, rho = 0.25."""

    TRIALS = 40
    SIGMAS = 4

    def test_factor_of_the_taper_at_n8(self):
        wt = make_window("time-tapered", 8, rho=0.25)
        assert np.mean(1 / wt**2) == pytest.approx(1.42, abs=0.005)

    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(
        m=st.sampled_from([8, 16, 32]),
        n=st.sampled_from([4, 8, 16]),
        rho=st.floats(0.25, 1.0),
        taps=st.lists(
            st.tuples(st.integers(1, 2), st.complex_numbers(max_magnitude=0.3)), max_size=2
        ),
        seed=st.integers(0, 2**16),
    )
    @example(m=16, n=8, rho=0.25, taps=[(2, 0.3j)], seed=1)
    def test_zf_error_power_grows_by_the_mean_inverse_window_power(self, m, n, rho, taps, seed):
        cfg = ModemConfig(M=m, N=n, cp_len=m // 4)
        # a dominant delay-0 tap keeps every H_n well conditioned; no tap has Doppler
        channel = LtvChannel((ChannelTap(0, 1.0), *(ChannelTap(d, g) for d, g in taps)))
        rectangular = make_window("rectangular", n)
        wt = make_window("time-tapered", n, rho=rho)
        system = assemble_effective(channel, rectangular, cfg)
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=self.TRIALS * m * n * 2)
        x = qam_map(bits, 4).reshape(self.TRIALS, n, m).swapaxes(1, 2)
        noise_seeds = np.random.SeedSequence(seed).spawn(self.TRIALS)
        powers = []
        for window in (rectangular, wt):
            frames = modulate_fast(x, cfg)
            cfg.symbols(frames)[...] *= window
            cfg.insert_cp(frames)
            # both windows see the same noise, so their error powers are paired
            y = add_awgn(apply_channel(frames, channel), 0.1, noise_seeds)
            told = replace(system, taps=system.taps * np.repeat(window, cfg.sym_len)[:, None])
            error = told.factor(0.0).detect(demodulate_fast(y, rectangular, cfg)) - x
            powers.append(np.sum(np.abs(error) ** 2, axis=(1, 2)))
        flat, tapered = powers
        ratio = tapered.mean() / flat.mean()
        # delta-method standard error of a ratio of means over paired trials
        sigma = np.std(tapered - ratio * flat, ddof=1) / (np.sqrt(self.TRIALS) * flat.mean())
        predicted = np.mean(1 / np.abs(wt) ** 2)
        assert abs(ratio - predicted) <= self.SIGMAS * sigma, (ratio, predicted, sigma)


class TestFactors:
    """The factors of one noise level are a frozen record that the caller keeps."""

    @pytest.mark.parametrize(
        "detector, noise_levels, snr_db",
        [("zf", 1, (0.0, 5.0, 10.0)), ("mmse", 3, (0.0, 5.0, 10.0)), ("mmse", 2, (0.0, 0.0, 10.0))],
        ids=["zf-1", "mmse-3", "mmse-2"],
    )
    def test_a_sweep_factors_once_per_noise_level(self, monkeypatch, detector, noise_levels,
                                                  snr_db):
        # three SNR points, each of three trials in two chunks: ZF factors
        # once for the sweep, MMSE once for each change of noise level
        factorize, noise_vars = detect._factorize, []

        def counted(system, noise_var):
            noise_vars.append(noise_var)
            return factorize(system, noise_var)

        cfg = RunConfig(M=16, N=4, cp_len=4, detector=detector, snr_db=snr_db, trials=3, seed=1)
        monkeypatch.setattr(detect, "_factorize", counted)
        monkeypatch.setattr(cli, "CHUNK_SAMPLES", 2 * cfg.modem_config().frame_len)
        modulate_fast, chunks = cli.modulate_fast, []

        def modulate(x, mcfg):
            chunks.append(len(x))
            return modulate_fast(x, mcfg)

        monkeypatch.setattr(cli, "modulate_fast", modulate)
        run_simulation(cfg)
        assert chunks == [2, 1] * 3
        levels = dict.fromkeys(snr_db)  # a level repeated back to back is factored once
        expected = [cli._noise_var(s) for s in levels] if detector == "mmse" else [0.0]
        assert noise_vars == expected and len(noise_vars) == noise_levels

    @pytest.mark.parametrize("detector", ["zf", "mmse"])
    def test_a_sweep_detects_through_the_module_level_solve(self, monkeypatch, detector):
        # perfbench/traced.py times detection by rebinding detect.fast_block_solve,
        # keyed on the record in its second argument
        solve, records, frames = detect.fast_block_solve, [], []

        def recorded(d_tilde, factors):
            records.append(factors)
            frames.append(len(d_tilde))
            return solve(d_tilde, factors)

        cfg = RunConfig(M=16, N=4, cp_len=4, detector=detector, snr_db=(0.0, 5.0, 10.0),
                        trials=3, seed=1)
        expected = run_simulation(cfg)
        monkeypatch.setattr(detect, "fast_block_solve", recorded)
        assert run_simulation(cfg) == expected
        assert sum(frames) == 9 and all(type(r) is Factors for r in records)
        assert len({id(r) for r in records}) == (3 if detector == "mmse" else 1)

    def test_detection_reads_the_recorded_order(self, monkeypatch):
        # the order is decided once, when the record is made
        rng = np.random.default_rng(76)
        cfg = ModemConfig(M=40, N=3, cp_len=6)
        ch = random_ltv_channel(rng, n_taps=3, max_delay=6, max_doppler=0.02)
        factors = assemble_effective(ch, tapered_window(3), cfg).factor(0.3)
        d = rng.normal(size=(2, 40, 3)) + 1j * rng.normal(size=(2, 40, 3))
        expected = factors.detect(d)
        monkeypatch.setattr(detect, "_order", lambda *args: pytest.fail("order recomputed"))
        np.testing.assert_array_equal(factors.detect(d), expected)

    def test_records_are_frozen(self):
        cfg = ModemConfig(M=4, N=4, cp_len=1)
        sys = assemble_effective(identity_channel(), make_window("rectangular", 4), cfg)
        for record in (sys, sys.factor(0.0)):
            for name in (f.name for f in fields(record)):
                with pytest.raises(FrozenInstanceError):
                    setattr(record, name, None)

    def test_records_of_one_system_shared_across_threads(self):
        # two threads detect on their own records of one system, switching
        # every microsecond, and get the bits of one thread
        rng = np.random.default_rng(74)
        cfg = ModemConfig(M=32, N=8, cp_len=4)
        ch = random_ltv_channel(rng, n_taps=3, max_delay=4, max_doppler=0.02)
        sys = assemble_effective(ch, tapered_window(8), cfg)
        d = rng.normal(size=(3, 32, 8)) + 1j * rng.normal(size=(3, 32, 8))
        expected = {noise_var: sys.factor(noise_var).detect(d) for noise_var in (0.0, 0.5)}
        outputs = {}

        def run(noise_var):
            factors = sys.factor(noise_var)
            outputs[noise_var] = [factors.detect(d) for _ in range(50)]

        threads = [threading.Thread(target=run, args=(noise_var,)) for noise_var in expected]
        interval = getswitchinterval()
        setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            setswitchinterval(interval)
        for noise_var, detected in expected.items():
            assert len(outputs[noise_var]) == 50
            for output in outputs[noise_var]:
                np.testing.assert_array_equal(output, detected)

    def test_rcond_of_the_identity_channel_is_one(self):
        cfg = ModemConfig(M=8, N=4, cp_len=1)
        sys = assemble_effective(identity_channel(), make_window("rectangular", 4), cfg)
        rcond = sys.factor(0.0).rcond
        assert rcond.shape == (4,)
        np.testing.assert_allclose(rcond, 1.0, rtol=0, atol=1e-12)

    def test_rcond_reads_a_near_singular_symbol(self):
        # symbol 1 nears the spectral null of test_singular_system_reported,
        # cond(A_1) ~ 4e6; two inverse-iteration steps find its smallest
        # singular value, so the estimate is 1 / (|A_1|_inf |A_1^-1|_2)
        cfg = ModemConfig(M=4, N=2, cp_len=1)
        ch = BlockFadingChannel(np.array([[1.0, 0.3], [1.0, 0.999]]), cfg.sym_len)
        rcond = assemble_effective(ch, make_window("rectangular", 2), cfg).factor(0.0).rcond
        h = channel_blocks(ch, cfg)[1]
        a = h @ h.conj().T
        exact = 1 / (np.abs(a).sum(axis=1).max() * np.linalg.norm(np.linalg.inv(a), 2))
        np.testing.assert_allclose(rcond[1], exact, rtol=1e-6)
        assert rcond[1] < 1e-6 < rcond[0]

    @settings(max_examples=40, deadline=None)
    @given(banded_cases())
    def test_rcond_estimate_is_within_the_row_sum_bound(self, case):
        # the estimate is |A_n|_inf |A_n^-1 u| / |u| <= sqrt(M) cond_2(A_n),
        # for any start vector u; 1e-9 of slack is for rounding only
        ch, window, cfg, noise_var, _ = case
        factors = assemble_effective(ch, window, cfg).factor(noise_var)
        assert isinstance(factors, Factors) and factors.noise_var == noise_var
        h = channel_blocks(ch, cfg)
        a = h @ h.conj().swapaxes(1, 2) + noise_var * np.eye(cfg.M)
        bound = np.sqrt(cfg.M) * np.linalg.cond(a)
        assert np.all(1 / factors.rcond <= bound * (1 + 1e-9)), (1 / factors.rcond, bound)


class TestCounting:
    def test_a_scope_sees_every_transform_of_a_sweep(self):
        # two 64 x 8 frames: a frame's N-point row transforms cost 768 CMs and
        # its window 256; the detector undoes the window and transforms rows twice
        with CmCounter() as counter:
            run_simulation(RunConfig(snr_db=(10.0,), trials=2))
        expected = {"mod_rows": 1536, "window": 1024, "demod_rows": 1536, "detect_rows": 3072}
        assert counter.breakdown() == expected


class TestDemap:
    def test_demap_detected_grid(self):
        # detector output grids demap back to the transmitted bits noise-free
        rng = np.random.default_rng(70)
        bits = rng.integers(0, 2, size=4 * 4 * 2)
        grid = qam_map(bits, 4).reshape(4, 4, order="F")
        np.testing.assert_array_equal(qam_demap(grid.reshape(-1, order="F"), 4), bits)
