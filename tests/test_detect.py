"""Tests for the per-symbol system, its noise statistics, and the linear detectors."""

import re
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    bands_to_blocks,
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
    unvec,
    vec,
)

from otfsim.channel import (
    BlockFadingChannel,
    ChannelTap,
    LtvChannel,
    apply_channel,
)
from otfsim.cli import RunConfig, run_simulation
from otfsim.detect import (
    BerStat,
    assemble_effective,
    bit_error_rate,
    mmse_detect,
    zf_detect,
)
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
from otfsim.numerics import SingularMatrixError


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


def held_arrays(sys):
    """The arrays an EffectiveSystem holds, its cached factors included."""
    values = list(vars(sys).values())
    values += [v for value in values if isinstance(value, tuple) for v in value]
    return [v for v in values if isinstance(v, np.ndarray)]


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
        np.testing.assert_array_equal(bands_to_blocks(sys), np.eye(4)[None].repeat(4, 0))

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
        np.testing.assert_allclose(zf_detect(d, sys), d, atol=1e-12)

    def test_refuses_channel_longer_than_cp(self):
        cfg = ModemConfig(M=16, N=4, cp_len=2)
        ch = LtvChannel((ChannelTap(delay=0, gain=1.0), ChannelTap(delay=6, gain=0.5)))
        with pytest.raises(ValueError, match=r"channel length 7 exceeds Mcp \+ 1 = 3"):
            assemble_effective(ch, make_window("rectangular", 4), cfg)

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
        np.testing.assert_allclose(vec(zf_detect(unvec(d, 4, 4), sys)), d, atol=1e-12)

    def test_noise_free_recovery_over_ltv_channel(self):
        cfg = ModemConfig(M=16, N=8, cp_len=4, qam_order=4)
        ch = LtvChannel(
            (
                ChannelTap(delay=0, gain=0.8, doppler=0.004, phase=0.1),
                ChannelTap(delay=3, gain=0.5j, doppler=-0.008, phase=1.2),
            )
        )
        w = make_window("rectangular", 8)
        rng = np.random.default_rng(63)
        bits = rng.integers(0, 2, size=cfg.bits_per_frame)
        x = qam_map(bits, 4).reshape(16, 8, order="F")
        d_tilde = demodulate_fast(apply_channel(modulate_fast(x, cfg), ch), w, cfg)
        sys = assemble_effective(ch, w, cfg)
        np.testing.assert_allclose(zf_detect(d_tilde, sys), x, atol=1e-8)

    def test_round_trip_random_system(self):
        rng = np.random.default_rng(64)
        cfg = ModemConfig(M=8, N=4, cp_len=3)
        w = tapered_window(4)
        for _ in range(5):
            ch = random_ltv_channel(rng, n_taps=3, max_delay=3, max_doppler=0.02)
            sys = assemble_effective(ch, w, cfg)
            d = rng.normal(size=32) + 1j * rng.normal(size=32)
            np.testing.assert_allclose(
                vec(zf_detect(unvec(dense_effective(ch, w, cfg) @ d, 8, 4), sys)), d, atol=1e-8
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
                zf_detect(np.zeros((4, 3)), sys)

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
                zf_detect(d, sys)
        else:
            h = dense_effective(ch, make_window("rectangular", 2), cfg)
            np.testing.assert_allclose(zf_detect(d, sys), dense_zf(h, vec(d), cfg), rtol=1e-6)


class TestMmseDetect:
    def test_matches_zf_in_vanishing_noise(self):
        rng = np.random.default_rng(65)
        cfg = ModemConfig(M=8, N=4, cp_len=3)
        ch = random_ltv_channel(rng, n_taps=2, max_delay=2, max_doppler=0.01)
        sys = assemble_effective(ch, make_window("rectangular", 4), cfg)
        d = unvec(rng.normal(size=32) + 1j * rng.normal(size=32), 8, 4)
        diff = np.max(np.abs(mmse_detect(d, sys, 1e-12) - zf_detect(d, sys)))
        assert diff <= 1e-6

    def test_mmse_beats_zf_in_noise(self):
        rng = np.random.default_rng(66)
        cfg = ModemConfig(M=4, N=8, cp_len=2)
        w = make_window("rectangular", 8)
        for _ in range(50):
            ch = random_ltv_channel(rng, n_taps=3, max_delay=2, max_doppler=0.02)
            sys = assemble_effective(ch, w, cfg)
            h_dense = dense_effective(ch, w, cfg)
            mse_mmse = mse_zf = 0.0
            for _ in range(100):
                bits = rng.integers(0, 2, size=cfg.bits_per_frame)
                d = qam_map(bits, 4)
                noise = np.sqrt(0.25) * (
                    rng.normal(size=32) + 1j * rng.normal(size=32)
                )
                d_tilde = unvec(h_dense @ d + noise, 4, 8)
                mse_mmse += np.mean(np.abs(vec(mmse_detect(d_tilde, sys, 0.5)) - d) ** 2)
                mse_zf += np.mean(np.abs(vec(zf_detect(d_tilde, sys)) - d) ** 2)
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
            mmse_detect(np.zeros((4, 3)), sys, 0.0)
        assert np.isfinite(mmse_detect(np.ones((4, 3)), sys, 0.1)).all()

    @pytest.mark.parametrize("noise_var", [-1e-3, -1.0, np.nan, np.inf])
    def test_bad_noise_var_named(self, noise_var):
        # refused before any factor is built: a small negative level would
        # otherwise pass the Cholesky, and NaN read as a singular symbol
        cfg = ModemConfig(M=4, N=4, cp_len=1)
        sys = assemble_effective(identity_channel(), make_window("rectangular", 4), cfg)
        message = f"noise_var must be finite and non-negative, got {noise_var}"
        with pytest.raises(ValueError, match=message):
            mmse_detect(np.ones((4, 4)), sys, noise_var)
        assert sys._factor is None


#: both detectors, each called as detect(grid, system)
DETECTORS = [
    pytest.param(zf_detect, id="zf_detect"),
    pytest.param(partial(mmse_detect, noise_var=0.1), id="mmse_detect"),
]


class TestNonFiniteInput:
    @pytest.mark.parametrize("detect", DETECTORS)
    def test_nan_received_grid_rejected(self, detect):
        cfg = ModemConfig(M=4, N=4, cp_len=1)
        sys = assemble_effective(identity_channel(), make_window("rectangular", 4), cfg)
        d = np.ones((4, 4), dtype=complex)
        d[1, 2] = np.nan
        with pytest.raises(ValueError, match="d_tilde must be finite"):
            detect(d, sys)

    @pytest.mark.parametrize("detect", DETECTORS)
    def test_nan_channel_gain_rejected(self, detect):
        cfg = ModemConfig(M=4, N=4, cp_len=1)
        gains = np.ones((4, 2), dtype=complex)
        gains[2, 1] = np.nan
        ch = BlockFadingChannel(gains=gains, sym_len=cfg.sym_len)
        with pytest.raises(ValueError, match="non-finite"):
            detect(np.ones((4, 4)), assemble_effective(ch, make_window("rectangular", 4), cfg))


class TestGridShape:
    @pytest.mark.parametrize("detect", DETECTORS)
    def test_vector_input_refused(self, detect):
        # the detectors take (..., M, N) grids only; a column-stacked grid is refused
        cfg = ModemConfig(M=4, N=4, cp_len=1)
        sys = assemble_effective(identity_channel(), make_window("rectangular", 4), cfg)
        message = "d_tilde must be of shape (..., 4, 4), got a (16,) complex128 array"
        with pytest.raises(ValueError, match=re.escape(message)):
            detect(np.ones(16), sys)


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
            np.testing.assert_allclose(zf_detect(unvec(d, 16, 8), sys), expected, atol=1e-9)

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
            zf_detect(unvec(d, 8, 4), assemble_effective(ch, w, cfg)),
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
        d = rng.normal(size=128) + 1j * rng.normal(size=128)
        np.testing.assert_allclose(
            zf_detect(unvec(d, 16, 8), sys), fft2_block_fading_solve(d, ch, w, cfg), atol=1e-9
        )
        assert max(a.size for a in held_arrays(sys)) <= cfg.N * cfg.M**2


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
        np.testing.assert_allclose(zf_detect(grid, sys), dense_zf(h_dense, d, cfg), atol=1e-10)
        np.testing.assert_allclose(
            mmse_detect(grid, sys, noise_var), dense_mmse(h_dense, cov, d, cfg), atol=1e-10
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
        np.testing.assert_allclose(zf_detect(grid, sys), dense_zf(h_dense, d, cfg), atol=1e-9)
        np.testing.assert_allclose(
            mmse_detect(grid, sys, noise_var), dense_mmse(h_dense, cov, d, cfg), atol=1e-9
        )

    @settings(max_examples=40, deadline=None)
    @given(banded_cases())
    def test_bands_hold_the_channel_matrices(self, case):
        # the scattered row blocks are the dense H_n, entry for entry, and the
        # padding rows of the last block are identity rows
        ch, window, cfg, _, _ = case
        sys = assemble_effective(ch, window, cfg)
        np.testing.assert_array_equal(bands_to_blocks(sys), channel_blocks(ch, cfg))

    @pytest.mark.parametrize("geometry", sorted(BANDED_GEOMETRIES), ids=lambda g: "M%d-Mcp%d" % g)
    def test_block_counts(self, geometry):
        m, cp_len = geometry
        cfg = ModemConfig(M=m, N=2, cp_len=cp_len)
        ch = LtvChannel((ChannelTap(0, 1.0), ChannelTap(cp_len, 0.5)))
        sys = assemble_effective(ch, make_window("rectangular", 2), cfg)
        assert sys.bands.shape[1] == 3 * BANDED_GEOMETRIES[geometry] - 2
        np.testing.assert_array_equal(bands_to_blocks(sys), channel_blocks(ch, cfg))

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
        sys = assemble_effective(ch, window, cfg)
        assert sys.bands.shape == (4, 1, 400, 400)
        y = rng.normal(size=(400, 4)) + 1j * rng.normal(size=(400, 4))
        s = np.fft.ifft(zf_detect(np.fft.fft(y, axis=1, norm="ortho"), sys), axis=1, norm="ortho")
        for n, h in enumerate(channel_blocks(ch, cfg)):
            np.testing.assert_allclose(s[:, n], np.linalg.solve(h, y[:, n]), rtol=0, atol=1e-9)
        gains[3] = 0.0
        faded = assemble_effective(BlockFadingChannel(gains, cfg.sym_len), window, cfg)
        with pytest.raises(SingularMatrixError, match="symbol 3 of 4"):
            zf_detect(np.zeros((400, 4)), faded)

    def test_default_channel_state_at_1024x32(self):
        # the default two-tap channel at 1024 x 32: the system and its cached
        # factors hold under 32 MB; the dense H_n alone would take 512 MiB
        run = RunConfig(M=1024, N=32)
        run.validate()
        sys = assemble_effective(run.build_channel(), run.build_window(), run.modem_config())
        zf_detect(np.ones((1024, 32)), sys)
        assert sum(a.nbytes for a in held_arrays(sys)) < 32 * 2**20


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

        def pipeline(grids):
            received = demodulate_fast(apply_channel(modulate_fast(grids, cfg), ch), window, cfg)
            return received, zf_detect(received, sys), mmse_detect(received, sys, noise_var)

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


class TestBer:
    def test_identical_streams(self):
        stat = bit_error_rate(np.ones(100, dtype=int), np.ones(100, dtype=int))
        assert stat.ber == 0.0
        assert stat.stderr == 0.0

    def test_complemented_streams(self):
        bits = np.zeros(64, dtype=int)
        assert bit_error_rate(bits, 1 - bits).ber == 1.0

    def test_counting(self):
        ref = np.zeros(1000, dtype=int)
        rx = ref.copy()
        rx[[3, 500, 999]] = 1
        stat = bit_error_rate(rx, ref)
        assert stat.n_errors == 3
        assert stat.ber == 0.003
        assert abs(stat.stderr - np.sqrt(0.003 * 0.997 / 1000)) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            bit_error_rate(np.zeros(3, dtype=int), np.zeros(4, dtype=int))

    def test_empty_streams_refused_by_name(self):
        # a BER over no bits is 0 / 0: refused before a BerStat exists
        message = "detected_bits and reference_bits must be non-empty arrays of one shape"
        with pytest.raises(ValueError, match=re.escape(f"{message}, got ((0,), (0,))")):
            bit_error_rate([], [])
        with pytest.raises(ValueError, match=re.escape("n_bits must be an integer >= 1, got 0")):
            BerStat(n_bits=0, n_errors=0)
        with pytest.raises(ValueError, match=re.escape("n_errors must be at most n_bits = 4")):
            BerStat(n_bits=4, n_errors=5)

    def test_demap_detected_grid(self):
        # detector output grids demap back to the transmitted bits noise-free
        rng = np.random.default_rng(70)
        bits = rng.integers(0, 2, size=4 * 4 * 2)
        grid = qam_map(bits, 4).reshape(4, 4, order="F")
        np.testing.assert_array_equal(qam_demap(grid.reshape(-1, order="F"), 4), bits)
