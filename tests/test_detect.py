"""Tests for the per-symbol system, its noise statistics, and the linear detectors."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    batched_noise_receiver,
    dense_effective,
    dense_mmse,
    dense_zf,
    empirical_covariance,
    fft2_block_fading_solve,
    identity_channel,
    kron_noise_covariance,
    random_block_fading_channel,
    symbol_covariance,
    vec,
)

from otfsim.channel import (
    BlockFadingChannel,
    ChannelTap,
    LtvChannel,
    apply_channel,
    random_ltv_channel,
)
from otfsim.cli import RunConfig, run_simulation
from otfsim.detect import (
    EffectiveSystem,
    assemble_effective,
    bit_error_rate,
    mmse_detect,
    zf_detect,
)
from otfsim.grids import (
    WINDOW_KINDS,
    ModemConfig,
    SeparableWindow,
    make_window,
    qam_demap,
    qam_map,
)
from otfsim.modem_fast import demodulate_fast, modulate_fast
from otfsim.modem_reference import demodulate_reference
from otfsim.numerics import SingularMatrixError


def tapered_window(m, n, rho=0.5):
    return make_window("time-tapered", m, n, rho=rho)


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


def check_white_after_unwindowing(y, window, cfg, atol):
    """With the window undone, as the detectors do, the noise is white."""
    white = np.broadcast_to(cfg.noise_var * np.eye(cfg.M), (cfg.N, cfg.M, cfg.M))
    check_symbol_covariance(window.apply(y, -1), white, atol=atol)


class TestAssembleEffective:
    def test_rectangular_window_white_noise(self):
        # the windowed model's covariance is white (up to the oracle's dense
        # DFT rounding), and undoing the window leaves the grid bit for bit
        cfg = ModemConfig(M=4, N=4, cp_len=1, noise_var=0.7)
        w = make_window("rectangular", 4, 4)
        cov = symbol_covariance(w, cfg)
        np.testing.assert_allclose(cov, 0.7 * np.eye(4)[None].repeat(4, 0), rtol=0, atol=1e-15)
        y = np.random.default_rng(56).normal(size=(4, 4)) + 0j
        np.testing.assert_array_equal(w.apply(y, -1), y)

    def test_identity_channel_identity_system(self):
        cfg = ModemConfig(M=4, N=4, cp_len=1)
        sys = assemble_effective(identity_channel(), make_window("rectangular", 4, 4), cfg)
        np.testing.assert_allclose(sys.blocks, np.eye(4)[None].repeat(4, 0), atol=1e-13)

    def test_covariance_hermitian_psd_and_trace(self):
        cfg = ModemConfig(M=4, N=8, cp_len=1, noise_var=0.9)
        w = tapered_window(4, 8)
        cov = symbol_covariance(w, cfg)
        np.testing.assert_allclose(cov, cov.conj().transpose(0, 2, 1), atol=1e-12)
        assert np.min(np.linalg.eigvalsh(cov)) >= -1e-12
        expected_trace = 0.9 * 4 * np.sum(np.abs(w.wr) ** 2)
        assert abs(np.trace(cov, axis1=1, axis2=2).sum().real - expected_trace) <= 1e-10

    def test_covariance_matches_monte_carlo(self):
        # tapered window, white channel noise: the row IDFT of the receiver
        # output has per-symbol covariance noise_var |wr[n]|^2 I and no
        # correlation between symbols
        cfg = ModemConfig(M=4, N=8, cp_len=1, noise_var=1.0)
        w = tapered_window(4, 8)
        rng = np.random.default_rng(60)
        _, outputs = batched_noise_receiver(cfg, w, 40_000, 1.0, rng)
        y = row_idft_noise(outputs, cfg)
        check_symbol_covariance(y, symbol_covariance(w, cfg), atol=0.05)
        check_white_after_unwindowing(y, w, cfg, atol=0.05)

    def test_covariance_matches_monte_carlo_shaped_freq_window(self):
        # the Qc factor only matters for a shaped frequency window, so
        # exercise it explicitly
        cfg = ModemConfig(M=4, N=6, cp_len=1, noise_var=1.0)
        rng = np.random.default_rng(59)
        w = SeparableWindow(rng.uniform(0.4, 1.6, size=4), tapered_window(4, 6).wr)
        _, outputs = batched_noise_receiver(cfg, w, 60_000, 1.0, rng)
        y = row_idft_noise(outputs, cfg)
        check_symbol_covariance(y, symbol_covariance(w, cfg), atol=0.05)
        check_white_after_unwindowing(y, w, cfg, atol=0.05)

    def test_symbol_covariance_is_kronecker_model(self):
        # the per-symbol covariance is the dense Kronecker covariance seen
        # through the unitary row IDFT
        cfg = ModemConfig(M=4, N=6, cp_len=1, noise_var=0.8)
        rng = np.random.default_rng(58)
        w = SeparableWindow(rng.uniform(0.4, 1.6, size=4), tapered_window(4, 6).wr)
        basis = np.eye(cfg.M * cfg.N)
        t = np.stack([symbol_major(row_idft_noise(col[None], cfg))[0] for col in basis], axis=1)
        transformed = t @ kron_noise_covariance(w, cfg) @ t.conj().T
        model = np.zeros_like(transformed)
        for n, cov in enumerate(symbol_covariance(w, cfg)):
            model[n * 4 : (n + 1) * 4, n * 4 : (n + 1) * 4] = cov
        np.testing.assert_allclose(transformed, model, atol=1e-12)

    def test_oracle_receiver_matches_pipeline(self):
        # ties the vectorized noise oracle to the real receive path
        cfg = ModemConfig(M=4, N=8, cp_len=1, noise_var=1.0)
        w = tapered_window(4, 8)
        rng = np.random.default_rng(61)
        frames, outputs = batched_noise_receiver(cfg, w, 8, 1.0, rng)
        for b in range(8):
            expected = demodulate_reference(frames[b], w, cfg)
            np.testing.assert_allclose(outputs[b], vec(expected), atol=1e-12)

    def test_zf_identity_recovery_at_128x64(self):
        # MN = 8192: twice the size the dense detector used to refuse
        cfg = ModemConfig(M=128, N=64, cp_len=0)
        sys = assemble_effective(identity_channel(), make_window("rectangular", 128, 64), cfg)
        rng = np.random.default_rng(57)
        d = rng.normal(size=(128, 64)) + 1j * rng.normal(size=(128, 64))
        np.testing.assert_allclose(zf_detect(d, sys), d, atol=1e-12)

    def test_refuses_channel_longer_than_cp(self):
        cfg = ModemConfig(M=16, N=4, cp_len=2)
        ch = LtvChannel((ChannelTap(delay=0, gain=1.0), ChannelTap(delay=6, gain=0.5)))
        with pytest.raises(ValueError, match=r"channel length 7 exceeds Mcp \+ 1 = 3"):
            assemble_effective(ch, make_window("rectangular", 16, 4), cfg)

    @pytest.mark.parametrize("factor", ["wc", "wr"])
    @pytest.mark.parametrize("value", [0.0, np.nan])
    def test_refuses_bad_window_coefficient(self, factor, value):
        # the detectors divide by the window, so a zero or NaN coefficient
        # is refused by name before any block is built
        cfg = ModemConfig(M=4, N=6, cp_len=1)
        coeffs = {"wc": np.ones(4), "wr": np.ones(6)}
        coeffs[factor][2] = value
        w = SeparableWindow(coeffs["wc"], coeffs["wr"])
        with pytest.raises(ValueError, match=rf"window {factor}\[2\] is"):
            assemble_effective(identity_channel(), w, cfg)


class TestZfDetect:
    def test_identity_system_passthrough(self):
        cfg = ModemConfig(M=4, N=4, cp_len=1)
        sys = assemble_effective(identity_channel(), make_window("rectangular", 4, 4), cfg)
        rng = np.random.default_rng(62)
        d = rng.normal(size=16) + 1j * rng.normal(size=16)
        np.testing.assert_allclose(vec(zf_detect(d, sys)), d, atol=1e-12)

    def test_noise_free_recovery_over_ltv_channel(self):
        cfg = ModemConfig(M=16, N=8, cp_len=4, qam_order=4)
        ch = LtvChannel(
            (
                ChannelTap(delay=0, gain=0.8, doppler=0.004, phase=0.1),
                ChannelTap(delay=3, gain=0.5j, doppler=-0.008, phase=1.2),
            )
        )
        w = make_window("rectangular", 16, 8)
        rng = np.random.default_rng(63)
        bits = rng.integers(0, 2, size=cfg.bits_per_frame)
        x = qam_map(bits, 4).reshape(16, 8, order="F")
        d_tilde = demodulate_fast(apply_channel(modulate_fast(x, cfg), ch), w, cfg)
        sys = assemble_effective(ch, w, cfg)
        np.testing.assert_allclose(zf_detect(d_tilde, sys), x, atol=1e-8)

    def test_round_trip_random_system(self):
        rng = np.random.default_rng(64)
        cfg = ModemConfig(M=8, N=4, cp_len=3)
        w = tapered_window(8, 4)
        for _ in range(5):
            ch = random_ltv_channel(rng, n_taps=3, max_delay=3, max_doppler=0.02)
            sys = assemble_effective(ch, w, cfg)
            d = rng.normal(size=32) + 1j * rng.normal(size=32)
            np.testing.assert_allclose(
                vec(zf_detect(dense_effective(ch, w, cfg) @ d, sys)), d, atol=1e-8
            )

    def test_singular_system_reported(self):
        cfg = ModemConfig(M=2, N=2, cp_len=0)
        w = make_window("rectangular", 2, 2)
        sys = EffectiveSystem(blocks=np.zeros((2, 2, 2), dtype=complex), window=w, cfg=cfg)
        with pytest.raises(SingularMatrixError):
            zf_detect(np.zeros(4), sys)
        blocks = np.diag([1.0, 1e-14]).astype(complex)[None].repeat(2, 0)
        near_singular = replace(sys, blocks=blocks)
        with pytest.raises(SingularMatrixError, match="matrix 0 of 2"):
            zf_detect(np.zeros(4), near_singular)


class TestMmseDetect:
    def test_matches_zf_in_vanishing_noise(self):
        rng = np.random.default_rng(65)
        cfg = ModemConfig(M=8, N=4, cp_len=3, noise_var=1e-12)
        ch = random_ltv_channel(rng, n_taps=2, max_delay=2, max_doppler=0.01)
        sys = assemble_effective(ch, make_window("rectangular", 8, 4), cfg)
        d = rng.normal(size=32) + 1j * rng.normal(size=32)
        diff = np.max(np.abs(mmse_detect(d, sys) - zf_detect(d, sys)))
        assert diff <= 1e-6

    def test_mmse_beats_zf_in_noise(self):
        rng = np.random.default_rng(66)
        cfg = ModemConfig(M=4, N=8, cp_len=2, noise_var=0.5)
        w = make_window("rectangular", 4, 8)
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
                d_tilde = h_dense @ d + noise
                mse_mmse += np.mean(np.abs(vec(mmse_detect(d_tilde, sys)) - d) ** 2)
                mse_zf += np.mean(np.abs(vec(zf_detect(d_tilde, sys)) - d) ** 2)
            assert mse_mmse <= mse_zf

    def test_rejects_bad_covariance(self):
        # without noise a singular H_n leaves H_n H_n^H + noise_var I
        # singular, which the Cholesky factorization reports
        cfg = ModemConfig(M=2, N=2, cp_len=0, noise_var=0.0)
        w = make_window("rectangular", 2, 2)
        blocks = np.eye(2, dtype=complex)[None].repeat(2, 0)
        blocks[1, 1, 1] = 0.0
        sys = EffectiveSystem(blocks=blocks, window=w, cfg=cfg)
        with pytest.raises(SingularMatrixError, match="positive definite"):
            mmse_detect(np.zeros(4), sys)


class TestNonFiniteInput:
    @pytest.mark.parametrize("detect", [zf_detect, mmse_detect])
    def test_nan_received_grid_rejected(self, detect):
        cfg = ModemConfig(M=4, N=4, cp_len=1, noise_var=0.1)
        sys = assemble_effective(identity_channel(), make_window("rectangular", 4, 4), cfg)
        d = np.ones((4, 4), dtype=complex)
        d[1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            detect(d, sys)

    @pytest.mark.parametrize("detect", [zf_detect, mmse_detect])
    def test_nan_channel_gain_rejected(self, detect):
        cfg = ModemConfig(M=4, N=4, cp_len=1, noise_var=0.1)
        gains = np.ones((4, 2), dtype=complex)
        gains[2, 1] = np.nan
        ch = BlockFadingChannel(gains=gains, sym_len=cfg.sym_len)
        with pytest.raises(ValueError, match="non-finite"):
            detect(np.ones((4, 4)), assemble_effective(ch, make_window("rectangular", 4, 4), cfg))


class TestFastBlockSolve:
    """The 2-D FFT block-fading solve, kept as a test oracle, against per-symbol ZF."""

    def test_matches_dense_zf(self):
        rng = np.random.default_rng(67)
        cfg = ModemConfig(M=16, N=8, cp_len=4)
        w = make_window("rectangular", 16, 8)
        for _ in range(5):
            ch = random_block_fading_channel(rng, cfg, length=4)
            sys = assemble_effective(ch, w, cfg)
            d = rng.normal(size=128) + 1j * rng.normal(size=128)
            expected = dense_zf(dense_effective(ch, w, cfg), d, cfg)
            np.testing.assert_allclose(fft2_block_fading_solve(d, ch, w, cfg), expected, atol=1e-9)
            np.testing.assert_allclose(zf_detect(d, sys), expected, atol=1e-9)

    def test_identity_solve(self):
        cfg = ModemConfig(M=4, N=4, cp_len=1)
        w = make_window("rectangular", 4, 4)
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
        w = make_window("rectangular", 8, 4)
        d = rng.normal(size=32) + 1j * rng.normal(size=32)
        with pytest.raises(ValueError, match="not block fading"):
            fft2_block_fading_solve(d, ch, w, cfg)
        np.testing.assert_allclose(
            zf_detect(d, assemble_effective(ch, w, cfg)),
            dense_zf(dense_effective(ch, w, cfg), d, cfg),
            atol=1e-10,
        )

    def test_rejects_shaped_frequency_window(self):
        rng = np.random.default_rng(72)
        cfg = ModemConfig(M=4, N=4, cp_len=1)
        w = SeparableWindow(np.linspace(0.5, 1.5, 4), np.ones(4))
        d = rng.normal(size=16) + 1j * rng.normal(size=16)
        with pytest.raises(ValueError, match="frequency window"):
            fft2_block_fading_solve(d, identity_channel(), w, cfg)
        np.testing.assert_allclose(
            zf_detect(d, assemble_effective(identity_channel(), w, cfg)),
            dense_zf(dense_effective(identity_channel(), w, cfg), d, cfg),
            atol=1e-10,
        )

    def test_works_without_dense_matrix(self):
        # the per-symbol system holds O(N M^2) numbers, never an MN x MN matrix
        rng = np.random.default_rng(69)
        cfg = ModemConfig(M=16, N=8, cp_len=4)
        ch = random_block_fading_channel(rng, cfg, length=3)
        w = make_window("rectangular", 16, 8)
        sys = assemble_effective(ch, w, cfg)
        d = rng.normal(size=128) + 1j * rng.normal(size=128)
        np.testing.assert_allclose(
            zf_detect(d, sys), fft2_block_fading_solve(d, ch, w, cfg), atol=1e-9
        )
        arrays = [v for v in vars(sys).values() if isinstance(v, np.ndarray)]
        arrays += [a for v in vars(sys).values() if isinstance(v, tuple) for a in v]
        assert max(a.size for a in arrays) <= cfg.N * cfg.M**2


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
    window_kind = draw(st.sampled_from(["rectangular", "time-tapered", "shaped"]))
    if window_kind == "rectangular":
        window = make_window("rectangular", m, n)
    else:
        window = make_window("time-tapered", m, n, rho=draw(st.floats(0.1, 1.0)))
        if window_kind == "shaped":
            window = SeparableWindow(rng.uniform(0.5, 1.5, size=m), window.wr)
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
    cfg = ModemConfig(M=m, N=n, cp_len=cp_len, noise_var=noise_var)
    d = rng.normal(size=m * n) + 1j * rng.normal(size=m * n)
    return ch, window, cfg, d


class TestPerSymbolMatchesDense:
    @settings(max_examples=60, deadline=None)
    @given(per_symbol_cases())
    def test_zf_and_mmse_equal_dense_oracle(self, case):
        ch, window, cfg, d = case
        sys = assemble_effective(ch, window, cfg)
        h_dense = dense_effective(ch, window, cfg)
        cov = kron_noise_covariance(window, cfg)
        np.testing.assert_allclose(zf_detect(d, sys), dense_zf(h_dense, d, cfg), atol=1e-10)
        np.testing.assert_allclose(
            mmse_detect(d, sys), dense_mmse(h_dense, cov, d, cfg), atol=1e-10
        )


class TestBatchMatchesFrames:
    @settings(max_examples=40, deadline=None)
    @given(per_symbol_cases(), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_pipeline_batch_equals_stacked_frames(self, case, trials, seed):
        # a batch of T frames through modulate, channel, demodulate, ZF and
        # MMSE equals the T single-frame runs; the filter products with T
        # columns may round differently from T one-column products
        ch, window, cfg, _ = case
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(trials, cfg.M, cfg.N)) + 1j * rng.normal(size=(trials, cfg.M, cfg.N))
        demodulate = demodulate_fast if window.is_rect_freq else demodulate_reference
        sys = assemble_effective(ch, window, cfg)

        def pipeline(grids):
            received = demodulate(apply_channel(modulate_fast(grids, cfg), ch), window, cfg)
            return received, zf_detect(received, sys), mmse_detect(received, sys)

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

    def test_demap_detected_grid(self):
        # detector output grids demap back to the transmitted bits noise-free
        rng = np.random.default_rng(70)
        bits = rng.integers(0, 2, size=4 * 4 * 2)
        grid = qam_map(bits, 4).reshape(4, 4, order="F")
        np.testing.assert_array_equal(qam_demap(grid.reshape(-1, order="F"), 4), bits)
