"""Tests for the LTV channel model and its delay-Doppler reconstruction."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    block_circulant_assemble,
    build_doppler_taps,
    cp_matrices,
    dd_response_from_taps,
    doppler_cycles_per_sample,
    identity_channel,
    random_block_fading_channel,
    vec,
    wbar_c,
)

from otfsim.channel import (
    BlockFadingChannel,
    ChannelTap,
    LtvChannel,
    add_awgn,
    apply_channel,
    build_dd_response,
    channel_blocks,
    channel_from_spec,
    dump_dd_response,
    load_channel,
    random_ltv_channel,
)
from otfsim.grids import ModemConfig, SeparableWindow, make_window
from otfsim.modem_fast import modulate_fast
from otfsim.modem_reference import demodulate_reference, modulate_reference
from otfsim.numerics import circ_conv2d


def ltv_oracle(s, ch):
    """Direct double-loop evaluation of the time-varying convolution."""
    out = np.zeros(len(s), dtype=complex)
    h = ch.coeffs(np.arange(len(s)))
    for kappa in range(len(s)):
        for ell in range(h.shape[1]):
            if kappa - ell >= 0:
                out[kappa] += h[kappa, ell] * s[kappa - ell]
    return out


class TestApplyChannel:
    def test_identity(self):
        rng = np.random.default_rng(40)
        s = rng.normal(size=20) + 1j * rng.normal(size=20)
        np.testing.assert_allclose(apply_channel(s, identity_channel()), s, atol=1e-15)

    def test_pure_doppler_is_modulation(self):
        rng = np.random.default_rng(41)
        s = rng.normal(size=24) + 1j * rng.normal(size=24)
        nu = 0.01
        ch = LtvChannel((ChannelTap(delay=0, gain=1.0, doppler=nu),))
        expected = np.exp(2j * np.pi * nu * np.arange(24)) * s
        np.testing.assert_allclose(apply_channel(s, ch), expected, atol=1e-13)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(42)
        s = rng.normal(size=24) + 1j * rng.normal(size=24)
        ch = LtvChannel(
            (
                ChannelTap(delay=0, gain=0.9 - 0.2j, doppler=0.013, phase=0.4),
                ChannelTap(delay=2, gain=0.3 + 0.5j, doppler=-0.021, phase=1.7),
            )
        )
        np.testing.assert_allclose(apply_channel(s, ch), ltv_oracle(s, ch), atol=1e-13)

    def test_block_fading_matches_oracle(self):
        rng = np.random.default_rng(43)
        cfg = ModemConfig(M=4, N=3, cp_len=2)
        ch = random_block_fading_channel(rng, cfg, length=3)
        s = rng.normal(size=cfg.frame_len) + 1j * rng.normal(size=cfg.frame_len)
        np.testing.assert_allclose(apply_channel(s, ch), ltv_oracle(s, ch), atol=1e-13)

    def test_empty_tap_list_rejected(self):
        with pytest.raises(ValueError):
            LtvChannel(())

    def test_tap_delay_beyond_frame_contributes_nothing(self):
        rng = np.random.default_rng(51)
        s = rng.normal(size=4) + 1j * rng.normal(size=4)
        ch = LtvChannel((ChannelTap(delay=0, gain=1.0), ChannelTap(delay=9, gain=5.0)))
        np.testing.assert_allclose(apply_channel(s, ch), s, atol=1e-15)

    def test_single_row_block_fading_is_static(self):
        # one gain row acts as a time-invariant filter over the whole frame
        gains = np.array([[0.9, 0.0, 0.3j]])
        ch = BlockFadingChannel(gains=gains, sym_len=6)
        s = np.arange(12, dtype=complex)
        expected = 0.9 * s
        expected[2:] += 0.3j * s[:-2]
        np.testing.assert_allclose(apply_channel(s, ch), expected, atol=1e-14)

    def test_non_finite_signal_rejected(self):
        s = np.ones(8, dtype=complex)
        s[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            apply_channel(s, identity_channel())

    def test_batch_equals_each_frame(self):
        # every frame of a batch starts at kappa = 0; the gains are computed once
        rng = np.random.default_rng(46)
        ch = random_ltv_channel(rng, n_taps=3, max_delay=4, max_doppler=0.02)
        calls = []

        class CountingChannel:
            length = ch.length

            def coeffs(self, kappa):
                calls.append(len(kappa))
                return ch.coeffs(kappa)

        s = rng.normal(size=(2, 3, 30)) + 1j * rng.normal(size=(2, 3, 30))
        out = apply_channel(s, CountingChannel())
        assert calls == [30]
        for idx in np.ndindex(2, 3):
            np.testing.assert_array_equal(out[idx], apply_channel(s[idx], ch))


class TestAwgn:
    def test_zero_variance_is_identity(self):
        s = np.ones(10, dtype=complex)
        np.testing.assert_array_equal(add_awgn(s, 0.0, seed=1), s)

    def test_empirical_variance(self):
        noise = add_awgn(np.zeros(10**6, dtype=complex), 1.0, seed=2)
        assert abs(np.mean(np.abs(noise) ** 2) - 1.0) < 0.01

    def test_seed_determinism(self):
        s = np.zeros(100, dtype=complex)
        np.testing.assert_array_equal(add_awgn(s, 0.5, seed=7), add_awgn(s, 0.5, seed=7))

    def test_negative_variance(self):
        with pytest.raises(ValueError):
            add_awgn(np.zeros(4, dtype=complex), -1.0, seed=0)

    def test_batch_rows_use_their_own_seeds(self):
        # row k draws its real and then its imaginary parts from seed k alone
        s = np.arange(24, dtype=complex).reshape(2, 3, 4)
        seeds = [np.random.default_rng(k) for k in range(3)] + [3, 4, 5]
        out = add_awgn(s, 0.5, seeds)
        for k, idx in enumerate(np.ndindex(2, 3)):
            rng = np.random.default_rng(k)
            noise = rng.normal(scale=0.5, size=4) + 1j * rng.normal(scale=0.5, size=4)
            np.testing.assert_array_equal(out[idx], s[idx] + noise)
            np.testing.assert_array_equal(out[idx], add_awgn(s[idx], 0.5, seed=k))

    @pytest.mark.parametrize("seed", [0, [0, 1], [0, 1, 2, 3]], ids=["bare", "short", "long"])
    def test_batch_needs_one_seed_per_frame(self, seed):
        with pytest.raises(ValueError, match="3 frames need a sequence of 3 seeds"):
            add_awgn(np.zeros((3, 4), dtype=complex), 1.0, seed)


@st.composite
def block_cases(draw):
    """M 2-12 and N 2-5, any Mcp < M, and an LTV or block-fading channel of
    every length from 1 to Mcp + 1."""
    m = draw(st.integers(2, 12))
    cfg = ModemConfig(M=m, N=draw(st.integers(2, 5)), cp_len=draw(st.integers(0, m - 1)))
    length = draw(st.integers(1, cfg.cp_len + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        ch = random_ltv_channel(rng, n_taps=length, max_delay=length - 1, max_doppler=0.05)
    else:
        ch = random_block_fading_channel(rng, cfg, length=length)
    return ch, cfg


class TestBuildHn:
    """The per-symbol channel matrices H_n, as built by channel_blocks."""

    def test_identity_channel(self):
        cfg = ModemConfig(M=8, N=4, cp_len=2)
        blocks = channel_blocks(identity_channel(), cfg)
        assert blocks.shape == (4, 8, 8)
        for n in range(4):
            np.testing.assert_allclose(blocks[n], np.eye(8), atol=0)

    def test_block_fading_gives_circulant(self):
        rng = np.random.default_rng(44)
        cfg = ModemConfig(M=8, N=4, cp_len=3)
        ch = random_block_fading_channel(rng, cfg, length=3)
        blocks = channel_blocks(ch, cfg)
        for n in range(cfg.N):
            first_col = np.zeros(8, dtype=complex)
            first_col[:3] = ch.gains[n]
            circulant = np.stack([np.roll(first_col, c) for c in range(8)], axis=1)
            np.testing.assert_allclose(blocks[n], circulant, atol=1e-14)

    def test_reproduces_frame_path(self):
        # H_n applied to the time-domain symbol equals the channel output
        # for that symbol after CP removal
        rng = np.random.default_rng(45)
        cfg = ModemConfig(M=8, N=4, cp_len=3)
        ch = LtvChannel(
            (
                ChannelTap(delay=0, gain=0.8, doppler=0.007, phase=0.2),
                ChannelTap(delay=2, gain=0.4j, doppler=-0.015, phase=2.1),
            )
        )
        x_time = rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))
        frame = np.concatenate([x_time[-3:], x_time], axis=0).reshape(-1, order="F")
        received = apply_channel(frame, ch).reshape(cfg.sym_len, cfg.N, order="F")
        blocks = channel_blocks(ch, cfg)
        for n in range(cfg.N):
            expected = received[cfg.cp_len :, n]
            np.testing.assert_allclose(blocks[n] @ x_time[:, n], expected, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(block_cases())
    def test_matches_explicit_cp_matrix_product(self, case):
        # the index rule equals R_cp @ breve @ A_cp built densely, where
        # breve is the time-varying convolution over symbol n's samples
        ch, cfg = case
        cp = cp_matrices(cfg)
        blocks = channel_blocks(ch, cfg)
        for n in range(cfg.N):
            h = ch.coeffs(n * cfg.sym_len + np.arange(cfg.sym_len))
            breve = np.zeros((cfg.sym_len, cfg.sym_len), dtype=complex)
            for ell in range(ch.length):
                rows = np.arange(ell, cfg.sym_len)
                breve[rows, rows - ell] = h[rows, ell]
            np.testing.assert_allclose(
                blocks[n], cp.remove @ breve @ cp.add, rtol=0, atol=1e-14
            )

    def test_isi_refused(self):
        cfg = ModemConfig(M=8, N=4, cp_len=1)
        ch = LtvChannel((ChannelTap(delay=3, gain=1.0), ChannelTap(delay=0, gain=1.0)))
        with pytest.raises(ValueError, match=r"channel length 4 exceeds Mcp \+ 1 = 2"):
            channel_blocks(ch, cfg)


class TestDopplerTaps:
    def test_identity_channel_concentrates_at_zero(self):
        cfg = ModemConfig(M=4, N=4, cp_len=1)
        taps = build_doppler_taps(identity_channel(), np.ones(4), cfg)
        np.testing.assert_allclose(taps[0], np.eye(4), atol=1e-14)
        for k in range(1, 4):
            np.testing.assert_allclose(taps[k], np.zeros((4, 4)), atol=1e-14)

    def test_one_cycle_per_frame_lands_on_one_bin(self):
        # H_i = exp(j*2*pi*i/N) * I, one positive Doppler cycle per frame:
        # the forward DFT across symbols concentrates it on tap k = 1,
        # consistent with a +q-cycle tap peaking at Doppler bin q
        cfg = ModemConfig(M=4, N=4, cp_len=0)
        gains = np.exp(2j * np.pi * np.arange(4) / 4)[:, None]
        ch = BlockFadingChannel(gains=gains, sym_len=cfg.sym_len)
        taps = build_doppler_taps(ch, np.ones(4), cfg)
        np.testing.assert_allclose(taps[1], np.eye(4), atol=1e-14)
        for k in (0, 2, 3):
            np.testing.assert_allclose(taps[k], np.zeros((4, 4)), atol=1e-14)

    def test_inverse_dft_consistency(self):
        rng = np.random.default_rng(46)
        cfg = ModemConfig(M=4, N=8, cp_len=2)
        ch = random_block_fading_channel(rng, cfg, length=3)
        w = make_window("time-tapered", 4, 8, rho=0.5)
        taps = build_doppler_taps(ch, w.wr, cfg)
        for n in range(cfg.N):
            resyn = sum(
                taps[k] * np.exp(2j * np.pi * k * n / cfg.N) for k in range(cfg.N)
            )
            np.testing.assert_allclose(resyn, channel_blocks(ch, cfg)[n] * w.wr[n], atol=1e-12)


class TestDdResponse:
    def test_identity_channel_is_delta(self):
        cfg = ModemConfig(M=4, N=4, cp_len=1)
        w = make_window("rectangular", 4, 4)
        response = build_dd_response(channel_blocks(identity_channel(), cfg), w)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(response, expected, atol=1e-14)

    def test_pure_delay_is_shifted_delta(self):
        cfg = ModemConfig(M=4, N=4, cp_len=2)
        ch = LtvChannel((ChannelTap(delay=1, gain=1.0),))
        w = make_window("rectangular", 4, 4)
        response = build_dd_response(channel_blocks(ch, cfg), w)
        expected = np.zeros((4, 4))
        expected[1, 0] = 1.0
        np.testing.assert_allclose(response, expected, atol=1e-14)

    def test_full_pipeline_matches_2d_convolution(self):
        rng = np.random.default_rng(47)
        cfg = ModemConfig(M=8, N=4, cp_len=3)
        ch = random_block_fading_channel(rng, cfg, length=3)
        w = make_window("rectangular", 8, 4)
        x = rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))
        out = demodulate_reference(apply_channel(modulate_reference(x, cfg), ch), w, cfg)
        response = build_dd_response(channel_blocks(ch, cfg), w)
        np.testing.assert_allclose(out, circ_conv2d(response, x), atol=1e-10)

    def test_pure_doppler_support_at_integer_bin(self):
        # single tap at nu = q / frame_len puts the dominant response at
        # Doppler bin q on delay row 0
        cfg = ModemConfig(M=8, N=8, cp_len=2)
        q = 3
        ch = LtvChannel((ChannelTap(delay=0, gain=1.0, doppler=q / cfg.frame_len),))
        w = make_window("rectangular", 8, 8)
        response = build_dd_response(channel_blocks(ch, cfg), w)
        peak = np.unravel_index(np.argmax(np.abs(response)), response.shape)
        assert peak == (0, q)


    def test_matches_doppler_tap_oracle(self):
        # the per-symbol blocks give the Doppler-tap response up to rounding
        rng = np.random.default_rng(54)
        cfg = ModemConfig(M=6, N=5, cp_len=2)
        ch = random_ltv_channel(rng, n_taps=3, max_delay=2, max_doppler=0.03)
        w = SeparableWindow(rng.uniform(0.5, 1.5, size=6), make_window("time-tapered", 6, 5).wr)
        response = build_dd_response(channel_blocks(ch, cfg), w)
        expected = dd_response_from_taps(build_doppler_taps(ch, w.wr, cfg), w)
        np.testing.assert_allclose(response, expected, atol=1e-12)


class TestLinearSystemEquivalences:
    """The two exact reconstructions of the receiver output."""

    def test_eq12_exact_for_ltv_channels(self):
        # vec(pipeline) == (Wbar_c_block @ H_BC) vec(X), no circulant assumption
        rng = np.random.default_rng(48)
        cfg = ModemConfig(M=8, N=4, cp_len=3)
        for trial in range(3):
            ch = random_ltv_channel(rng, n_taps=3, max_delay=3, max_doppler=0.02)
            wc = 1.0 + 0.3 * rng.normal(size=8)  # shaped frequency window
            w = SeparableWindow(wc, make_window("time-tapered", 8, 4, rho=0.5).wr)
            x = rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))
            out = demodulate_reference(apply_channel(modulate_fast(x, cfg), ch), w, cfg)
            h_bc = block_circulant_assemble(build_doppler_taps(ch, w.wr, cfg))
            h_eff = np.kron(np.eye(4), wbar_c(w)) @ h_bc
            resid = np.linalg.norm(vec(out) - h_eff @ vec(x)) / np.linalg.norm(vec(out))
            assert resid <= 1e-10

    def test_eq12_exact_at_non_power_of_two_sizes(self):
        # the linear-system identity holds on the direct-DFT path too
        rng = np.random.default_rng(53)
        cfg = ModemConfig(M=6, N=5, cp_len=2)
        ch = random_ltv_channel(rng, n_taps=2, max_delay=2, max_doppler=0.03)
        w = make_window("time-tapered", 6, 5, rho=0.5)
        x = rng.normal(size=(6, 5)) + 1j * rng.normal(size=(6, 5))
        out = demodulate_reference(apply_channel(modulate_fast(x, cfg), ch), w, cfg)
        h_bc = block_circulant_assemble(build_doppler_taps(ch, w.wr, cfg))
        resid = np.linalg.norm(vec(out) - h_bc @ vec(x)) / np.linalg.norm(vec(out))
        assert resid <= 1e-10

    def test_circulant_regime_2d_convolution(self):
        rng = np.random.default_rng(49)
        cfg = ModemConfig(M=8, N=4, cp_len=3)
        for kind, rho in [("rectangular", 0.0), ("time-tapered", 0.5)]:
            w = make_window(kind, 8, 4, rho=rho)
            ch = random_block_fading_channel(rng, cfg, length=4)
            x = rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))
            out = demodulate_reference(apply_channel(modulate_fast(x, cfg), ch), w, cfg)
            response = build_dd_response(channel_blocks(ch, cfg), w)
            err = np.linalg.norm(out - circ_conv2d(response, x)) / np.linalg.norm(out)
            assert err <= 1e-10

    def test_noncirculant_regime_has_residual(self):
        # within-symbol Doppler breaks the circulant assumption; the 2D
        # convolution identity must then visibly fail
        rng = np.random.default_rng(50)
        cfg = ModemConfig(M=8, N=4, cp_len=3)
        ch = LtvChannel(
            (
                ChannelTap(delay=0, gain=1.0, doppler=0.02),
                ChannelTap(delay=2, gain=0.5, doppler=-0.03),
            )
        )
        w = make_window("rectangular", 8, 4)
        x = rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))
        out = demodulate_reference(apply_channel(modulate_fast(x, cfg), ch), w, cfg)
        response = build_dd_response(channel_blocks(ch, cfg), w)
        resid = np.linalg.norm(out - circ_conv2d(response, x)) / np.linalg.norm(out)
        assert resid > 1e-6


class TestHelpers:
    def test_doppler_conversion(self):
        # 30 m/s at 3 GHz sampled at 10 MHz: f_d = 300.2 Hz -> nu = f_d / f_s
        nu = doppler_cycles_per_sample(30.0, 3e9, 10e6)
        assert abs(nu - (30.0 / 299792458.0) * 3e9 / 10e6) < 1e-18

    def test_channel_json_round_trip(self, tmp_path):
        path = tmp_path / "channel.json"
        taps = [
            {"delay": 0, "gain_re": 0.6, "gain_im": 0.1, "doppler": 0.005, "phase": 0.3},
            {"delay": 3, "gain_im": -0.2, "doppler": -0.002, "phase": 1.0},
        ]
        path.write_text(json.dumps({"taps": taps}))
        assert load_channel(path).taps == (
            ChannelTap(delay=0, gain=0.6 + 0.1j, doppler=0.005, phase=0.3),
            ChannelTap(delay=3, gain=-0.2j, doppler=-0.002, phase=1.0),
        )

    def test_channel_from_spec_validation(self):
        with pytest.raises(ValueError):
            channel_from_spec({"no_taps": []})

    @pytest.mark.parametrize("spec", [5, {"taps": 5}, {"taps": [5]}, {"taps": [{"gain_re": 1.0}]}])
    def test_channel_from_spec_rejects_malformed_taps(self, spec):
        with pytest.raises(ValueError, match="'taps' list"):
            channel_from_spec(spec)

    @pytest.mark.parametrize(
        "field", [{"gain": complex(np.nan, 0.0)}, {"doppler": np.inf}, {"phase": np.nan}]
    )
    def test_non_finite_tap_rejected(self, field):
        with pytest.raises(ValueError, match="must be finite"):
            ChannelTap(delay=0, **{"gain": 1.0, **field})

    def test_dd_response_dump(self, tmp_path):
        path = tmp_path / "dd.csv"
        dump_dd_response(path, np.array([[1 + 2j, 0], [0, 3j]]))
        lines = path.read_text().splitlines()
        assert lines[0] == "k,l,re,im,abs"
        assert len(lines) == 5
        assert lines[1].startswith("0,0,1,2,")

    def test_random_ltv_channel_reproducible(self):
        a = random_ltv_channel(np.random.default_rng(5), 3, 4, 0.01)
        b = random_ltv_channel(np.random.default_rng(5), 3, 4, 0.01)
        assert a.taps == b.taps
