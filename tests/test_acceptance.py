"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and measured margins.
"""

import time

import numpy as np
import pytest

from oracles import (
    batched_noise_receiver,
    dense_effective,
    empirical_covariance,
    fft2_block_fading_solve,
    kron_noise_covariance,
    qfunc,
    random_block_fading_channel,
    vec,
    windowed_blocks,
)

from otfsim.audit import audit_report, predicted_cm
from otfsim.channel import (
    ChannelTap,
    LtvChannel,
    apply_channel,
    build_dd_response,
    channel_blocks,
    random_ltv_channel,
)
from otfsim.cli import RunConfig, run_simulation
from otfsim.detect import assemble_effective, bit_error_rate, zf_detect
from otfsim.grids import ModemConfig, SeparableWindow, make_window, qam_demap, qam_map
from otfsim.modem_fast import demodulate_fast, modulate_fast
from otfsim.modem_reference import demodulate_reference, modulate_reference
from otfsim.numerics import circ_conv2d


def report(criterion, passed, detail):
    line = f"{'PASS' if passed else 'FAIL'}  criterion {criterion}: {detail}"
    print(line)
    assert passed, line


def random_qam_grid(rng, cfg):
    bits = rng.integers(0, 2, size=cfg.bits_per_frame)
    return qam_map(bits, cfg.qam_order).reshape(cfg.M, cfg.N, order="F"), bits


def test_criterion_1_structural_equivalence():
    start = time.perf_counter()
    tol = 1e-11
    worst_mod = 0.0
    worst_demod = 0.0
    for m in (8, 16, 32, 64):
        for n in (2, 4, 8, 16):
            window = make_window("time-tapered", m, n, rho=0.5)
            for cp_len in (0, m // 8, m // 4):
                cfg = ModemConfig(M=m, N=n, cp_len=cp_len)
                rng = np.random.default_rng(1_000 * m + 10 * n + cp_len)
                for _ in range(100):
                    x, _ = random_qam_grid(rng, cfg)
                    frame_fast = modulate_fast(x, cfg)
                    frame_ref = modulate_reference(x, cfg)
                    worst_mod = max(worst_mod, np.max(np.abs(frame_fast - frame_ref)))
                    demod_fast = demodulate_fast(frame_fast, window, cfg)
                    demod_ref = demodulate_reference(frame_fast, window, cfg)
                    worst_demod = max(worst_demod, np.max(np.abs(demod_fast - demod_ref)))
    elapsed = time.perf_counter() - start
    report(
        1,
        worst_mod <= tol and worst_demod <= tol and elapsed < 60,
        f"fast vs reference max dev mod={worst_mod:.2e}, demod={worst_demod:.2e} "
        f"(tol {tol:.0e}) in {elapsed:.1f}s",
    )


def test_criterion_2_complexity_table_reproduction():
    start = time.perf_counter()
    rows = audit_report([8, 16, 32, 64, 128, 256, 512], [2, 4, 8, 16, 32])
    all_match = all(row.match for row in rows)
    spot = {
        ("reference", "mod"): 90112,
        ("ofdm", "mod"): 36864,
        ("proposed", "mod"): 16384,
        ("reference", "demod"): 94208,
        ("ofdm", "demod"): 36864,
        ("proposed", "demod"): 20480,
    }
    spot_ok = all(
        predicted_cm(structure, direction, 512, 16) == value
        and next(
            r.measured for r in rows
            if (r.structure, r.direction, r.M, r.N) == (structure, direction, 512, 16)
        )
        == value
        for (structure, direction), value in spot.items()
    )
    elapsed = time.perf_counter() - start
    report(
        2,
        all_match and spot_ok and elapsed < 60,
        f"{len(rows)} audit rows, predicted == measured exactly, "
        f"(512,16) spot values verified, in {elapsed:.1f}s",
    )


def test_criterion_3_circulant_regime_2d_convolution():
    cfg = ModemConfig(M=16, N=8, cp_len=4)
    rng = np.random.default_rng(33)
    worst = 0.0
    for trial in range(20):
        ch = random_block_fading_channel(rng, cfg, length=4)
        for kind, rho in (("rectangular", 0.0), ("time-tapered", 0.5)):
            window = make_window(kind, cfg.M, cfg.N, rho=rho)
            x, _ = random_qam_grid(rng, cfg)
            out = demodulate_reference(
                apply_channel(modulate_fast(x, cfg), ch), window, cfg
            )
            response = build_dd_response(channel_blocks(ch, cfg), window)
            err = np.linalg.norm(out - circ_conv2d(response, x)) / np.linalg.norm(out)
            worst = max(worst, err)
    report(
        3,
        worst <= 1e-10,
        f"20 block-fading channels x both windows: pipeline vs 2D circular "
        f"convolution, worst rel error {worst:.2e} (tol 1e-10)",
    )


def test_criterion_4_linear_system_exactness():
    cfg = ModemConfig(M=16, N=8, cp_len=4)
    rng = np.random.default_rng(44)
    worst = 0.0
    for trial in range(20):
        ch = random_ltv_channel(rng, n_taps=3, max_delay=4, max_doppler=0.02)
        wr = make_window("time-tapered", cfg.M, cfg.N, rho=0.5).wr
        wc = rng.uniform(0.5, 1.5, size=cfg.M) if trial % 2 else np.ones(cfg.M)
        window = SeparableWindow(wc, wr)
        x, _ = random_qam_grid(rng, cfg)
        out = demodulate_reference(apply_channel(modulate_fast(x, cfg), ch), window, cfg)
        h_eff = dense_effective(ch, window, cfg)
        err = np.linalg.norm(vec(out) - h_eff @ vec(x)) / np.linalg.norm(vec(out))
        # the per-symbol model: y_n = G_n s_n with S = X F_N^H, Y = out F_N^H,
        # G_n = Wbar_c wr[n] H_n; with the window undone, y_n = H_n s_n
        s = np.fft.ifft(x, axis=1, norm="ortho")
        y = np.fft.ifft(out, axis=1, norm="ortho")
        g = windowed_blocks(ch, window, cfg)
        err_sym = np.linalg.norm(y.T - np.einsum("nij,nj->ni", g, s.T)) / np.linalg.norm(y)
        y0 = window.apply(y, -1)
        h = assemble_effective(ch, window, cfg).blocks
        err_h = np.linalg.norm(y0.T - np.einsum("nij,nj->ni", h, s.T)) / np.linalg.norm(y0)
        worst = max(worst, err, err_sym, err_h)
    report(
        4,
        worst <= 1e-10,
        f"20 genuinely-LTV channels, separable windows: pipeline vs effective "
        f"linear system (dense, per-symbol, and unwindowed), worst rel error {worst:.2e} (tol 1e-10)",
    )


def test_criterion_5_zero_forcing_recovery():
    cfg = ModemConfig(M=16, N=8, cp_len=4, qam_order=4)
    ch = LtvChannel(
        (
            ChannelTap(delay=0, gain=0.75, doppler=0.006, phase=0.3),
            ChannelTap(delay=3, gain=0.45 + 0.45j, doppler=-0.011, phase=1.9),
        )
    )
    window = make_window("rectangular", cfg.M, cfg.N)
    system = assemble_effective(ch, window, cfg)
    rng = np.random.default_rng(55)
    symbols_needed = 10_000
    frames = -(-symbols_needed // (cfg.M * cfg.N))
    errors = 0
    total_bits = 0
    for _ in range(frames):
        x, bits = random_qam_grid(rng, cfg)
        d_tilde = demodulate_fast(apply_channel(modulate_fast(x, cfg), ch), window, cfg)
        detected = zf_detect(d_tilde, system)
        stat = bit_error_rate(qam_demap(vec(detected), 4), bits)
        errors += stat.n_errors
        total_bits += stat.n_bits
    report(
        5,
        errors == 0 and total_bits >= 2 * symbols_needed,
        f"noise-free LTV channel, ZF: {errors} bit errors over "
        f"{total_bits // 2} symbols",
    )


def test_criterion_6_fast_solver_equivalence():
    cfg = ModemConfig(M=32, N=8, cp_len=8)
    rng = np.random.default_rng(66)
    window = make_window("rectangular", cfg.M, cfg.N)
    worst = 0.0
    for _ in range(20):
        ch = random_block_fading_channel(rng, cfg, length=5)
        system = assemble_effective(ch, window, cfg)
        d = rng.normal(size=cfg.M * cfg.N) + 1j * rng.normal(size=cfg.M * cfg.N)
        dev = np.max(np.abs(fft2_block_fading_solve(d, ch, window, cfg) - zf_detect(d, system)))
        worst = max(worst, dev)
    report(
        6,
        worst <= 1e-9,
        f"2-D FFT block-fading diagonalization vs per-symbol ZF over 20 systems: "
        f"worst dev {worst:.2e} (tol 1e-9)",
    )


def test_criterion_7_awgn_ber_sanity():
    start = time.perf_counter()
    cfg = RunConfig(
        M=32,
        N=8,
        cp_len=8,
        detector="mmse",
        snr_db=(0.0, 2.0, 4.0, 6.0, 8.0, 10.0),
        trials=196,  # 196 frames x 512 bits > 1e5 bits per point
        seed=77,
        channel={"taps": [{"delay": 0, "gain_re": 1.0}]},
    )
    rows = run_simulation(cfg)
    bits_per_point = cfg.trials * 32 * 8 * 2
    details = []
    ok = True
    for row in rows:
        expected = float(qfunc(np.sqrt(10 ** (row["snr_db"] / 10))))
        sigma = np.sqrt(expected * (1 - expected) / bits_per_point)
        dev_sigmas = abs(row["ber"] - expected) / sigma
        ok = ok and dev_sigmas <= 3.0
        details.append(f"{row['snr_db']:.0f}dB:{dev_sigmas:.1f}s")
    elapsed = time.perf_counter() - start
    report(
        7,
        ok and bits_per_point >= 100_000 and elapsed < 120,
        f"identity channel 4-QAM MMSE vs Q(sqrt(SNR)), deviations "
        f"[{', '.join(details)}] (all <= 3 sigma), {bits_per_point} bits/point, "
        f"in {elapsed:.1f}s",
    )


def test_criterion_8_noise_covariance():
    cfg = ModemConfig(M=4, N=8, cp_len=1, noise_var=1.0)
    window = make_window("time-tapered", cfg.M, cfg.N, rho=0.5)
    rng = np.random.default_rng(88)
    _, outputs = batched_noise_receiver(cfg, window, 200_000, 1.0, rng)
    emp = empirical_covariance(outputs)
    worst = np.max(np.abs(emp - kron_noise_covariance(window, cfg)))
    report(
        8,
        worst <= 0.02,
        f"empirical covariance of 2e5 windowed noise frames vs analytic "
        f"Kronecker model: worst entry dev {worst:.4f} (tol 0.02)",
    )
