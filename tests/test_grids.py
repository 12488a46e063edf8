"""Tests for QAM mapping, the SFFT pair, and receive windows."""

import warnings

import numpy as np
import pytest

from oracles import wbar_c

from otfsim.grids import (
    ModemConfig,
    SeparableWindow,
    make_window,
    qam_demap,
    qam_map,
    sfft_inv,
    sfft_windowed,
)


def sfft_inv_oracle(x):
    """Direct quadruple summation of the inverse-SFFT definition."""
    m, n = x.shape
    y = np.zeros((m, n), dtype=complex)
    for mm in range(m):
        for nn in range(n):
            for k in range(m):
                for l in range(n):
                    basis = np.exp(-2j * np.pi * (mm * k / m - nn * l / n)) / np.sqrt(m * n)
                    y[mm, nn] += x[k, l] * basis
    return y


def sfft_windowed_oracle(z, w_full):
    """Direct double summation of the windowed forward SFFT."""
    m, n = z.shape
    x = np.zeros((m, n), dtype=complex)
    for k in range(m):
        for l in range(n):
            for mm in range(m):
                for nn in range(n):
                    basis = np.exp(-2j * np.pi * (mm * k / m - nn * l / n)) / np.sqrt(m * n)
                    x[k, l] += w_full[mm, nn] * z[mm, nn] * np.conj(basis)
    return x


class TestModemConfig:
    def test_derived_sizes(self):
        cfg = ModemConfig(M=8, N=4, cp_len=2)
        assert cfg.sym_len == 10
        assert cfg.frame_len == 40
        assert cfg.bits_per_frame == 64

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(M=1, N=4),
            dict(M=8, N=1),
            dict(M=8, N=4, cp_len=8),
            dict(M=8, N=4, cp_len=-1),
            dict(M=8, N=4, qam_order=8),
            dict(M=8, N=4, noise_var=-0.1),
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            ModemConfig(**kwargs)


def constellation(order):
    """All constellation points, indexed by their bit word (MSB first)."""
    bps = int(np.log2(order))
    bits = (np.arange(order)[:, None] >> np.arange(bps - 1, -1, -1)) & 1
    return qam_map(bits.reshape(-1), order)


class TestQam:
    def test_qpsk_corner(self):
        sym = qam_map(np.array([0, 0]), 4)
        np.testing.assert_allclose(sym, [(1 + 1j) / np.sqrt(2)], atol=1e-15)

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_round_trip(self, order):
        rng = np.random.default_rng(order)
        bits = rng.integers(0, 2, size=8 * 4 * int(np.log2(order)))
        np.testing.assert_array_equal(qam_demap(qam_map(bits, order), order), bits)

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_unit_average_energy(self, order):
        # enumerate the full constellation and average |s|^2 exactly
        points = constellation(order)
        assert len(points) == order
        assert abs(np.mean(np.abs(points) ** 2) - 1.0) < 1e-12

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_gray_adjacency(self, order):
        # neighbors along either axis differ in exactly one bit
        points = constellation(order)
        step = 2 * np.sqrt(3.0 / (2 * (order - 1)))
        for i in range(order):
            for j in range(order):
                d = points[j] - points[i]
                if min(abs(d - step), abs(d + step), abs(d - 1j * step), abs(d + 1j * step)) < 1e-9:
                    assert bin(i ^ j).count("1") == 1

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_demap_tolerates_sub_threshold_noise(self, order):
        # perturbations below half the minimum distance never flip a decision
        rng = np.random.default_rng(order + 1)
        bits = rng.integers(0, 2, size=600 * int(np.log2(order)))
        symbols = qam_map(bits, order)
        half_dmin = np.sqrt(3.0 / (2 * (order - 1)))  # = d_min / 2 per axis
        noise = 0.95 * half_dmin * (
            rng.uniform(-1, 1, size=symbols.size)
            + 1j * rng.uniform(-1, 1, size=symbols.size)
        )
        np.testing.assert_array_equal(qam_demap(symbols + noise, order), bits)

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_demap_huge_symbols_to_the_nearest_point(self, order):
        # past the outermost level on the real axis, where imag 0 lies halfway
        # between the two innermost levels, and past it on both axes
        inner = np.sqrt(3.0 / (2 * (order - 1)))
        edge = (np.sqrt(order) - 1) * inner
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bits = qam_demap(np.array([-1e300, 1e300, -1e10 - 1e10j]), order)
        decided = qam_map(bits, order)
        np.testing.assert_allclose(decided.real, [-edge, edge, -edge], rtol=1e-12)
        np.testing.assert_allclose(np.abs(decided.imag[:2]), [inner, inner], rtol=1e-12)
        np.testing.assert_allclose(decided.imag[2], -edge, rtol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.5, np.nan)])
    def test_demap_rejects_non_finite(self, bad):
        symbols = qam_map(np.zeros(8, dtype=int), 4)
        symbols[2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            qam_demap(symbols, 4)

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            qam_map(np.zeros(6, dtype=int), 8)

    def test_bit_count_mismatch(self):
        with pytest.raises(ValueError):
            qam_map(np.zeros(5, dtype=int), 4)


class TestSfft:
    def test_impulse_at_origin(self):
        x = np.zeros((2, 2), dtype=complex)
        x[0, 0] = 1.0
        np.testing.assert_allclose(sfft_inv(x), np.full((2, 2), 0.5), atol=1e-14)

    def test_unitary(self):
        rng = np.random.default_rng(20)
        x = rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))
        assert abs(np.linalg.norm(sfft_inv(x)) - np.linalg.norm(x)) < 1e-12

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        np.testing.assert_allclose(sfft_inv(x), sfft_inv_oracle(x), atol=1e-12)

    def test_rectangular_window_inverts(self):
        rng = np.random.default_rng(22)
        x = rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))
        w = make_window("rectangular", 8, 4)
        np.testing.assert_allclose(sfft_windowed(sfft_inv(x), w), x, atol=1e-12)

    def test_dc_collapses_to_origin(self):
        z = np.ones((4, 4), dtype=complex)
        w = make_window("rectangular", 4, 4)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 4.0  # sqrt(M*N)
        np.testing.assert_allclose(sfft_windowed(z, w), expected, atol=1e-12)

    def test_windowed_matches_direct_summation(self):
        rng = np.random.default_rng(23)
        z = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        w = SeparableWindow(rng.normal(size=4), rng.normal(size=3))
        np.testing.assert_allclose(
            sfft_windowed(z, w), sfft_windowed_oracle(z, np.outer(w.wc, w.wr)), atol=1e-12
        )

    def test_matches_numpy_ortho_transforms(self):
        # cross-library check: F_M X F_N^H via numpy's unitary FFTs
        rng = np.random.default_rng(26)
        x = rng.normal(size=(16, 8)) + 1j * rng.normal(size=(16, 8))
        ref = np.fft.ifft(np.fft.fft(x, axis=0, norm="ortho"), axis=1, norm="ortho")
        np.testing.assert_allclose(sfft_inv(x), ref, atol=1e-12)

    def test_separability_matrix_form(self):
        rng = np.random.default_rng(24)
        z = rng.normal(size=(5, 6)) + 1j * rng.normal(size=(5, 6))
        w = SeparableWindow(rng.normal(size=5), rng.normal(size=6))
        elementwise = np.outer(w.wc, w.wr) * z
        matrix_form = np.diag(w.wc) @ z @ np.diag(w.wr)
        np.testing.assert_allclose(elementwise, matrix_form, atol=1e-12)


class TestWindows:
    def test_rectangular(self):
        w = make_window("rectangular", 8, 4)
        np.testing.assert_array_equal(w.wc, np.ones(8))
        np.testing.assert_array_equal(w.wr, np.ones(4))

    def test_zero_rolloff_is_rectangular(self):
        w = make_window("time-tapered", 8, 4, rho=0.0)
        np.testing.assert_array_equal(w.wr, np.ones(4))

    def test_full_rolloff_profile(self):
        # rho=1, N=8: raised-cosine ramp over 4 symbols each side, no flat middle
        w = make_window("time-tapered", 4, 8, rho=1.0)
        ramp = 0.5 * (1 - np.cos(np.pi * (np.arange(4) + 0.5) / 4))
        expected = np.concatenate([ramp, ramp[::-1]])
        expected /= np.sqrt(np.mean(expected**2))
        np.testing.assert_allclose(w.wr, expected, atol=1e-12)
        assert abs(np.sum(np.abs(w.wr) ** 2) / 8 - 1.0) < 1e-12
        # Hann-like: symmetric, unimodal ramp up then down
        assert np.all(np.diff(w.wr[:4].real) > 0)
        np.testing.assert_allclose(w.wr, w.wr[::-1], atol=1e-12)

    @pytest.mark.parametrize("rho", [0.1, 0.25, 0.5, 1.0])
    def test_energy_normalization(self, rho):
        w = make_window("time-tapered", 4, 16, rho=rho)
        assert abs(np.sum(np.abs(w.wr) ** 2) / 16 - 1.0) < 1e-12

    def test_frequency_factor_always_rectangular(self):
        w = make_window("time-tapered", 8, 8, rho=0.5)
        assert w.is_rect_freq

    def test_invalid_rolloff(self):
        with pytest.raises(ValueError):
            make_window("time-tapered", 8, 8, rho=1.5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_window("hamming", 8, 8)

    def test_wbar_c_identity_for_rect(self):
        w = make_window("rectangular", 8, 4)
        np.testing.assert_allclose(wbar_c(w), np.eye(8), atol=1e-12)


class TestWindowApply:
    """SeparableWindow.apply: Wbar_c y diag(wr) on row-IDFT grids, and its inverse."""

    @pytest.mark.parametrize("shaped", [False, True], ids=["rect-freq", "shaped-freq"])
    def test_matches_dense_window_and_inverts(self, shaped):
        rng = np.random.default_rng(12)
        m, n = 6, 5
        wc = rng.uniform(0.5, 1.5, size=m) if shaped else np.ones(m)
        w = SeparableWindow(wc, make_window("time-tapered", m, n, rho=0.5).wr)
        y = rng.normal(size=(3, m, n)) + 1j * rng.normal(size=(3, m, n))
        expected = wbar_c(w) @ y * w.wr
        np.testing.assert_allclose(w.apply(y), expected, atol=1e-12)
        np.testing.assert_allclose(w.apply(w.apply(y), -1), y, atol=1e-12)

    def test_rect_freq_scales_columns_exactly(self):
        w = make_window("time-tapered", 4, 8, rho=0.5)
        y = np.arange(32, dtype=complex).reshape(4, 8) + 1j
        np.testing.assert_array_equal(w.apply(y), y * w.wr)

    def test_rejects_other_powers(self):
        w = make_window("rectangular", 4, 4)
        with pytest.raises(ValueError, match="power"):
            w.apply(np.ones((4, 4)), 2)

