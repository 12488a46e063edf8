"""Tests for QAM mapping, the SFFT pair, and receive windows."""

import re
import warnings

import numpy as np
import pytest

from oracles import qam_demap_reference, qam_map_reference

from otfsim.grids import (
    ModemConfig,
    apply_window,
    make_window,
    qam_demap,
    qam_map,
    sfft_inv,
    sfft_windowed,
)
from otfsim.numerics import CmCounter


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
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            ModemConfig(**kwargs)

    @pytest.mark.parametrize("name, bad", [("M", 8.0), ("N", True), ("cp_len", 1.5)])
    def test_non_integer_size_named(self, name, bad):
        # numpy integers pass; a float failed later inside the modems, and
        # True read as 1
        sizes = dict(M=np.int64(8), N=np.int32(4), cp_len=np.uint8(2))
        assert ModemConfig(**sizes).frame_len == 40
        need = "a non-negative integer" if name == "cp_len" else "an integer >= 2"
        with pytest.raises(ValueError, match=re.escape(f"{name} must be {need}, got {bad!r}")):
            ModemConfig(**{**sizes, name: bad})

    def test_narrow_numpy_sizes_kept_as_python_ints(self):
        # uint8 200 + 100 would wrap to 44
        cfg = ModemConfig(M=np.uint8(200), N=np.uint8(4), cp_len=np.uint8(100))
        assert (cfg.sym_len, cfg.frame_len) == (300, 1200)
        assert {type(cfg.M), type(cfg.N), type(cfg.cp_len)} == {int}


def bit_words(order):
    """Every bit word of `order`-QAM in index order, MSB first, as one bit stream."""
    bps = int(np.log2(order))
    return ((np.arange(order)[:, None] >> np.arange(bps - 1, -1, -1)) & 1).reshape(-1)


def constellation(order):
    """All constellation points, indexed by their bit word (MSB first)."""
    return qam_map(bit_words(order), order)


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

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_map_equals_gray_arithmetic(self, order):
        # every bit group maps, bit for bit, to the level that Gray decoding gives
        bits = bit_words(order)
        for dtype in (np.uint8, np.int64):
            got = qam_map(bits.astype(dtype), order)
            assert got.tobytes() == qam_map_reference(bits, order).tobytes()

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_demap_equals_gray_arithmetic(self, order):
        # noisy symbols, huge ones, and symbols on every decision boundary and
        # level decide as nearest-level rounding with Gray encoding does
        rng = np.random.default_rng(order + 2)
        noisy = 1.5 * (rng.normal(size=2000) + 1j * rng.normal(size=2000))
        huge = np.array([1e300, -1e300, 1e300j, -1e300j, 1e300 - 1e300j, -1e300 + 1e300j])
        axis = np.sqrt(3.0 / (2 * (order - 1))) * np.arange(-np.sqrt(order), np.sqrt(order) + 1)
        on_grid = (axis[:, None] + 1j * axis[None, :]).reshape(-1)
        symbols = np.concatenate([noisy, huge, on_grid])
        got = qam_demap(symbols, order)
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, qam_demap_reference(symbols, order))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.5, np.nan)])
    def test_demap_rejects_non_finite(self, bad):
        symbols = qam_map(np.zeros(8, dtype=int), 4)
        symbols[2] = bad
        with pytest.raises(ValueError, match="symbols must be finite"):
            qam_demap(symbols, 4)

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            qam_map(np.zeros(6, dtype=int), 8)

    def test_bit_count_mismatch(self):
        with pytest.raises(ValueError):
            qam_map(np.zeros(5, dtype=int), 4)

    @pytest.mark.parametrize("bits", [[2, 0, 3, 1], [0, 0.5, 1, 1], [0, 1, -1, 0]])
    def test_refuses_non_bits(self, bits):
        # a 2 or 3 would map off the constellation
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            qam_map(bits, 4)


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
        w = make_window("rectangular", 4)
        np.testing.assert_allclose(sfft_windowed(sfft_inv(x), w), x, atol=1e-12)

    def test_dc_collapses_to_origin(self):
        z = np.ones((4, 4), dtype=complex)
        w = make_window("rectangular", 4)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 4.0  # sqrt(M*N)
        np.testing.assert_allclose(sfft_windowed(z, w), expected, atol=1e-12)

    def test_windowed_matches_direct_summation(self):
        rng = np.random.default_rng(23)
        z = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        w = rng.normal(size=3)
        np.testing.assert_allclose(
            sfft_windowed(z, w), sfft_windowed_oracle(z, np.outer(np.ones(4), w)), atol=1e-12
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
        w = rng.normal(size=6)
        np.testing.assert_allclose(apply_window(z, w), z @ np.diag(w), atol=1e-12)


class TestWindows:
    def test_rectangular(self):
        w = make_window("rectangular", 4)
        np.testing.assert_array_equal(w, np.ones(4))

    def test_zero_rolloff_is_rectangular(self):
        w = make_window("time-tapered", 4, rho=0.0)
        np.testing.assert_array_equal(w, np.ones(4))

    def test_full_rolloff_profile(self):
        # rho=1, N=8: raised-cosine ramp over 4 symbols each side, no flat middle
        w = make_window("time-tapered", 8, rho=1.0)
        ramp = 0.5 * (1 - np.cos(np.pi * (np.arange(4) + 0.5) / 4))
        expected = np.concatenate([ramp, ramp[::-1]])
        expected /= np.sqrt(np.mean(expected**2))
        np.testing.assert_allclose(w, expected, atol=1e-12)
        assert abs(np.sum(np.abs(w) ** 2) / 8 - 1.0) < 1e-12
        # Hann-like: symmetric, unimodal ramp up then down
        assert np.all(np.diff(w[:4].real) > 0)
        np.testing.assert_allclose(w, w[::-1], atol=1e-12)

    @pytest.mark.parametrize("rho", [0.1, 0.25, 0.5, 1.0])
    def test_energy_normalization(self, rho):
        w = make_window("time-tapered", 16, rho=rho)
        assert abs(np.sum(np.abs(w) ** 2) / 16 - 1.0) < 1e-12

    def test_invalid_rolloff(self):
        with pytest.raises(ValueError):
            make_window("time-tapered", 8, rho=1.5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_window("hamming", 8)


class TestWindowApply:
    """apply_window: y diag(window) on (..., M, N) grids, and its inverse."""

    def test_matches_dense_window_and_inverts(self):
        rng = np.random.default_rng(12)
        m, n = 6, 5
        w = make_window("time-tapered", n, rho=0.5)
        y = rng.normal(size=(3, m, n)) + 1j * rng.normal(size=(3, m, n))
        expected = y @ np.diag(w)
        np.testing.assert_allclose(apply_window(y, w), expected, atol=1e-12)
        np.testing.assert_allclose(apply_window(apply_window(y, w), 1 / w), y, atol=1e-12)

    def test_rect_freq_scales_columns_exactly(self):
        w = make_window("time-tapered", 8, rho=0.5)
        y = np.arange(32, dtype=complex).reshape(4, 8) + 1j
        np.testing.assert_array_equal(apply_window(y, w), y * w)

    def test_charges_half_a_cm_per_sample_and_writes_into_out(self):
        y = np.ones((3, 4, 8), dtype=complex)
        out = np.empty_like(y)
        counter = CmCounter()
        assert apply_window(y, np.full(8, 2.0), counter, out) is out
        np.testing.assert_array_equal(out, 2 * y)
        assert counter.breakdown() == {"window": 3 * 16}

