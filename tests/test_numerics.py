"""Tests for the DFT/FFT kernels, convolution, and solver."""

import numpy as np
import pytest

from oracles import block_circulant_assemble, dft_matrix, vec

from otfsim.numerics import (
    CmCounter,
    SingularMatrixError,
    circ_conv2d,
    dft,
    fft_cm_cost,
    inv_checked,
    unvec,
)


def direct_dft(v, inverse=False):
    """Independent O(P^2) summation oracle for the unitary DFT."""
    p = len(v)
    sign = 1.0 if inverse else -1.0
    out = np.zeros(p, dtype=complex)
    for k in range(p):
        for q in range(p):
            out[k] += v[q] * np.exp(sign * 2j * np.pi * k * q / p)
    return out / np.sqrt(p)


class TestDft:
    def test_impulse_gives_constant(self):
        e0 = np.zeros(8, dtype=complex)
        e0[0] = 1.0
        out = dft(e0)
        np.testing.assert_allclose(out, np.full(8, 1 / np.sqrt(8)), atol=1e-14)

    def test_inverse_forward_round_trip(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=16) + 1j * rng.normal(size=16)
        np.testing.assert_allclose(dft(dft(v), inverse=True), v, atol=1e-12)

    def test_non_power_of_two_matches_direct_oracle(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=12) + 1j * rng.normal(size=12)
        np.testing.assert_allclose(dft(v), direct_dft(v), atol=1e-10)
        np.testing.assert_allclose(dft(v, inverse=True), direct_dft(v, inverse=True), atol=1e-10)

    @pytest.mark.parametrize("p", [2 ** k for k in range(1, 11)])
    def test_fft_matches_direct_dft_all_pow2(self, p):
        rng = np.random.default_rng(p)
        v = rng.normal(size=p) + 1j * rng.normal(size=p)
        ref = dft_matrix(p) @ v
        np.testing.assert_allclose(dft(v), ref, atol=1e-10)

    @pytest.mark.parametrize("p", [2, 4, 8, 16, 64, 256])
    def test_parseval(self, p):
        rng = np.random.default_rng(p + 1)
        v = rng.normal(size=p) + 1j * rng.normal(size=p)
        assert abs(np.linalg.norm(dft(v)) - np.linalg.norm(v)) < 1e-12

    def test_dft_matrix_unitary(self):
        f = dft_matrix(16)
        np.testing.assert_allclose(f @ f.conj().T, np.eye(16), atol=1e-12)

    def test_axis_transform_matches_per_column(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(8, 5)) + 1j * rng.normal(size=(8, 5))
        out = dft(a, axis=0)
        for c in range(5):
            np.testing.assert_allclose(out[:, c], dft(a[:, c]), atol=1e-12)
        out_rows = dft(a, axis=1, inverse=True)
        for r in range(8):
            np.testing.assert_allclose(out_rows[r], dft(a[r], inverse=True), atol=1e-12)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            dft(np.zeros((0,), dtype=complex))


class TestCmCounter:
    @pytest.mark.parametrize("p", [2, 4, 8, 16, 1024])
    def test_single_fft_charge(self, p):
        counter = CmCounter()
        dft(np.ones(p, dtype=complex), counter=counter, stage="fft")
        assert counter.total() == (p // 2) * int(np.log2(p))

    def test_direct_path_charge(self):
        counter = CmCounter()
        dft(np.ones(12, dtype=complex), counter=counter)
        assert counter.total() == 144
        assert fft_cm_cost(12) == 144

    def test_batched_charge_is_per_vector(self):
        counter = CmCounter()
        dft(np.ones((8, 3), dtype=complex), axis=0, counter=counter)
        assert counter.total() == 3 * 12

    def test_stage_totals_sum_to_global(self):
        counter = CmCounter()
        counter.add("a", 5)
        counter.add("b", 7)
        counter.add("a", 1)
        assert counter.stage_total("a") == 6
        assert counter.total() == 13
        assert sum(counter.breakdown().values()) == counter.total()

    def test_negative_increment_rejected(self):
        counter = CmCounter()
        with pytest.raises(ValueError):
            counter.add("a", -1)


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


class TestCircConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        delta = np.zeros((4, 4))
        delta[0, 0] = 1.0
        np.testing.assert_allclose(circ_conv2d(a, delta), a, atol=1e-12)

    def test_shift_kernel(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        delta = np.zeros((4, 4))
        delta[1, 0] = 1.0
        np.testing.assert_allclose(circ_conv2d(a, delta), np.roll(a, 1, axis=0), atol=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        b = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        np.testing.assert_allclose(circ_conv2d(a, b), brute_circ_conv2d(a, b), atol=1e-12)

    def test_commutes(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            a = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
            b = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
            np.testing.assert_allclose(circ_conv2d(a, b), circ_conv2d(b, a), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            circ_conv2d(np.zeros((2, 2)), np.zeros((3, 2)))


class TestVec:
    def test_definition(self):
        a = np.array([[1, 3], [2, 4]])
        np.testing.assert_array_equal(vec(a), [1, 2, 3, 4])

    def test_round_trip(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
        np.testing.assert_array_equal(unvec(vec(a), 5, 7), a)

    def test_index_law(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(3, 4))
        v = vec(a)
        for m in range(3):
            for n in range(4):
                assert v[m + 3 * n] == a[m, n]

    def test_bad_length(self):
        with pytest.raises(ValueError):
            unvec(np.zeros(7), 2, 3)


def solve_dense(a, b):
    return inv_checked(a) @ b


class TestSolveDense:
    """Dense solves through the condition-checked inverse."""

    def test_identity(self):
        rng = np.random.default_rng(10)
        b = rng.normal(size=6) + 1j * rng.normal(size=6)
        np.testing.assert_allclose(solve_dense(np.eye(6), b), b, atol=1e-14)

    def test_diagonal(self):
        a = np.diag([2.0, 4.0])
        np.testing.assert_allclose(solve_dense(a, np.array([2.0, 8.0])), [1.0, 2.0], atol=1e-14)

    def test_residual_on_random_system(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)) + 4 * np.eye(16)
        b = rng.normal(size=16) + 1j * rng.normal(size=16)
        x = solve_dense(a, b)
        assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) <= 1e-9

    def test_singular_reported(self):
        with pytest.raises(SingularMatrixError):
            inv_checked(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            inv_checked(np.zeros((2, 3)))

    def test_stacked_factorization(self):
        # a stack inverts matrix by matrix, each condition-checked on its own scale
        rng = np.random.default_rng(13)
        a = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4)) + 4 * np.eye(4)
        a[1] *= 1e-20
        inv = inv_checked(a)
        for k in range(3):
            np.testing.assert_array_equal(inv[k], inv_checked(a[k]))
        singular = a.copy()
        singular[2, :, 0] = 0.0
        with pytest.raises(SingularMatrixError, match="matrix 2 of 3"):
            inv_checked(singular)
        near_singular = a.copy()
        near_singular[1] = np.diag([1.0, 1.0, 1.0, 1e-14])
        with pytest.raises(SingularMatrixError, match="matrix 1 of 3"):
            inv_checked(near_singular)


class TestBlockCirculant:
    def test_single_block(self):
        a = np.arange(4.0).reshape(2, 2)
        np.testing.assert_array_equal(block_circulant_assemble([a]), a)

    def test_two_blocks(self):
        a = np.full((2, 2), 1.0)
        b = np.full((2, 2), 2.0)
        out = block_circulant_assemble([a, b])
        np.testing.assert_array_equal(out[:2, :2], a)
        np.testing.assert_array_equal(out[:2, 2:], b)
        np.testing.assert_array_equal(out[2:, :2], b)
        np.testing.assert_array_equal(out[2:, 2:], a)

    def test_matvec_matches_block_summation(self):
        rng = np.random.default_rng(12)
        m, n = 2, 3
        blocks = [rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)) for _ in range(n)]
        x = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        full = block_circulant_assemble(blocks) @ vec(x)
        # per-column circular block summation oracle
        expected = np.zeros((m, n), dtype=complex)
        for col in range(n):
            for k in range(n):
                expected[:, col] += blocks[(col - k) % n] @ x[:, k]
        np.testing.assert_allclose(full, vec(expected), atol=1e-12)

    def test_inconsistent_shapes(self):
        with pytest.raises(ValueError):
            block_circulant_assemble([np.zeros((2, 2)), np.zeros((3, 3))])
