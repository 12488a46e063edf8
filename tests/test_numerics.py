"""Tests for the DFT/FFT kernels, convolution, and solver."""

import numbers
import re
import threading

import numpy as np
import pytest

from oracles import (
    block_circulant_assemble,
    brute_circ_conv2d,
    channel_blocks,
    circ_conv2d,
    dft_matrix,
    identity_channel,
    unvec,
    vec,
)

from otfsim.channel import BlockFadingChannel
from otfsim.detect import assemble_effective
from otfsim.grids import ModemConfig, make_window
from otfsim.numerics import (
    CmCounter,
    SingularMatrixError,
    all_finite,
    dft,
    fft_cm_cost,
    is_finite,
    problem,
    write_csv,
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

    def test_empty_batch_gives_empty_result(self):
        # no vectors to transform, as the detectors see an empty batch of grids
        assert dft(np.zeros((0, 4)), axis=1).shape == (0, 4)
        with pytest.raises(ValueError, match=re.escape("v must be a non-empty array")):
            dft(np.zeros((4, 0)), axis=1)

    def test_stage_must_be_a_string_with_or_without_a_scope(self):
        message = "stage must be a string, got 5"
        with pytest.raises(ValueError, match=message):
            dft(np.ones(4), stage=5)
        with CmCounter() as counter, pytest.raises(ValueError, match=message):
            dft(np.ones(4), stage=5)
        assert counter.breakdown() == {}


class TestCmCounter:
    @pytest.mark.parametrize("p", [2, 4, 8, 16, 1024])
    def test_single_fft_charge(self, p):
        with CmCounter() as counter:
            dft(np.ones(p, dtype=complex), stage="fft")
        assert counter.total() == (p // 2) * int(np.log2(p))

    def test_direct_path_charge(self):
        with CmCounter() as counter:
            dft(np.ones(12, dtype=complex))
        assert counter.total() == 144
        assert fft_cm_cost(12) == 144

    def test_batched_charge_is_per_vector(self):
        with CmCounter() as counter:
            dft(np.ones((8, 3), dtype=complex), axis=0)
        assert counter.total() == 3 * 12

    def test_stage_totals_sum_to_global(self):
        counter = CmCounter()
        counter.add("a", 5)
        counter.add("b", 7)
        counter.add("a", 1)
        assert counter.breakdown()["a"] == 6
        assert counter.total() == 13
        assert sum(counter.breakdown().values()) == counter.total()

    def test_negative_increment_rejected(self):
        counter = CmCounter()
        with pytest.raises(ValueError):
            counter.add("a", -1)

    @pytest.mark.parametrize("count", [1.5, 2.0, np.float64(2), True, "3", None])
    def test_non_integer_count_refused_by_name(self, count):
        # int() would record 1 for 1.5, and the audit compares exact integers
        counter = CmCounter()
        message = f"count must be a non-negative integer, got {count!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            counter.add("a", count)
        assert counter.breakdown() == {}
        counter.add("a", np.int64(2))
        assert type(counter.total()) is int


class TestCmScope:
    """``with CmCounter()`` charges the transforms run in the scope, on its thread."""

    def test_nothing_recorded_outside_a_scope(self):
        counter = CmCounter()
        dft(np.ones(8))
        with counter:
            dft(np.ones(8))
        dft(np.ones(8))
        assert counter.breakdown() == {"dft": 12}

    def test_nested_scopes_count_their_own_calls(self):
        with CmCounter() as outer:
            dft(np.ones(8), stage="a")
            with CmCounter() as inner:
                dft(np.ones(4), stage="b")
            dft(np.ones(8), stage="c")
        assert outer.breakdown() == {"a": 12, "c": 12}
        assert inner.breakdown() == {"b": 4}

    def test_same_counter_entered_twice_restores_the_outer_scope(self):
        counter = CmCounter()
        with CmCounter() as outer:
            with counter:
                with counter:
                    dft(np.ones(8), stage="a")
                dft(np.ones(8), stage="a")
            dft(np.ones(8), stage="b")
        dft(np.ones(8), stage="c")
        assert counter.breakdown() == {"a": 24}
        assert outer.breakdown() == {"b": 12}

    def test_scope_left_by_an_exception_is_closed(self):
        with CmCounter() as outer:
            with pytest.raises(ZeroDivisionError), CmCounter() as inner:
                dft(np.ones(8))
                1 / 0
            dft(np.ones(4))
        dft(np.ones(8))
        assert (inner.total(), outer.total()) == (12, 4)

    def test_calls_on_another_thread_are_not_counted(self):
        done = []
        with CmCounter() as counter:
            worker = threading.Thread(target=lambda: done.append(dft(np.ones(8))))
            worker.start()
            worker.join(timeout=10)
            dft(np.ones(4))
        assert not worker.is_alive() and len(done) == 1
        assert counter.breakdown() == {"dft": 4}

    def test_one_counter_open_on_two_threads(self):
        # thread a opens the scope, b opens it too, a closes it, then b does
        counter, errors = CmCounter(), []
        a_open, b_open, a_closed = threading.Event(), threading.Event(), threading.Event()

        def a():
            with counter:
                a_open.set()
                b_open.wait(timeout=10)
                dft(np.ones(8))
            a_closed.set()

        def b():
            a_open.wait(timeout=10)
            with counter:
                b_open.set()
                a_closed.wait(timeout=10)
                dft(np.ones(4))

        def run(step):
            try:
                step()
            except Exception as exc:  # reported below, on the test's thread
                errors.append(exc)

        workers = [threading.Thread(target=run, args=(step,)) for step in (a, b)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=10)
        assert not errors and not any(worker.is_alive() for worker in workers)
        assert counter.breakdown() == {"dft": 16}


class TestAllFinite:
    """The finite check reads float parts, in a view where the layout allows."""

    @pytest.mark.parametrize(
        "layout",
        [
            lambda a: a,
            lambda a: a[:, ::2],
            lambda a: a.T,
            lambda a: np.asfortranarray(a),
            lambda a: a[1, 2],
            lambda a: a.ravel()[:0],
        ],
        ids=["contiguous", "strided", "transposed", "fortran", "scalar", "empty"],
    )
    @pytest.mark.parametrize("bad", [None, np.nan, np.inf, complex(0, np.nan), complex(1, -np.inf)])
    def test_equals_isfinite(self, layout, bad):
        a = np.arange(24.0).reshape(4, 6) * (1 + 1j)
        if bad is not None:
            a[1, 2] = bad
        view = layout(a)
        view = view if isinstance(view, np.ndarray) else np.asarray(view)
        assert all_finite(view) == bool(np.isfinite(view).all())


@pytest.mark.parametrize(
    "value, kind, finite",
    [
        (1, numbers.Real, True), (np.float32(2.5), numbers.Real, True),
        (10**400, numbers.Real, False), (-(10**400), numbers.Real, False),
        (10**400, numbers.Complex, False), (1e308, numbers.Real, True),
        (np.inf, numbers.Real, False), (np.nan, numbers.Real, False),
        (True, numbers.Real, False), (1j, numbers.Real, False), (1j, numbers.Complex, True),
        (complex(1, np.nan), numbers.Complex, False), ("1", numbers.Real, False),
    ],
    ids=lambda v: "huge" if isinstance(v, int) and abs(v) > 2**64 else None,
)
def test_is_finite(value, kind, finite):
    # a huge int is refused rather than raising OverflowError
    assert is_finite(value, kind) is finite


@pytest.mark.parametrize(
    "got, shown",
    [
        (np.zeros((3, 2), np.complex64), "a (3, 2) complex64 array"),
        ([1, "a"], "[1, 'a']"),
        ("x" * 201, "a str of length 201"),
        (list(range(200_000)), "a list of length 200000"),
        (dict.fromkeys(range(100), 0), "a dict of length 100"),
        (10**400, repr(10**400)),
        (10**5000, "an int of 16610 bits"),
        ([10**5000], "a list of length 1"),
        ({10**5000}, "a set"),
    ],
    ids=["array", "short-list", "long-str", "long-list", "long-dict", "huge-int",
         "int-with-no-repr", "list-with-no-repr", "set-with-no-repr"],
)
def test_problem_shows_the_value_bounded(got, shown):
    # a long str, list, tuple or dict is shown by its type and length; a number never is,
    # but an int with no repr is shown by its bits, and anything else with none by its type
    assert problem("good", got) == f"must be good, got {shown}"


def test_write_csv_formats_cells(tmp_path):
    path = tmp_path / "t.csv"
    rows = [("x", 3, 0.1), ("1e+02", np.int64(-2), np.float64(1 / 3)), [-0.0, 1e-300, 1e300]]
    write_csv(path, "a,b,c", rows)
    expected = "x,3,0.10000000000000001\n1e+02,-2,0.33333333333333331\n-0,1e-300,1.0000000000000001e+300"
    assert path.read_text() == f"a,b,c\n{expected}\n"


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


def solve_one_block(ch, cfg, y):
    """Per-symbol zero-forcing ``s_n = H_n^{-1} y_n`` of the M x N array y,
    through ZF detection, for a channel whose every H_n is one dense block."""
    zf = assemble_effective(ch, make_window("rectangular", cfg.N), cfg).factor(0.0)
    assert zf.inv.shape[1] == 1
    grid = np.fft.fft(y, axis=1, norm="ortho")
    return np.fft.ifft(zf.detect(grid), axis=1, norm="ortho")


def every_lag_channel(gains, cfg):
    """Block fading with L = M = Mcp + 1: one circulant block per symbol."""
    return BlockFadingChannel(gains=np.asarray(gains, dtype=complex), sym_len=cfg.sym_len)


class TestSolveDense:
    """Dense per-symbol solves: the banded solver with one block (K = 1)."""

    def test_identity(self):
        cfg = ModemConfig(M=6, N=2, cp_len=1)
        rng = np.random.default_rng(10)
        y = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
        np.testing.assert_allclose(solve_one_block(identity_channel(), cfg, y), y, atol=1e-14)

    def test_diagonal(self):
        cfg = ModemConfig(M=2, N=2, cp_len=0)
        ch = every_lag_channel([[2.0], [4.0]], cfg)
        y = np.array([[2.0, 8.0], [2.0, 8.0]])
        expected = [[1.0, 2.0], [1.0, 2.0]]
        np.testing.assert_allclose(solve_one_block(ch, cfg, y), expected, atol=1e-14)

    def test_residual_on_random_system(self):
        rng = np.random.default_rng(11)
        cfg = ModemConfig(M=16, N=3, cp_len=15)
        gains = 0.1 * (rng.normal(size=(3, 16)) + 1j * rng.normal(size=(3, 16)))
        gains[:, 0] += 2.0
        ch = every_lag_channel(gains, cfg)
        y = rng.normal(size=(16, 3)) + 1j * rng.normal(size=(16, 3))
        s = solve_one_block(ch, cfg, y)
        resid = np.einsum("nij,jn->in", channel_blocks(ch, cfg), s) - y
        assert np.linalg.norm(resid) / np.linalg.norm(y) <= 1e-9

    def test_singular_reported(self):
        # 1 + z^-2 vanishes at frequencies M/4 and 3M/4
        cfg = ModemConfig(M=4, N=2, cp_len=3)
        ch = every_lag_channel([[1.0, 0.0, 1.0, 0.0]] * 2, cfg)
        with pytest.raises(SingularMatrixError):
            solve_one_block(ch, cfg, np.ones((4, 2)))

    def test_stacked_factorization(self):
        # the symbols are factored together, the condition check is free of
        # scale, and the first bad symbol is named
        rng = np.random.default_rng(13)
        cfg = ModemConfig(M=4, N=3, cp_len=3)
        gains = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        gains[:, 0] += 4.0
        y = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        ch = every_lag_channel(gains, cfg)
        s = solve_one_block(ch, cfg, y)
        for n, h in enumerate(channel_blocks(ch, cfg)):
            np.testing.assert_allclose(s[:, n], np.linalg.solve(h, y[:, n]), rtol=0, atol=1e-12)
        tiny = solve_one_block(every_lag_channel(gains * 1e-20, cfg), cfg, y * 1e-20)
        np.testing.assert_allclose(tiny, s, rtol=0, atol=1e-12)
        # each symbol is checked on its own scale: a symbol 1e-20 weaker passes
        one_faint = gains * np.array([[1.0], [1e-20], [1.0]])
        assert np.isfinite(solve_one_block(every_lag_channel(one_faint, cfg), cfg, y)).all()
        singular = gains.copy()
        singular[2] = [1.0, 0.0, 1.0, 0.0]
        with pytest.raises(SingularMatrixError, match="symbol 2 of 3"):
            solve_one_block(every_lag_channel(singular, cfg), cfg, y)
        near_singular = gains.copy()
        near_singular[1] = [1.0, 0.0, 1.0 - 1e-8, 0.0]
        with pytest.raises(SingularMatrixError, match="symbol 1 of 3"):
            solve_one_block(every_lag_channel(near_singular, cfg), cfg, y)


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
