"""Tests for the reference and low-complexity modems."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    cp_matrices,
    demodulate_reference_copying,
    dft_matrix,
    modulate_fast_copying,
    modulate_ofdm_copying,
    modulate_reference_copying,
)

from otfsim.channel import ChannelTap, LtvChannel, build_dd_response
from otfsim.detect import assemble_effective
from otfsim.grids import (
    WINDOW_KINDS,
    ModemConfig,
    apply_window,
    make_window,
    sfft_inv,
    sfft_windowed,
)
from otfsim.modem_fast import demodulate_fast, modulate_fast
from otfsim.modem_reference import (
    demodulate_ofdm,
    demodulate_reference,
    modulate_ofdm,
    modulate_reference,
)
from otfsim.numerics import CmCounter, dft


def random_grid(rng, cfg):
    return rng.normal(size=(cfg.M, cfg.N)) + 1j * rng.normal(size=(cfg.M, cfg.N))


def ilog2(p):
    return int(np.log2(p))


class TestNonFiniteInput:
    """Every modem refuses a non-finite grid or frame at its boundary."""

    @pytest.mark.parametrize("modulate", [modulate_fast, modulate_reference, modulate_ofdm])
    def test_grid_rejected(self, modulate):
        cfg = ModemConfig(M=4, N=2, cp_len=1)
        grid = np.ones((4, 2), dtype=complex)
        grid[2, 1] = np.nan
        with pytest.raises(ValueError, match="(x_dd|y_tf) must be finite"):
            modulate(grid, cfg)

    @pytest.mark.parametrize(
        "demodulate",
        [
            lambda frame, cfg: demodulate_fast(frame, make_window("rectangular", 2), cfg),
            lambda frame, cfg: demodulate_reference(frame, make_window("rectangular", 2), cfg),
            demodulate_ofdm,
        ],
        ids=["fast", "reference", "ofdm"],
    )
    def test_frame_rejected(self, demodulate):
        cfg = ModemConfig(M=4, N=2, cp_len=1)
        frame = np.ones(cfg.frame_len, dtype=complex)
        frame[7] = complex(0.0, np.inf)
        with pytest.raises(ValueError, match="frame must be finite"):
            demodulate(frame, cfg)


class TestCpMatrices:
    def test_remove_inverts_add(self):
        cfg = ModemConfig(M=8, N=4, cp_len=3)
        cp = cp_matrices(cfg)
        np.testing.assert_array_equal(cp.remove @ cp.add, np.eye(8))

    def test_add_structure(self):
        cfg = ModemConfig(M=4, N=2, cp_len=2)
        cp = cp_matrices(cfg)
        np.testing.assert_array_equal(cp.add, np.vstack([np.eye(4)[2:], np.eye(4)]))


class TestModulateReference:
    def test_zero_grid_gives_zero_frame(self):
        cfg = ModemConfig(M=8, N=4, cp_len=2)
        frame = modulate_reference(np.zeros((8, 4)), cfg)
        assert frame.shape == (40,)
        assert np.all(frame == 0)

    def test_cp_property(self):
        cfg = ModemConfig(M=8, N=4, cp_len=2)
        rng = np.random.default_rng(30)
        frame = modulate_reference(random_grid(rng, cfg), cfg)
        sym = frame.reshape(cfg.sym_len, cfg.N, order="F")
        np.testing.assert_allclose(sym[:2, :], sym[-2:, :], atol=1e-14)

    def test_dense_matrix_product_oracle(self):
        cfg = ModemConfig(M=4, N=2, cp_len=1)
        rng = np.random.default_rng(31)
        x = random_grid(rng, cfg)
        f_m = dft_matrix(4)
        f_n = dft_matrix(2)
        y = f_m @ x @ f_n.conj().T
        s = cp_matrices(cfg).add @ f_m.conj().T @ y
        np.testing.assert_allclose(
            modulate_reference(x, cfg), s.reshape(-1, order="F"), atol=1e-12
        )

    def test_cm_count(self):
        cfg = ModemConfig(M=8, N=4, cp_len=2)
        with CmCounter() as counter:
            modulate_reference(np.ones((8, 4)), cfg)
        m, n = 8, 4
        assert counter.total() == m * n * ilog2(m) + (m * n // 2) * ilog2(n)

    def test_wrong_shape(self):
        cfg = ModemConfig(M=8, N=4)
        with pytest.raises(ValueError):
            modulate_reference(np.zeros((4, 8)), cfg)


class TestDemodulateOfdm:
    def test_back_to_back_equals_sfft_inv(self):
        from otfsim.grids import sfft_inv

        cfg = ModemConfig(M=8, N=4, cp_len=2)
        rng = np.random.default_rng(32)
        x = random_grid(rng, cfg)
        z = demodulate_ofdm(modulate_reference(x, cfg), cfg)
        np.testing.assert_allclose(z, sfft_inv(x), atol=1e-12)

    def test_zero_frame(self):
        cfg = ModemConfig(M=8, N=4, cp_len=2)
        assert np.all(demodulate_ofdm(np.zeros(40), cfg) == 0)

    def test_dense_oracle(self):
        cfg = ModemConfig(M=4, N=2, cp_len=1)
        rng = np.random.default_rng(33)
        frame = rng.normal(size=10) + 1j * rng.normal(size=10)
        blockwise = dft_matrix(4) @ cp_matrices(cfg).remove
        expected = np.stack(
            [blockwise @ frame[i * 5 : (i + 1) * 5] for i in range(2)], axis=1
        )
        np.testing.assert_allclose(demodulate_ofdm(frame, cfg), expected, atol=1e-12)

    def test_length_mismatch(self):
        cfg = ModemConfig(M=8, N=4, cp_len=2)
        with pytest.raises(ValueError):
            demodulate_ofdm(np.zeros(39), cfg)

    def test_cm_count(self):
        cfg = ModemConfig(M=8, N=4, cp_len=0)
        with CmCounter() as counter:
            demodulate_ofdm(np.zeros(32), cfg)
        assert counter.total() == (8 * 4 // 2) * 3

    def test_ofdm_mod_cm_count(self):
        cfg = ModemConfig(M=8, N=4, cp_len=2)
        with CmCounter() as counter:
            modulate_ofdm(np.ones((8, 4)), cfg)
        assert counter.total() == (8 * 4 // 2) * 3


class TestDemodulateReference:
    @pytest.mark.parametrize("m,n", [(4, 2), (8, 4), (16, 8), (32, 2), (8, 16)])
    def test_perfect_reconstruction(self, m, n):
        rng = np.random.default_rng(34)
        w = make_window("rectangular", n)
        for cp_len in (0, m // 4, m - 1):
            cfg = ModemConfig(M=m, N=n, cp_len=cp_len)
            x = random_grid(rng, cfg)
            out = demodulate_reference(modulate_reference(x, cfg), w, cfg)
            np.testing.assert_allclose(out, x, atol=1e-12)

    def test_tapered_window_is_doppler_circular_convolution(self):
        # identity channel + time taper: output rows are the input rows
        # circularly convolved with DFT(wr)/N
        cfg = ModemConfig(M=8, N=8, cp_len=2)
        rng = np.random.default_rng(35)
        x = random_grid(rng, cfg)
        w = make_window("time-tapered", 8, rho=0.5)
        out = demodulate_reference(modulate_reference(x, cfg), w, cfg)
        kernel = np.fft.fft(w) / cfg.N
        expected = np.zeros_like(x)
        for l in range(cfg.N):
            for a in range(cfg.N):
                expected[:, l] += x[:, a] * kernel[(l - a) % cfg.N]
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_matches_eq5_double_sum(self):
        cfg = ModemConfig(M=4, N=2, cp_len=1)
        rng = np.random.default_rng(36)
        frame = rng.normal(size=10) + 1j * rng.normal(size=10)
        w = rng.normal(size=2)
        z = demodulate_ofdm(frame, cfg)
        m, n = 4, 2
        expected = np.zeros((m, n), dtype=complex)
        for k in range(m):
            for l in range(n):
                for mm in range(m):
                    for nn in range(n):
                        basis = np.exp(-2j * np.pi * (mm * k / m - nn * l / n)) / np.sqrt(m * n)
                        expected[k, l] += (
                            w[nn] * z[mm, nn] * np.conj(basis)
                        )
        np.testing.assert_allclose(demodulate_reference(frame, w, cfg), expected, atol=1e-12)

    def test_cm_count(self):
        cfg = ModemConfig(M=8, N=4, cp_len=2)
        with CmCounter() as counter:
            demodulate_reference(np.zeros(40), make_window("rectangular", 4), cfg)
        m, n = 8, 4
        assert counter.total() == m * n * ilog2(m) + (m * n // 2) * (1 + ilog2(n))


class TestModulateFast:
    def test_matches_reference(self):
        cfg = ModemConfig(M=8, N=4, cp_len=2)
        rng = np.random.default_rng(37)
        x = random_grid(rng, cfg)
        dev = np.max(np.abs(modulate_fast(x, cfg) - modulate_reference(x, cfg)))
        assert dev <= 1e-12

    def test_zero_grid(self):
        cfg = ModemConfig(M=8, N=4, cp_len=2)
        assert np.all(modulate_fast(np.zeros((8, 4)), cfg) == 0)

    def test_cm_count_spot_values(self):
        cfg = ModemConfig(M=512, N=16, cp_len=0)
        with CmCounter() as counter:
            modulate_fast(np.zeros((512, 16)), cfg)
        assert counter.total() == 16384
        with CmCounter() as ref_counter:
            modulate_reference(np.zeros((512, 16)), cfg)
        assert ref_counter.total() == 90112
        with CmCounter() as ofdm_counter:
            modulate_ofdm(np.zeros((512, 16)), cfg)
        assert ofdm_counter.total() == 36864


class TestModulatorsWriteIntoFrame:
    """The transforms run in place in the frame (or grid) they return, and
    give what a fresh array per stage would, bit for bit."""

    @pytest.mark.parametrize("cp_len", [0, 3])
    @pytest.mark.parametrize("lead", [(), (3,), (2, 2)])
    @pytest.mark.parametrize(
        "modulate, copying",
        [
            (modulate_fast, modulate_fast_copying),
            (modulate_ofdm, modulate_ofdm_copying),
            (modulate_reference, modulate_reference_copying),
        ],
        ids=["fast", "ofdm", "reference"],
    )
    def test_matches_copying_path(self, modulate, copying, lead, cp_len):
        cfg = ModemConfig(M=12, N=5, cp_len=cp_len)
        rng = np.random.default_rng(cp_len + len(lead))
        x = rng.normal(size=(*lead, 12, 5)) + 1j * rng.normal(size=(*lead, 12, 5))
        frame = modulate(x, cfg)
        assert frame.shape == (*lead, cfg.frame_len)
        assert np.array_equal(frame, copying(x, cfg))

    @pytest.mark.parametrize("cp_len", [0, 3])
    @pytest.mark.parametrize("lead", [(), (3,), (2, 2)])
    def test_reference_receiver_matches_copying_path(self, lead, cp_len):
        cfg = ModemConfig(M=12, N=5, cp_len=cp_len)
        window = make_window("time-tapered", 5, rho=0.5)
        rng = np.random.default_rng(cp_len + len(lead))
        shape = (*lead, cfg.frame_len)
        frame = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        grid = demodulate_reference(frame, window, cfg)
        assert grid.shape == (*lead, 12, 5)
        assert np.array_equal(grid, demodulate_reference_copying(frame, window, cfg))


class TestDemodulateFast:
    def test_matches_reference_on_random_frame(self):
        cfg = ModemConfig(M=8, N=4, cp_len=2)
        rng = np.random.default_rng(38)
        frame = rng.normal(size=cfg.frame_len) + 1j * rng.normal(size=cfg.frame_len)
        w = make_window("time-tapered", 4, rho=0.5)
        fast = demodulate_fast(frame, w, cfg)
        ref = demodulate_reference(frame, w, cfg)
        assert np.max(np.abs(fast - ref)) <= 1e-12

    def test_identity_channel_recovers_grid(self):
        cfg = ModemConfig(M=16, N=8, cp_len=4)
        rng = np.random.default_rng(39)
        x = random_grid(rng, cfg)
        out = demodulate_fast(modulate_fast(x, cfg), make_window("rectangular", 8), cfg)
        np.testing.assert_allclose(out, x, atol=1e-12)

    def test_cm_count_spot_values(self):
        cfg = ModemConfig(M=512, N=16, cp_len=0)
        window = make_window("rectangular", 16)
        with CmCounter() as counter:
            demodulate_fast(np.zeros(512 * 16), window, cfg)
        assert counter.total() == 20480
        with CmCounter() as ref_counter:
            demodulate_reference(np.zeros(512 * 16), window, cfg)
        assert ref_counter.total() == 94208


@st.composite
def modem_cases(draw, max_m=40, max_n=12):
    """Any M 2-`max_m`, N 2-`max_n` and Mcp < M, powers of two or not, a
    rectangular or time-tapered window, and zero to two leading batch axes."""
    m = draw(st.integers(2, max_m))
    n = draw(st.integers(2, max_n))
    cfg = ModemConfig(M=m, N=n, cp_len=draw(st.integers(0, m - 1)))
    window = make_window(draw(st.sampled_from(WINDOW_KINDS)), n, rho=draw(st.floats(0, 1)))
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    return cfg, window, lead, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


#: each modem as (name, call(input, window, cfg, **kwargs), kind of input)
MODEMS = [
    ("modulate_fast", lambda v, w, cfg, **kw: modulate_fast(v, cfg, **kw), "grid"),
    ("modulate_reference", lambda v, w, cfg, **kw: modulate_reference(v, cfg, **kw), "grid"),
    ("demodulate_fast", demodulate_fast, "frame"),
    ("demodulate_reference", demodulate_reference, "frame"),
]

#: each stage the modems chain through `out=`, as call(grids, window, **kwargs)
STAGES = [
    lambda v, w, **kw: dft(v, axis=-1, inverse=True, **kw),
    lambda v, w, **kw: dft(v, axis=-2, **kw),
    apply_window,
    lambda v, w, **kw: sfft_inv(v, **kw),
    sfft_windowed,
]


def modem_io_shapes(kind, lead, cfg):
    """Input and result shapes of a modem taking grids or frames."""
    grid, frame = (*lead, cfg.M, cfg.N), (*lead, cfg.frame_len)
    return (grid, frame) if kind == "grid" else (frame, grid)


class TestOutBuffer:
    """With `out=`, each stage the modems chain writes its whole result into
    `out`, of any strides, and returns it; the modems return fresh arrays and
    refuse an `out` by name, leaving it as it was."""

    @settings(max_examples=80, deadline=None)
    @given(modem_cases(max_m=24, max_n=7), st.sampled_from(STAGES), st.booleans())
    def test_out_is_overwritten_and_returned(self, case, stage, strided):
        cfg, window, lead, rng = case
        shape = (*lead, cfg.M, cfg.N)
        v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        out = np.full((*shape, 2) if strided else shape, complex(np.nan, np.nan))
        out = out[..., 0] if strided else out
        assert stage(v, window, out=out) is out
        assert out.tobytes() == stage(v, window).tobytes()

    @pytest.mark.parametrize(
        "bad",
        [
            lambda shape: np.zeros((*shape[:-1], shape[-1] + 1), dtype=complex),
            lambda shape: np.zeros((2, *shape), dtype=complex),
            lambda shape: np.zeros((int(np.prod(shape)), 1), dtype=complex),
            lambda shape: np.zeros(shape, dtype=np.complex64),
            lambda shape: np.zeros(shape, dtype=np.float64),
            lambda shape: np.zeros((*shape, 2), dtype=complex)[..., 0],
            lambda shape: np.zeros(shape, dtype=complex)[..., ::-1],
            lambda shape: np.zeros(shape, dtype=complex).tolist(),
        ],
        ids=["shape", "lead", "flat", "complex64", "float64", "strided", "reversed", "list"],
    )
    @pytest.mark.parametrize("lead", [(), (2,)])
    @pytest.mark.parametrize("modem", MODEMS, ids=[name for name, _, _ in MODEMS])
    def test_unfit_out_refused_by_name(self, modem, lead, bad):
        # a caller written for the modems' old `out=` fails loudly
        cfg = ModemConfig(M=6, N=4, cp_len=2)
        name, run, kind = modem
        shape, result_shape = modem_io_shapes(kind, lead, cfg)
        out = bad(result_shape)
        refusal = rf"^{name}\(\) got an unexpected keyword argument 'out'"
        with pytest.raises(TypeError, match=refusal):
            run(np.ones(shape, dtype=complex), make_window("rectangular", 4), cfg, out=out)
        if isinstance(out, np.ndarray):
            assert not out.any()


class TestStructuralEquivalence:
    """fast == reference over the whole configuration grid."""

    @settings(max_examples=80, deadline=None)
    @given(modem_cases())
    def test_fast_equals_reference_on_batches(self, case):
        # each frame of a batched fast call equals the reference modem on
        # that frame alone
        cfg, window, lead, rng = case
        x = rng.normal(size=(*lead, cfg.M, cfg.N)) + 1j * rng.normal(size=(*lead, cfg.M, cfg.N))
        frames = rng.normal(size=(*lead, cfg.frame_len)) + 1j * rng.normal(
            size=(*lead, cfg.frame_len)
        )
        tx = modulate_fast(x, cfg)
        rx = demodulate_fast(frames, window, cfg)
        assert tx.shape == frames.shape and rx.shape == x.shape
        for idx in np.ndindex(*lead):
            np.testing.assert_allclose(tx[idx], modulate_reference(x[idx], cfg), rtol=0, atol=1e-11)
            np.testing.assert_allclose(
                rx[idx], demodulate_reference(frames[idx], window, cfg), rtol=0, atol=1e-11
            )

    def test_empty_batch_gives_empty_batch(self):
        cfg, window = ModemConfig(M=8, N=4, cp_len=2), make_window("rectangular", 4)
        grids, frames = np.zeros((0, 8, 4)), np.zeros((0, 40))
        for modulate in (modulate_fast, modulate_reference, modulate_ofdm):
            assert modulate(grids, cfg).shape == (0, 40)
        assert demodulate_fast(frames, window, cfg).shape == (0, 8, 4)
        assert demodulate_reference(frames, window, cfg).shape == (0, 8, 4)
        assert demodulate_ofdm(frames, cfg).shape == (0, 8, 4)

    @pytest.mark.parametrize("m", [4, 8, 16, 32, 64])
    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_sweep(self, m, n):
        rng = np.random.default_rng(m * 100 + n)
        w = make_window("time-tapered", n, rho=0.5)
        for cp_len in range(0, m // 4 + 1):
            cfg = ModemConfig(M=m, N=n, cp_len=cp_len)
            for _ in range(3):
                x = random_grid(rng, cfg)
                mod_dev = np.max(np.abs(modulate_fast(x, cfg) - modulate_reference(x, cfg)))
                assert mod_dev <= 1e-11
                frame = rng.normal(size=cfg.frame_len) + 1j * rng.normal(size=cfg.frame_len)
                demod_dev = np.max(
                    np.abs(demodulate_fast(frame, w, cfg) - demodulate_reference(frame, w, cfg))
                )
                assert demod_dev <= 1e-11

    def test_non_power_of_two_sizes_round_trip(self):
        # outside the audit, arbitrary sizes run through the direct DFT path
        cfg = ModemConfig(M=6, N=3, cp_len=2)
        rng = np.random.default_rng(72)
        x = random_grid(rng, cfg)
        w = make_window("rectangular", 3)
        np.testing.assert_allclose(
            demodulate_reference(modulate_reference(x, cfg), w, cfg), x, atol=1e-12
        )
        np.testing.assert_allclose(
            demodulate_fast(modulate_fast(x, cfg), w, cfg), x, atol=1e-12
        )
        np.testing.assert_allclose(modulate_fast(x, cfg), modulate_reference(x, cfg), atol=1e-12)

    def test_minimum_size(self):
        cfg = ModemConfig(M=2, N=2, cp_len=1)
        rng = np.random.default_rng(73)
        x = random_grid(rng, cfg)
        w = make_window("rectangular", 2)
        np.testing.assert_allclose(
            demodulate_reference(modulate_reference(x, cfg), w, cfg), x, atol=1e-12
        )

    def test_complexity_dominance_iff_n_below_m(self):
        for m, n in [(8, 2), (16, 4), (64, 8), (8, 8), (4, 16)]:
            cfg = ModemConfig(M=m, N=n, cp_len=0)
            with CmCounter() as fast_counter:
                modulate_fast(np.zeros((m, n)), cfg)
            with CmCounter() as ofdm_counter:
                modulate_ofdm(np.zeros((m, n)), cfg)
            assert (fast_counter.total() < ofdm_counter.total()) == (n < m)


SHAPE_CFG = ModemConfig(M=8, N=4, cp_len=2)
SHAPE_CHANNEL = LtvChannel((ChannelTap(0, 1.0), ChannelTap(2, 0.5, doppler=0.01)))

#: every function that takes a receive window, called with the window given
WINDOW_CONSUMERS = {
    "apply_window": lambda w: apply_window(np.ones((8, 4)), w),
    "demodulate_fast": lambda w: demodulate_fast(np.ones(SHAPE_CFG.frame_len), w, SHAPE_CFG),
    "demodulate_reference": lambda w: demodulate_reference(
        np.ones(SHAPE_CFG.frame_len), w, SHAPE_CFG
    ),
    "sfft_windowed": lambda w: sfft_windowed(np.ones((8, 4)), w),
    "build_dd_response": lambda w: build_dd_response(SHAPE_CHANNEL, w, SHAPE_CFG),
    "assemble_effective": lambda w: assemble_effective(SHAPE_CHANNEL, w, SHAPE_CFG),
}


class TestWindowShape:
    """A window is N coefficients: no consumer broadcasts any other shape."""

    @pytest.mark.parametrize("consumer", WINDOW_CONSUMERS)
    @pytest.mark.parametrize("shape", [(1,), (3,), (5,), (8, 4), (1, 4)])
    def test_refuses_window_not_of_length_n(self, consumer, shape):
        WINDOW_CONSUMERS[consumer](np.ones(4))
        message = f"window must be of shape (4,), got a {shape} float64 array"
        if len(shape) == 1 and consumer in ("apply_window", "sfft_windowed"):
            # the grids given are as much at fault as the window: both are named
            need = "grids (..., M, N) and N coefficients"
            message = f"y and window must be {need}, got ((8, 4), {shape})"
        with pytest.raises(ValueError, match=re.escape(message)):
            WINDOW_CONSUMERS[consumer](np.ones(shape))
