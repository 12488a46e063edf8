"""Every public call refuses a bad argument by name.

Each callable in ``otfsim.__all__`` is called with valid arguments but one
(in a few explicit examples, two), which takes a value of the wrong type or
an odd value, and what it returns is used as a caller would use it.

* A value of the wrong type is refused with
  ``ValueError("<name> must be <need>, got <value!r>")``, an array shown by
  its shape and dtype.
* An odd value is accepted, or refused by a ValueError that names the
  parameter before its ", got". A rule that relates two parameters names
  the other in its need (``cp_len must be < M = 2, got 2``) or both before
  it (``y and window must be ...``); ``sfft_windowed`` hands its ``z_tf``
  to ``apply_window``, whose rule calls it ``y``.

Nothing else escapes: no TypeError, IndexError, AttributeError or
ZeroDivisionError. NumPy's warnings on arithmetic with NaN or infinity,
which a call may accept, are not refusals and are ignored here.

Parameters that take a library object (``cfg``, ``ch``, ``sys``) get a
valid one: a wrong object there fails as any duck-typed Python argument
does. No public call takes a ``counter``: CMs are counted in a
``with CmCounter()`` scope. Not called: ``load_channel``, whose path
errors are OSErrors as the CLI expects; ``EffectiveSystem``, the record
``assemble_effective`` builds; and the exception ``SingularMatrixError``.
"""

import inspect
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import otfsim
from otfsim import (
    BlockFadingChannel,
    ChannelTap,
    CmCounter,
    LtvChannel,
    ModemConfig,
    add_awgn,
    apply_channel,
    apply_window,
    assemble_effective,
    audit_report,
    build_dd_response,
    demodulate_fast,
    demodulate_ofdm,
    demodulate_reference,
    dft,
    make_window,
    measured_cm,
    mmse_detect,
    modulate_fast,
    modulate_ofdm,
    modulate_reference,
    predicted_cm,
    proposed_to_ofdm_ratio,
    qam_demap,
    qam_map,
    sfft_inv,
    sfft_windowed,
    zf_detect,
)

CFG = ModemConfig(M=8, N=4, cp_len=2)
TAP = ChannelTap(1, 0.5, doppler=0.01)
CHANNEL = LtvChannel((ChannelTap(0, 1.0), TAP))
WINDOW = make_window("time-tapered", 4)
SYSTEM = assemble_effective(CHANNEL, WINDOW, CFG)


def grid():
    return np.arange(32).reshape(8, 4) * (0.05 + 0.02j)


def frame():
    return np.linspace(-1, 1, CFG.frame_len) + 0.25j


def bits():
    return np.arange(64) % 3 % 2


def tap_in_channel(**kwargs):
    return LtvChannel((ChannelTap(**kwargs),)).coeffs(np.arange(4))


def ltv_channel(**kwargs):
    ch = LtvChannel(**kwargs)
    return ch.length, ch.coeffs(np.arange(4))


def block_channel(**kwargs):
    ch = BlockFadingChannel(**kwargs)
    return ch.length, ch.coeffs(np.arange(12))


def modem_config(**kwargs):
    cfg = ModemConfig(**kwargs)
    return cfg.frame_len, cfg.bits_per_frame


def counted(**kwargs):
    counter = CmCounter()
    counter.add(**kwargs)
    return counter.total()


#: public name -> (call, valid arguments, kind of each parameter under test)
CALLS = {
    "audit_report": (audit_report, lambda: dict(m_list=[8], n_list=[4]),
                     {"m_list": "sizes", "n_list": "sizes"}),
    "measured_cm": (measured_cm, lambda: dict(structure="proposed", direction="demod", m=8, n=4),
                    {"structure": "choice", "direction": "choice", "m": "int", "n": "int"}),
    "predicted_cm": (predicted_cm, lambda: dict(structure="reference", direction="mod", m=8, n=4),
                     {"structure": "choice", "direction": "choice", "m": "int", "n": "int"}),
    "proposed_to_ofdm_ratio": (proposed_to_ofdm_ratio, lambda: dict(m=8, n=4),
                               {"m": "int", "n": "int"}),
    "BlockFadingChannel": (block_channel,
                           lambda: dict(gains=np.full((4, 2), 0.5 + 0.5j), sym_len=10),
                           {"gains": "array", "sym_len": "int"}),
    "ChannelTap": (tap_in_channel, lambda: dict(delay=1, gain=0.5j, doppler=0.01, phase=0.3),
                   {"delay": "int", "gain": "complex", "doppler": "real", "phase": "real"}),
    "LtvChannel": (ltv_channel, lambda: dict(taps=(TAP,)), {"taps": "taps"}),
    "add_awgn": (add_awgn, lambda: dict(signal=frame(), noise_var=0.1, seed=3),
                 {"signal": "array", "noise_var": "real", "seed": "seed"}),
    "apply_channel": (apply_channel, lambda: dict(signal=frame(), ch=CHANNEL),
                      {"signal": "array"}),
    "build_dd_response": (build_dd_response, lambda: dict(ch=CHANNEL, window=WINDOW, cfg=CFG),
                          {"window": "array"}),
    "assemble_effective": (assemble_effective, lambda: dict(ch=CHANNEL, window=WINDOW, cfg=CFG),
                           {"window": "array"}),
    "mmse_detect": (mmse_detect, lambda: dict(d_tilde=grid(), sys=SYSTEM, noise_var=0.1),
                    {"d_tilde": "array", "noise_var": "real"}),
    "zf_detect": (zf_detect, lambda: dict(d_tilde=grid(), sys=SYSTEM), {"d_tilde": "array"}),
    "ModemConfig": (modem_config, lambda: dict(M=8, N=4, cp_len=2, qam_order=16),
                    {"M": "int", "N": "int", "cp_len": "int", "qam_order": "choice"}),
    "apply_window": (apply_window,
                     lambda: dict(y=grid(), window=WINDOW, out=None),
                     {"y": "array", "window": "array", "out": "out"}),
    "make_window": (make_window, lambda: dict(kind="time-tapered", n=4, rho=0.5),
                    {"kind": "choice", "n": "int", "rho": "real"}),
    "qam_demap": (qam_demap, lambda: dict(symbols=grid().ravel(), order=16),
                  {"symbols": "array", "order": "choice"}),
    "qam_map": (qam_map, lambda: dict(bits=bits(), order=16), {"bits": "array", "order": "choice"}),
    "sfft_inv": (sfft_inv, lambda: dict(x_dd=grid(), out=None),
                 {"x_dd": "array", "out": "out"}),
    "sfft_windowed": (sfft_windowed,
                      lambda: dict(z_tf=grid(), window=WINDOW, out=None),
                      {"z_tf": "array", "window": "array", "out": "out"}),
    "demodulate_fast": (demodulate_fast,
                        lambda: dict(frame=frame(), window=WINDOW, cfg=CFG),
                        {"frame": "array", "window": "array"}),
    "modulate_fast": (modulate_fast, lambda: dict(x_dd=grid(), cfg=CFG),
                      {"x_dd": "array"}),
    "demodulate_ofdm": (demodulate_ofdm, lambda: dict(frame=frame(), cfg=CFG),
                        {"frame": "array"}),
    "demodulate_reference": (demodulate_reference,
                             lambda: dict(frame=frame(), window=WINDOW, cfg=CFG),
                             {"frame": "array", "window": "array"}),
    "modulate_ofdm": (modulate_ofdm, lambda: dict(y_tf=grid(), cfg=CFG),
                      {"y_tf": "array"}),
    "modulate_reference": (modulate_reference, lambda: dict(x_dd=grid(), cfg=CFG),
                           {"x_dd": "array"}),
    "CmCounter": (counted, lambda: dict(stage="fft", count=3), {"stage": "str", "count": "int"}),
    "dft": (dft, lambda: dict(v=grid(), inverse=True, axis=1, stage="dft"),
            {"v": "array", "inverse": "bool", "axis": "int", "stage": "str", "out": "out"}),
}

NOT_CALLED = {"load_channel", "EffectiveSystem", "SingularMatrixError"}

#: (call, parameter) -> another parameter whose refusal reports it
RELATED = {("sfft_windowed", "z_tf"): "window"}

#: kind -> values of the wrong type, each to be refused by name
WRONG_TYPES = {
    "int": [4.0, 1.5, np.float64(8), True, "4", None, [4], 4j],
    "choice": [16.0, 4.0, None, True, ["mod"], b"mod"],
    "real": ["a", None, 1j, True, [0.1], np.array(0.1)],
    "complex": ["a", None, True, [1.0]],
    "array": ["abc", None, object(), {"a": 1}, [[1], [1, 2]], np.array(["a", "b"]), [None, 1.0]],
    "sizes": ["8", 8, None, {8: 1}, [8.0], [True]],
    "taps": [(1,), [TAP, 1], "abc", 5, None],
    "seed": ["a", 1.5, object(), [1.5]],
    "bool": [None, "a", 1, np.ones(2)],
    "str": [5, None, ["a"], b"a"],
    "out": ["a", [0j], 5],
}


def odd_arrays(v: np.ndarray):
    """Arrays of numbers derived from the valid argument `v`: non-finite
    entries, other shapes, dtypes and layouts, and huge values."""
    flat = np.arange(v.size).reshape(v.shape) == 1
    return st.one_of(
        st.sampled_from([np.nan, np.inf, -np.inf, complex(0, np.nan)]).map(
            lambda bad: np.where(flat, bad, v)
        ),
        st.sampled_from([
            v.ravel()[:-1], v[..., :-1], v[None], np.stack([v, v]), v.T, v[::-1], np.empty(0),
            np.asarray(1.0), v * 1e308, v.tolist(), np.asfortranarray(v), v.real.astype(np.int8),
            v.real.astype(np.float32), v != 0,
        ]),
        st.lists(st.floats(), max_size=6),
    )


def odd_values(kind: str, valid, out_shape: tuple):
    if kind == "array":
        return odd_arrays(np.asarray(valid))
    if kind == "out":
        return st.sampled_from([
            np.empty(out_shape, dtype=np.complex128),
            np.empty((2, *out_shape), dtype=np.complex128)[:, 0],
            np.empty(out_shape[::-1], dtype=np.complex128).T,
            np.empty(3, dtype=np.complex128),
            np.empty(out_shape, dtype=np.complex64),
            np.empty(out_shape),
        ])
    return {
        "int": st.integers(-10, 20),
        "choice": st.one_of(st.text(max_size=3), st.integers(-2, 70)),
        "real": st.one_of(st.floats(), st.integers(-3, 3)),
        "complex": st.one_of(st.complex_numbers(), st.floats()),
        "sizes": st.one_of(st.lists(st.integers(-2, 16), max_size=3), st.tuples(st.just(16))),
        "taps": st.sampled_from([(), [], [ChannelTap(5, 1.0)], (TAP, TAP)]),
        "seed": st.one_of(st.integers(-3, 3), st.none(), st.just([0, 1])),
        "bool": st.sampled_from([False, np.bool_(True)]),
        "str": st.text(max_size=3),
    }[kind]


PARAMS = [(name, param) for name, (_, _, kinds) in sorted(CALLS.items()) for param in kinds]


@st.composite
def bad_calls(draw):
    """A call with one wrong argument; the third item names it if its type is wrong."""
    name, param = draw(st.sampled_from(PARAMS))
    call, valid, kinds = CALLS[name]
    kind = kinds[param]
    if draw(st.booleans()):
        return name, {param: draw(st.sampled_from(WRONG_TYPES[kind]))}, param
    out_shape = np.shape(call(**valid())) if kind == "out" else ()
    return name, {param: draw(odd_values(kind, valid().get(param), out_shape))}, None


def shown(value) -> str:
    if isinstance(value, np.ndarray):
        layout = "" if value.flags.c_contiguous else ", not C-contiguous"
        return f"a {value.shape} {value.dtype} array{layout}"
    return repr(value)


def test_every_public_callable_is_covered():
    public = {name for name in otfsim.__all__ if callable(getattr(otfsim, name))}
    assert public == set(CALLS) | NOT_CALLED


def test_no_public_call_takes_a_counter():
    # CMs are counted in a `with CmCounter()` scope, never by an argument
    calls = []
    for name in otfsim.__all__:
        obj = getattr(otfsim, name)
        if inspect.isclass(obj):
            calls += [(f"{name}.{attr}", fn) for attr, fn in vars(obj).items()
                      if callable(fn) and (attr == "__init__" or not attr.startswith("_"))]
        elif callable(obj):
            calls.append((name, obj))
    taking = [name for name, fn in calls if "counter" in inspect.signature(fn).parameters]
    assert not taking, taking


def test_modems_take_no_out_and_their_stages_do():
    # each modem returns a fresh array and chains its stages through their `out=`
    modems = [modulate_fast, demodulate_fast, modulate_reference, demodulate_reference,
              modulate_ofdm, demodulate_ofdm]
    stages = [dft, apply_window, sfft_inv, sfft_windowed]
    assert [fn.__name__ for fn in modems if "out" in inspect.signature(fn).parameters] == []
    assert [fn.__name__ for fn in stages if "out" not in inspect.signature(fn).parameters] == []


def test_no_public_name_is_a_module():
    # `from otfsim import *` binds the library's names, not its submodules
    assert [name for name in otfsim.__all__ if inspect.ismodule(getattr(otfsim, name))] == []


def test_counter_passed_by_position_refused_by_name():
    # a caller written for the old `counter` parameter fails loudly
    with pytest.raises(TypeError, match="takes 2 positional arguments but 3 were given"):
        modulate_fast(grid(), CFG, CmCounter())
    with pytest.raises(ValueError, match="stage must be a string, got CmCounter"):
        dft(grid(), False, 0, CmCounter())


@settings(max_examples=400, deadline=None)
@given(bad_calls())
@example(("make_window", {"kind": "rectangular", "n": 4.0}, "n"))
@example(("make_window", {"n": -3}, None))
@example(("make_window", {"rho": "a"}, "rho"))
@example(("predicted_cm", {"structure": "ofdm", "direction": "mod", "m": 8.0}, "m"))
@example(("BlockFadingChannel", {"sym_len": 1.5}, "sym_len"))
@example(("LtvChannel", {"taps": (1,)}, "taps"))
@example(("add_awgn", {"noise_var": "a", "seed": 1}, "noise_var"))
@example(("mmse_detect", {"noise_var": "a"}, "noise_var"))
@example(("dft", {"axis": 5}, None))
@example(("apply_window", {"y": np.ones(4)}, None))
@example(("qam_map", {"bits": ["0", "1"], "order": 4}, "bits"))
@example(("ModemConfig", {"qam_order": 16.0}, "qam_order"))
@example(("qam_demap", {"order": 4.0}, "order"))
@example(("CmCounter", {"stage": "x", "count": 1.5}, "count"))
@example(("audit_report", {"m_list": []}, "m_list"))  # a list, but an empty one: no table
@example(("ChannelTap", {"doppler": 10**400}, "doppler"))  # too large for a float
@example(("add_awgn", {"noise_var": 10**400}, "noise_var"))
@example(("mmse_detect", {"noise_var": 10**400}, "noise_var"))
def test_bad_argument_refused_by_name(case):
    name, args, wrong_type = case
    call, valid, _ = CALLS[name]
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", r"(invalid value|overflow|divide by zero) encountered", RuntimeWarning
        )
        try:
            call(**{**valid(), **args})
        except ValueError as exc:
            message = str(exc)
            named = {*args, *(RELATED.get((name, param)) for param in args)}
            assert set(re.findall(r"\w+", message.rsplit(", got ", 1)[0])) & named, message
            if wrong_type is not None:
                assert wrong_type in re.findall(r"\w+", message.split(" must ")[0]), message
                assert message.endswith(f", got {shown(args[wrong_type])}"), message
            return
    assert wrong_type is None, f"{name} accepted {wrong_type}={args[wrong_type]!r}"
