"""Unitary DFTs with complex-multiplication accounting.

:func:`dft` transforms a complex array of any shape along one axis, into a
fresh array or into ``out`` (the input itself or a strided view). In a
counting scope, ``with CmCounter() as counter:``, :func:`charge` tallies its
CMs per stage for the audit; with no scope open, nothing is recorded. Also
here: the number and power-of-two helpers, :class:`SingularMatrixError` and
:func:`write_csv`, the one writer of the CLI's CSV outputs.

Every public entry point refuses a bad argument through the checks below
(:func:`require` and the rules built on it), which raise
``ValueError("<name> must be <need>, got <value!r>")``.

Counting convention: one P-point transform is charged exactly
``(P/2)*log2(P)`` CMs when P is a power of two (a radix-2 FFT, trivial
twiddles included) and ``P**2`` otherwise (a direct DFT). Additions, sign
flips and data movement are free. The charge counts the transforms invoked,
not the butterflies executed: the transforms themselves run through
``numpy.fft``, whose internal algorithm is not audited.
"""

from __future__ import annotations

import cmath
import contextvars
import numbers

import numpy as np


class SingularMatrixError(ValueError):
    """A linear system is singular or too close to singular to solve."""


class CmCounter:
    """Monotone tally of complex multiplications, keyed by stage label, and
    the counting scope that fills it.

    ``with CmCounter() as counter:`` charges `counter` with every transform
    and window the library runs in the scope (see :func:`charge`). Scopes
    nest: an inner one counts alone, and on exit the outer one counts again,
    even when both are the same counter. A scope covers only its own
    thread: a call on another thread, even one started inside the scope,
    is not counted. The open scopes are kept per thread, not in the
    counter, so one counter may be open on several threads at once.
    """

    def __init__(self):
        self._stages: dict[str, int] = {}

    def __enter__(self) -> CmCounter:
        _SCOPES.set((*_SCOPES.get(), self))
        return self

    def __exit__(self, *exc) -> None:
        _SCOPES.set(_SCOPES.get()[:-1])

    def add(self, stage: str, count: int) -> None:
        require(isinstance(stage, str), "stage", "a string", stage)
        self._stages[stage] = self._stages.get(stage, 0) + check_int("count", count)

    def total(self) -> int:
        return sum(self._stages.values())

    def breakdown(self) -> dict[str, int]:
        return dict(self._stages)

    def __repr__(self):
        return f"CmCounter(total={self.total()}, stages={self._stages!r})"


#: the counters of the open scopes of this thread (context), innermost last
_SCOPES: contextvars.ContextVar[tuple] = contextvars.ContextVar("cm_scopes", default=())


def charge(stage: str, count: int) -> None:
    """Charge `count` CMs to `stage` of the innermost open :class:`CmCounter`
    scope; with none open, record nothing."""
    require(isinstance(stage, str), "stage", "a string", stage)
    if scopes := _SCOPES.get():
        scopes[-1].add(stage, count)


def is_integer(value) -> bool:
    """A Python or NumPy integer; bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A Python or NumPy real number, integers included; bool is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_finite(value, kind=numbers.Real) -> bool:
    """A finite number of `kind`, real by default, that a float can hold:
    10**400 is not one; bool is not one."""
    try:
        return isinstance(value, kind) and not isinstance(value, bool) and cmath.isfinite(value)
    except OverflowError:
        return False


def require(ok: bool, name: str, need: str, got) -> None:
    """Refuse an argument by name unless `ok`: ``<name> must be <need>, got
    <got!r>``, where an array is shown by its shape, dtype and layout."""
    if not ok:
        shown = repr(got)
        if isinstance(got, np.ndarray):
            layout = "" if got.flags.c_contiguous else ", not C-contiguous"
            shown = f"a {got.shape} {got.dtype} array{layout}"
        raise ValueError(f"{name} must be {need}, got {shown}")


def check_int(name: str, value, low: int = 0) -> int:
    """`value`, an integer >= `low`, as a Python int, which cannot wrap."""
    need = "a non-negative integer" if low == 0 else f"an integer >= {low}"
    require(is_integer(value) and value >= low, name, need, value)
    return int(value)


def is_choice(value, options: tuple) -> bool:
    """One of `options`, strings or integers: 16.0 is not the QAM order 16."""
    return (isinstance(value, str) or is_integer(value)) and value in options


def check_choice(name: str, value, options: tuple):
    require(is_choice(value, options), name, f"one of {options}", value)
    return value


def check_noise_var(noise_var) -> float:
    ok = is_finite(noise_var) and noise_var >= 0
    require(ok, "noise_var", "finite and non-negative", noise_var)
    return float(noise_var)


def all_finite(a: np.ndarray) -> bool:
    """No NaN or infinity in the complex array `a`: its float parts are tested,
    about twice as fast as its complex values, in a float64 view if it has one."""
    if a.ndim and a.flags.c_contiguous:
        return bool(np.isfinite(a.view(np.float64)).all())
    return bool(np.isfinite(a.real).all() and np.isfinite(a.imag).all())


def as_array(name: str, a, dtype=np.complex128, ndim: int = 0, finite: bool = False):
    """`a` as an array of numbers with at least `ndim` axes, cast to `dtype`
    unless that is None and, if `finite`, free of NaN and infinity."""
    try:
        arr = np.asarray(a)
    except ValueError:  # a ragged nest of sequences
        arr = np.asarray(None)
    require(arr.dtype.kind in "biufc", name, "an array of numbers", a)
    require(arr.ndim >= ndim, name, f"an array of {ndim} or more axes", arr)
    arr = arr if dtype is None else arr.astype(dtype, copy=False)
    if finite and not all_finite(arr):
        require(False, name, "finite", arr[~np.isfinite(arr)][0].item())  # the first bad entry
    return arr


def check_out(out, shape: tuple) -> np.ndarray:
    """`out`, to write a result of `shape` into whole, never into a copy: a
    complex128 array, any strides; a new one if it is None."""
    if out is None:
        return np.empty(shape, dtype=np.complex128)
    ok = isinstance(out, np.ndarray) and (out.shape, out.dtype) == (shape, np.complex128)
    require(ok, "out", f"a complex128 array of shape {shape}", out)
    return out


def is_power_of_two(p: int) -> bool:
    return p >= 1 and (p & (p - 1)) == 0


def ilog2(p: int) -> int:
    """Exact integer log2 of a power of two."""
    return p.bit_length() - 1


def fft_cm_cost(p: int) -> int:
    """CMs charged for one P-point transform under the counting convention."""
    if is_power_of_two(p):
        return (p // 2) * ilog2(p)
    return p * p


def dft(
    v: np.ndarray,
    inverse: bool = False,
    axis: int = 0,
    stage: str = "dft",
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Unitary DFT (or IDFT) along one axis, computed by ``numpy.fft``.

    In a counting scope, each transformed vector is charged
    :func:`fft_cm_cost` CMs under `stage`: ``(P/2)*log2(P)`` for power-of-two
    lengths, ``P**2`` otherwise. An empty batch of vectors gives an empty result.

    Parameters
    ----------
    v : array_like
        Complex input; any shape, transformed along `axis`.
    inverse : bool
        Apply the inverse (conjugate-kernel) transform.
    axis : int
        Axis along which to transform.
    stage : str
        The label its CMs are charged under.
    out : ndarray, optional
        Receives and returns the result; may be `v` itself or a strided view.
    """
    v = as_array("v", v, ndim=1)
    ok = is_integer(axis) and -v.ndim <= axis < v.ndim
    require(v.size > 0 or (ok and v.shape[axis] > 0), "v", "a non-empty array", v)
    require(ok, "axis", f"an axis of v, in [{-v.ndim}, {v.ndim})", axis)
    require(isinstance(inverse, (bool, np.bool_)), "inverse", "a bool", inverse)
    p = v.shape[axis]
    charge(stage, (v.size // p) * fft_cm_cost(p))
    transform = np.fft.ifft if inverse else np.fft.fft
    return transform(v, axis=axis, norm="ortho", out=check_out(out, v.shape))


def write_csv(path, header: str, rows) -> None:
    """Write `rows` of cells under `header`, a float cell as ``.17g``, which
    reads back exactly, and any other by ``str``: one ``%`` format per row."""
    formats = {}  # tuple of cell types -> its row format
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            kinds = tuple(map(type, row))
            if kinds not in formats:
                formats[kinds] = ",".join("%.17g" if issubclass(k, float) else "%s" for k in kinds)
            fh.write(formats[kinds] % tuple(row) + "\n")
