"""Unitary DFTs with complex-multiplication accounting.

:func:`dft` transforms a complex array of any shape along one axis, into a
fresh array or into ``out`` (the input itself or a strided view); a
:class:`CmCounter` tallies its CMs per stage for the audit. Also here: the
number and power-of-two helpers, :func:`circ_conv2d` and :class:`SingularMatrixError`.

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

import math
import numbers

import numpy as np


class SingularMatrixError(ValueError):
    """A linear system is singular or too close to singular to solve."""


class CmCounter:
    """Monotone tally of complex multiplications, keyed by stage label."""

    def __init__(self):
        self._stages: dict[str, int] = {}

    def add(self, stage: str, count: int) -> None:
        require(isinstance(stage, str), "stage", "a string", stage)
        self._stages[stage] = self._stages.get(stage, 0) + check_int("count", count)

    def stage_total(self, stage: str) -> int:
        return self._stages.get(stage, 0)

    def total(self) -> int:
        return sum(self._stages.values())

    def breakdown(self) -> dict[str, int]:
        return dict(self._stages)

    def __repr__(self):
        return f"CmCounter(total={self.total()}, stages={self._stages!r})"


def is_integer(value) -> bool:
    """A Python or NumPy integer; bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A Python or NumPy real number, integers included; bool is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


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
    ok = is_real(noise_var) and 0 <= noise_var < math.inf
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


def check_window(window, n: int) -> np.ndarray:
    """`window` as an array, if it is the `n` coefficients of a receive window."""
    window = as_array("window", window, dtype=None)
    require(window.shape == (n,), "window", f"of shape ({n},)", window)
    return window


def check_out(out, shape: tuple, contiguous: bool = True) -> np.ndarray:
    """`out`, to write a result of `shape` into whole, never into a copy: a
    complex128 array, C-contiguous if `contiguous`; a new one if it is None."""
    if out is None:
        return np.empty(shape, dtype=np.complex128)
    ok = isinstance(out, np.ndarray) and (out.shape, out.dtype) == (shape, np.complex128)
    need = f"a {'C-contiguous ' * contiguous}complex128 array of shape {shape}"
    require(ok and (out.flags.c_contiguous or not contiguous), "out", need, out)
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
    counter: CmCounter | None = None,
    stage: str = "dft",
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Unitary DFT (or IDFT) along one axis, computed by ``numpy.fft``.

    Each transformed vector is charged :func:`fft_cm_cost` CMs:
    ``(P/2)*log2(P)`` for power-of-two lengths, ``P**2`` otherwise.

    Parameters
    ----------
    v : array_like
        Complex input; any shape, transformed along `axis`.
    inverse : bool
        Apply the inverse (conjugate-kernel) transform.
    axis : int
        Axis along which to transform.
    counter : CmCounter, optional
        Charged with the conventional CM cost under `stage`.
    out : ndarray, optional
        Receives and returns the result; may be `v` itself or a strided view.
    """
    v = as_array("v", v, ndim=1)
    require(v.size > 0, "v", "a non-empty array", v)
    ok = is_integer(axis) and -v.ndim <= axis < v.ndim
    require(ok, "axis", f"an axis of v, in [{-v.ndim}, {v.ndim})", axis)
    require(isinstance(inverse, (bool, np.bool_)), "inverse", "a bool", inverse)
    p = v.shape[axis]
    if counter is not None:
        counter.add(stage, (v.size // p) * fft_cm_cost(p))
    transform = np.fft.ifft if inverse else np.fft.fft
    return transform(v, axis=axis, norm="ortho", out=check_out(out, v.shape, contiguous=False))


def circ_conv2d(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """2-D circular convolution of equal-shape matrices.

    ``C[k, l] = sum_p sum_q A[p, q] * B[(k - p) mod M, (l - q) mod N]``
    """
    a, b = as_array("a", a, ndim=2), as_array("b", b)
    shapes = a.shape, b.shape
    require(a.ndim == 2 and shapes[1] == shapes[0], "a and b", "matrices of one shape", shapes)
    return np.fft.ifft2(np.fft.fft2(a) * np.fft.fft2(b))
