"""Complex linear-algebra kernels with complex-multiplication accounting.

Everything here works on plain ``numpy`` arrays: vectors are 1-D complex
arrays, matrices are 2-D. The only stateful object is :class:`CmCounter`,
which tallies complex multiplications (CMs) per pipeline stage so that
modem implementations can be audited against closed-form cost formulas.

Counting convention: one P-point transform is charged exactly
``(P/2)*log2(P)`` CMs when P is a power of two (a radix-2 FFT, trivial
twiddles included) and ``P**2`` otherwise (a direct DFT). Additions, sign
flips and data movement are free. The charge counts the transforms invoked,
not the butterflies executed: the transforms themselves run through
``numpy.fft``, whose internal algorithm is not audited. Matrix inverses run
through ``numpy.linalg``, checked for singularity by :func:`inv_checked`.
"""

from __future__ import annotations

import numpy as np


class SingularMatrixError(ValueError):
    """A linear system is singular or too close to singular to solve."""


class CmCounter:
    """Monotone tally of complex multiplications, keyed by stage label."""

    def __init__(self):
        self._stages: dict[str, int] = {}

    def add(self, stage: str, count: int) -> None:
        if count < 0:
            raise ValueError("CM count increment must be non-negative")
        self._stages[stage] = self._stages.get(stage, 0) + int(count)

    def stage_total(self, stage: str) -> int:
        return self._stages.get(stage, 0)

    def total(self) -> int:
        return sum(self._stages.values())

    def breakdown(self) -> dict[str, int]:
        return dict(self._stages)

    def __repr__(self):
        return f"CmCounter(total={self.total()}, stages={self._stages!r})"


def is_power_of_two(p: int) -> bool:
    return p >= 1 and (p & (p - 1)) == 0


def ilog2(p: int) -> int:
    """Exact integer log2; raises for non-powers of two."""
    if not is_power_of_two(p):
        raise ValueError(f"{p} is not a power of two")
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
    """
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim == 0 or v.shape[axis] < 1:
        raise ValueError("dft input must have length >= 1 along the transform axis")
    p = v.shape[axis]
    if counter is not None:
        counter.add(stage, (v.size // p) * fft_cm_cost(p))
    transform = np.fft.ifft if inverse else np.fft.fft
    return transform(v, axis=axis, norm="ortho")


def circ_conv2d(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """2-D circular convolution of equal-shape matrices.

    ``C[k, l] = sum_p sum_q A[p, q] * B[(k - p) mod M, (l - q) mod N]``
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.ndim != 2 or a.shape != b.shape:
        raise ValueError(f"shape mismatch for 2D circular convolution: {a.shape} vs {b.shape}")
    return np.fft.ifft2(np.fft.fft2(a) * np.fft.fft2(b))


def unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Reshape a vector into a (rows, cols) matrix, filling it column by column."""
    v = np.asarray(v)
    if v.ndim != 1 or v.size != rows * cols:
        raise ValueError(f"cannot unvec length-{v.size} vector into {rows}x{cols}")
    return v.reshape(rows, cols, order="F")


def inv_checked(a: np.ndarray) -> np.ndarray:
    """Inverse of a square matrix, or of each matrix in a stack, shape (..., P, P).

    Inverted one matrix at a time, so no temporary outgrows one matrix. The
    first matrix that is exactly singular, or whose reciprocal 1-norm
    condition number ``1/(||A||_1 ||A^-1||_1)`` is below 1e-12 or NaN (a
    scale-free test), is named in a :class:`SingularMatrixError`.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError("expected a square matrix or a stack of them")
    stack = a.reshape(-1, *a.shape[-2:])
    inv = np.empty_like(stack)
    for k, block in enumerate(stack):
        try:
            inv[k] = np.linalg.inv(block)
            rcond = 1.0 / (np.linalg.norm(block, 1) * np.linalg.norm(inv[k], 1))
        except np.linalg.LinAlgError:
            rcond = 0.0
        if not rcond >= 1e-12:
            raise SingularMatrixError(
                f"matrix {k} of {len(stack)} is singular or near-singular (rcond < 1e-12)"
            )
    return inv.reshape(a.shape)
