"""Signal-domain grids: modem configuration, QAM mapping, SFFT transforms,
and receive windows.

Grid conventions (all plain complex ndarrays):

* delay-Doppler grid ``X``: shape (M, N), element ``X[k, l]`` at delay bin k,
  Doppler bin l;
* time-frequency grid ``Y``/``Z``: shape (M, N), element at subcarrier m,
  OFDM symbol n;
* frame signal: 1-D vector of length ``(M + cp_len) * N``, the column-major
  serialization of the per-symbol sample matrix.

The modems, the channel and the detectors also take a batch of frames:
grids of shape (..., M, N) and frames of shape (..., L), one per leading
index, each processed as it would be alone (by the detectors, up to
rounding; see ``otfsim.detect``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .numerics import CmCounter, dft, is_integer

QAM_ORDERS = (4, 16, 64)

WINDOW_KINDS = ("rectangular", "time-tapered")


@dataclass(frozen=True)
class ModemConfig:
    """Frame geometry shared by every pipeline stage.

    M : subcarriers / delay bins, N : OFDM symbols / Doppler bins,
    cp_len : cyclic-prefix length in samples.
    """

    M: int
    N: int
    cp_len: int = 0
    qam_order: int = 4

    def __post_init__(self):
        for name in ("M", "N", "cp_len"):
            if not is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
            # a narrow NumPy integer would wrap in M + cp_len
            object.__setattr__(self, name, int(getattr(self, name)))
        if self.M < 2:
            raise ValueError(f"M must be >= 2, got {self.M}")
        if self.N < 2:
            raise ValueError(f"N must be >= 2, got {self.N}")
        if not 0 <= self.cp_len < self.M:
            raise ValueError(f"cp_len must satisfy 0 <= cp_len < M, got {self.cp_len}")
        if self.qam_order not in QAM_ORDERS:
            raise ValueError(f"qam_order must be one of {QAM_ORDERS}, got {self.qam_order}")

    @property
    def sym_len(self) -> int:
        """Samples per OFDM symbol including the cyclic prefix."""
        return self.M + self.cp_len

    @property
    def frame_len(self) -> int:
        return self.sym_len * self.N

    @property
    def bits_per_frame(self) -> int:
        return self.M * self.N * int(math.log2(self.qam_order))


# ---------------------------------------------------------------------------
# QAM mapping
# ---------------------------------------------------------------------------

def qam_scale(order: int) -> float:
    """Per-axis amplitude scale giving unit average symbol energy."""
    return math.sqrt(3.0 / (2.0 * (order - 1)))


@cache
def _pam_table(half: int) -> tuple[np.ndarray, np.ndarray]:
    """Gray code of each level index of 2**half-PAM, and the level of each code.

    Index i, at level ``2**half - 1 - 2i``, has code ``i ^ (i >> 1)``.
    """
    i = np.arange(1 << half)
    codes = (i ^ (i >> 1)).astype(np.uint8)
    levels = np.empty_like(i)
    levels[codes] = i[-1] - 2 * i
    codes.flags.writeable = levels.flags.writeable = False  # cached: shared by every call
    return codes, levels


def qam_map(bits: np.ndarray, order: int) -> np.ndarray:
    """Gray-coded square QAM with unit average symbol energy.

    `bits` is a flat 0/1 array whose length is a multiple of log2(order);
    each symbol takes its first half of bits on the in-phase axis and the
    second half on the quadrature axis. Returns a 1-D complex symbol vector.
    """
    if order not in QAM_ORDERS:
        raise ValueError(f"unsupported QAM order {order}")
    bits = np.asarray(bits)
    not_bit = (bits != 0) & (bits != 1)
    if not_bit.any():
        raise ValueError(f"bits must be 0 or 1, got {bits[not_bit][0]}")
    bps = int(math.log2(order))
    if bits.ndim != 1 or bits.size % bps != 0:
        raise ValueError(f"bit count must be a multiple of {bps} for {order}-QAM")
    half = bps // 2
    groups = bits.astype(np.uint8, copy=False).reshape(-1, 2, half)  # (symbol, axis, bit)
    codes = groups[..., 0].astype(np.intp)
    for b in range(1, half):  # MSB first
        codes = codes << 1 | groups[..., b]
    levels = _pam_table(half)[1][codes]
    return qam_scale(order) * (levels[:, 0] + 1j * levels[:, 1])


def qam_demap(symbols: np.ndarray, order: int) -> np.ndarray:
    """Nearest-neighbor hard decisions back to bits (inverse of qam_map), as uint8."""
    if order not in QAM_ORDERS:
        raise ValueError(f"unsupported QAM order {order}")
    symbols = np.asarray(symbols, dtype=np.complex128).ravel()
    if not np.all(np.isfinite(symbols)):
        raise ValueError("cannot demap non-finite symbols")
    bps = int(math.log2(order))
    half = bps // 2
    levels = 1 << half
    scale = qam_scale(order)
    edge = (levels - 1) * scale  # outermost level: every symbol beyond it decides alike
    gray = _pam_table(half)[0]
    out = np.empty((symbols.size, bps), dtype=np.uint8)
    for pos, axis in ((0, symbols.real), (half, symbols.imag)):
        # clipped before the cast, so a huge finite symbol stays in range
        idx = np.rint(((levels - 1) - np.clip(axis, -edge, edge) / scale) / 2).astype(np.intp)
        codes = gray[idx]
        for b in range(half):
            out[:, pos + b] = (codes >> (half - 1 - b)) & 1
    return out.reshape(-1)


# ---------------------------------------------------------------------------
# SFFT pair
# ---------------------------------------------------------------------------

def sfft_inv(
    x_dd: np.ndarray, counter: CmCounter | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """Inverse SFFT: delay-Doppler -> time-frequency.

    Computes ``Y = F_M @ X @ F_N^H`` as M-point DFTs down the columns
    followed by N-point IDFTs across the rows (unitary throughout), into
    `out` (any strided view, as for :func:`~otfsim.numerics.dft`) when given.
    """
    x_dd = np.asarray(x_dd, dtype=np.complex128)
    if x_dd.ndim < 2:
        raise ValueError("expected an M x N delay-Doppler grid")
    y = dft(x_dd, axis=-2, counter=counter, stage="sfft_inv", out=out)
    return dft(y, axis=-1, inverse=True, counter=counter, stage="sfft_inv", out=y)


def sfft_windowed(
    z_tf: np.ndarray,
    window: np.ndarray,
    counter: CmCounter | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Windowed SFFT: time-frequency -> delay-Doppler.

    Computes ``F_M^H @ (Z diag(window)) @ F_N``. With the rectangular window
    this inverts :func:`sfft_inv` exactly. The result goes into `out` when
    given, which may be `z_tf` itself.
    """
    zw = apply_window(np.asarray(z_tf, dtype=np.complex128), window, counter, out)
    dft(zw, axis=-2, inverse=True, counter=counter, stage="sfft", out=zw)
    return dft(zw, axis=-1, counter=counter, stage="sfft", out=zw)


# ---------------------------------------------------------------------------
# Receive windows
# ---------------------------------------------------------------------------

def apply_window(
    y: np.ndarray,
    window: np.ndarray,
    counter: CmCounter | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Scale column n of the grids `y` (..., M, N), OFDM symbol n, by the
    receive window's coefficient ``window[n]``; ``apply_window(y, 1 / window)``
    undoes it. Refuses a window whose shape is not (N,). The `window` stage is
    charged MN/2 CMs per grid whatever the coefficients (audit convention).
    The result goes into `out` when given, which may be `y` itself.
    """
    m, n = np.shape(y)[-2:]
    if np.shape(window) != (n,):
        raise ValueError(f"window of shape {np.shape(window)} does not match N = {n}")
    if counter is not None:
        counter.add("window", (np.size(y) // (m * n)) * ((m * n) // 2))
    return np.multiply(y, window, out=out)


def make_window(kind: str, n: int, *, rho: float = 0.25) -> np.ndarray:
    """The N coefficients of a receive window: rectangular or time-tapered.

    The time-tapered window is a raised-cosine edge taper with roll-off
    ``rho``: the first and last ``ceil(rho * N / 2)`` symbols ramp smoothly,
    the middle stays flat, and the result is normalized so that
    ``sum(|wr|^2) / N == 1``.
    """
    if kind not in WINDOW_KINDS:
        raise ValueError(f"window kind must be one of {WINDOW_KINDS}, got {kind!r}")
    if kind == "rectangular":
        return np.ones(n)
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"taper roll-off must be in [0, 1], got {rho}")
    wr = np.ones(n)
    taper_len = math.ceil(rho * n / 2)
    if taper_len > 0:
        ramp = 0.5 * (1.0 - np.cos(np.pi * (np.arange(taper_len) + 0.5) / taper_len))
        wr[:taper_len] *= ramp
        wr[n - taper_len :] *= ramp[::-1]
        wr /= np.sqrt(np.mean(np.abs(wr) ** 2))
    return wr
