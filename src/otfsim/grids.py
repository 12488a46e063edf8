"""Signal-domain grids: modem configuration, QAM mapping, SFFT transforms,
and receive windows.

Grid conventions (all plain complex ndarrays):

* delay-Doppler grid ``X``: shape (M, N), element ``X[k, l]`` at delay bin k,
  Doppler bin l;
* time-frequency grid ``Y``/``Z``: shape (M, N), element at subcarrier m,
  OFDM symbol n;
* frame signal: 1-D vector of length ``(M + cp_len) * N``, the column-major
  serialization of the per-symbol sample matrix, each symbol's CP first.

The modems, the channel and the detectors also take a batch of frames:
grids of shape (..., M, N) and frames of shape (..., L), one per leading
index, each processed as it would be alone (by the detectors, up to
rounding; see ``otfsim.detect``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (
    as_array, charge, check, check_int, check_out, choice_rule, dft, is_real, require,
)

QAM_ORDERS = (4, 16, 64)

WINDOW_KINDS = ("rectangular", "time-tapered")


def cp_rule(cp_len: int, M: int) -> tuple[bool, str]:
    """Whether the integer `cp_len` is shorter than a symbol's M samples, and that need."""
    return cp_len < M, f"< M = {M}"


@dataclass(frozen=True)
class ModemConfig:
    """Frame geometry and layout, shared by every pipeline stage.

    M : subcarriers / delay bins, N : OFDM symbols / Doppler bins,
    cp_len : cyclic-prefix length in samples.
    """

    M: int
    N: int
    cp_len: int = 0

    def __post_init__(self):
        for name, low in (("M", 2), ("N", 2), ("cp_len", 0)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), low))
        check("cp_len", self.cp_len, cp_rule, self.M)

    @property
    def sym_len(self) -> int:
        """Samples per OFDM symbol including the cyclic prefix."""
        return self.M + self.cp_len

    @property
    def frame_len(self) -> int:
        return self.sym_len * self.N

    def _columns(self, frames: np.ndarray) -> np.ndarray:
        """Frames (..., L) as symbol columns (..., M + cp_len, N), CP first: a view."""
        return np.swapaxes(frames.reshape(*frames.shape[:-1], self.N, self.sym_len), -1, -2)

    def symbols(self, frames: np.ndarray) -> np.ndarray:
        """The samples each OFDM symbol keeps after CP removal, as grids (..., M, N):
        entry (i, n) is sample ``n*(M + cp_len) + cp_len + i`` of its frame (..., L).
        A view, so writing it writes the frames."""
        return self._columns(frames)[..., self.cp_len :, :]

    def insert_cp(self, frames: np.ndarray) -> np.ndarray:
        """Copy the last cp_len samples of each symbol of `frames` (..., L) in
        front of it, in place, and return `frames`."""
        columns = self._columns(frames)
        columns[..., : self.cp_len, :] = columns[..., self.M :, :]
        return frames

    def check_frame(self, frame) -> np.ndarray:
        """The argument `frame`, frames (..., L), as a finite complex128 array."""
        frame = as_array("frame", frame, finite=True)
        need = f"of shape (..., {self.frame_len})"
        require(frame.shape[-1:] == (self.frame_len,), "frame", need, frame)
        return frame

    def check_grid(self, grid, name: str) -> np.ndarray:
        """The argument `name`, grids (..., M, N), as a finite complex128 array."""
        grid = as_array(name, grid, finite=True)
        need = f"of shape (..., {self.M}, {self.N})"
        require(grid.shape[-2:] == (self.M, self.N), name, need, grid)
        return grid

    def check_window(self, window) -> np.ndarray:
        """The argument `window`, the N coefficients of a receive window, as an array."""
        window = as_array("window", window, dtype=None)
        require(window.shape == (self.N,), "window", f"of shape ({self.N},)", window)
        return window


# ---------------------------------------------------------------------------
# QAM mapping
# ---------------------------------------------------------------------------

def qam_scale(order: int) -> float:
    """Per-axis amplitude scale giving unit average symbol energy."""
    return math.sqrt(3.0 / (2.0 * (order - 1)))


def _pam_table(half: int) -> tuple[np.ndarray, np.ndarray]:
    """Gray code of each level index of 2**half-PAM, and the level of each code.

    Index i, at level ``2**half - 1 - 2i``, has code ``i ^ (i >> 1)``.
    """
    i = np.arange(1 << half)
    codes = (i ^ (i >> 1)).astype(np.uint8)
    levels = np.empty_like(i)
    levels[codes] = i[-1] - 2 * i
    return codes, levels


def qam_map(bits: np.ndarray, order: int) -> np.ndarray:
    """Gray-coded square QAM with unit average symbol energy.

    `bits` is a flat 0/1 array whose length is a multiple of log2(order);
    each symbol takes its first half of bits on the in-phase axis and the
    second half on the quadrature axis. Returns a 1-D complex symbol vector.
    """
    bps = int(math.log2(check("order", order, choice_rule, QAM_ORDERS)))
    bits = as_array("bits", bits, dtype=None)
    need = f"a flat array of {bps}-bit groups for order = {order}"
    require(bits.ndim == 1 and bits.size % bps == 0, "bits", need, bits)
    not_bit = bits[(bits != 0) & (bits != 1) | (bits.dtype.kind == "c")]
    if not_bit.size:
        require(False, "bits", "0 or 1", not_bit[0].item())
    half = bps // 2
    groups = bits.astype(np.uint8, copy=False).reshape(-1, 2, half)  # (symbol, axis, bit)
    codes = groups[..., 0].astype(np.intp)
    for b in range(1, half):  # MSB first
        codes = codes << 1 | groups[..., b]
    levels = _pam_table(half)[1][codes]
    return qam_scale(order) * (levels[:, 0] + 1j * levels[:, 1])


def qam_demap(symbols: np.ndarray, order: int) -> np.ndarray:
    """Nearest-neighbor hard decisions back to bits (inverse of qam_map), as uint8."""
    bps = int(math.log2(check("order", order, choice_rule, QAM_ORDERS)))
    symbols = as_array("symbols", symbols, finite=True).ravel()
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

def sfft_inv(x_dd: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse SFFT: delay-Doppler -> time-frequency.

    Computes ``Y = F_M @ X @ F_N^H`` as M-point DFTs down the columns
    followed by N-point IDFTs across the rows (unitary throughout), into
    `out` (any strided view, as for :func:`~otfsim.numerics.dft`) when given.
    """
    x_dd = as_array("x_dd", x_dd, ndim=2)
    y = dft(x_dd, axis=-2, stage="sfft_inv", out=out)
    return dft(y, axis=-1, inverse=True, stage="sfft_inv", out=y)


def sfft_windowed(
    z_tf: np.ndarray, window: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Windowed SFFT: time-frequency -> delay-Doppler.

    Computes ``F_M^H @ (Z diag(window)) @ F_N``. With the rectangular window
    this inverts :func:`sfft_inv` exactly. The result goes into `out` when
    given, which may be `z_tf` itself.
    """
    zw = apply_window(as_array("z_tf", z_tf, ndim=2), window, out)
    dft(zw, axis=-2, inverse=True, stage="sfft", out=zw)
    return dft(zw, axis=-1, stage="sfft", out=zw)


# ---------------------------------------------------------------------------
# Receive windows
# ---------------------------------------------------------------------------

def apply_window(y: np.ndarray, window: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Scale column n of the grids `y` (..., M, N), OFDM symbol n, by the
    receive window's coefficient ``window[n]``; ``apply_window(y, 1 / window)``
    undoes it. Refuses a window that is not 1-D, and names both arguments
    when the window's length is not the width N of the grids. In a counting
    scope, the `window` stage is charged MN/2 CMs per grid whatever the
    coefficients (audit convention). The result goes into `out` when given,
    which may be `y` itself.
    """
    y = as_array("y", y, dtype=None, ndim=2)
    m, n = y.shape[-2:]
    window = as_array("window", window, dtype=None)
    require(window.ndim == 1, "window", f"of shape ({n},)", window)
    shapes = y.shape, window.shape
    require(shapes[1] == (n,), "y and window", "grids (..., M, N) and N coefficients", shapes)
    if out is not None:
        check_out(out, y.shape)
    charge("window", (np.size(y) // (m * n)) * ((m * n) // 2))
    return np.multiply(y, window, out=out)


def rho_rule(rho) -> tuple[bool, str]:
    """Whether `rho` is a roll-off :func:`make_window` takes, and that need in words."""
    return is_real(rho) and 0 <= rho <= 1, "a number in [0, 1]"


def make_window(kind: str, n: int, *, rho: float = 0.25) -> np.ndarray:
    """The N coefficients of a receive window: rectangular or time-tapered.

    The time-tapered window is a raised-cosine edge taper with roll-off
    ``rho``: the first and last ``ceil(rho * N / 2)`` symbols ramp smoothly,
    the middle stays flat, and the result is normalized so that
    ``sum(|wr|^2) / N == 1``.
    """
    wr = np.ones(check_int("n", n, 1))
    check("rho", rho, rho_rule)
    if check("kind", kind, choice_rule, WINDOW_KINDS) == "rectangular":
        return wr
    taper_len = math.ceil(rho * n / 2)
    if taper_len > 0:
        ramp = 0.5 * (1.0 - np.cos(np.pi * (np.arange(taper_len) + 0.5) / taper_len))
        wr[:taper_len] *= ramp
        wr[n - taper_len :] *= ramp[::-1]
        wr /= np.sqrt(np.mean(np.abs(wr) ** 2))
    return wr
