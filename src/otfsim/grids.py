"""Signal-domain grids: modem configuration, QAM mapping, SFFT transforms,
and separable receive windows.

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

import numpy as np

from .numerics import CmCounter, dft

QAM_ORDERS = (4, 16, 64)

WINDOW_KINDS = ("rectangular", "time-tapered")


@dataclass(frozen=True)
class ModemConfig:
    """Frame geometry and noise level shared by every pipeline stage.

    M : subcarriers / delay bins, N : OFDM symbols / Doppler bins,
    cp_len : cyclic-prefix length in samples, noise_var : linear noise
    variance at the channel output.
    """

    M: int
    N: int
    cp_len: int = 0
    qam_order: int = 4
    noise_var: float = 0.0

    def __post_init__(self):
        if self.M < 2:
            raise ValueError(f"M must be >= 2, got {self.M}")
        if self.N < 2:
            raise ValueError(f"N must be >= 2, got {self.N}")
        if not 0 <= self.cp_len < self.M:
            raise ValueError(f"cp_len must satisfy 0 <= cp_len < M, got {self.cp_len}")
        if self.qam_order not in QAM_ORDERS:
            raise ValueError(f"qam_order must be one of {QAM_ORDERS}, got {self.qam_order}")
        if self.noise_var < 0:
            raise ValueError("noise_var must be non-negative")

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

def _gray_encode(i: np.ndarray) -> np.ndarray:
    return i ^ (i >> 1)


def _gray_decode(g: np.ndarray, nbits: int) -> np.ndarray:
    i = g.copy()
    shift = 1
    while shift < nbits:
        i = i ^ (i >> shift)
        shift *= 2
    return i


def qam_scale(order: int) -> float:
    """Per-axis amplitude scale giving unit average symbol energy."""
    return math.sqrt(3.0 / (2.0 * (order - 1)))


def _axis_levels(bits: np.ndarray, nbits: int) -> np.ndarray:
    """Map per-axis bit groups (MSB first) to Gray-coded PAM levels."""
    weights = 1 << np.arange(nbits - 1, -1, -1)
    codes = (bits * weights).sum(axis=-1)
    idx = _gray_decode(codes, nbits)
    return ((1 << nbits) - 1) - 2 * idx


def qam_map(bits: np.ndarray, order: int) -> np.ndarray:
    """Gray-coded square QAM with unit average symbol energy.

    `bits` is a flat 0/1 array whose length is a multiple of log2(order);
    each symbol takes its first half of bits on the in-phase axis and the
    second half on the quadrature axis. Returns a 1-D complex symbol vector.
    """
    if order not in QAM_ORDERS:
        raise ValueError(f"unsupported QAM order {order}")
    bits = np.asarray(bits, dtype=np.int64)
    bps = int(math.log2(order))
    if bits.ndim != 1 or bits.size % bps != 0:
        raise ValueError(f"bit count must be a multiple of {bps} for {order}-QAM")
    groups = bits.reshape(-1, bps)
    half = bps // 2
    re = _axis_levels(groups[:, :half], half)
    im = _axis_levels(groups[:, half:], half)
    return qam_scale(order) * (re + 1j * im)


def qam_demap(symbols: np.ndarray, order: int) -> np.ndarray:
    """Nearest-neighbor hard decisions back to bits (inverse of qam_map)."""
    if order not in QAM_ORDERS:
        raise ValueError(f"unsupported QAM order {order}")
    symbols = np.asarray(symbols, dtype=np.complex128).ravel()
    if not np.all(np.isfinite(symbols)):
        raise ValueError("cannot demap non-finite symbols")
    bps = int(math.log2(order))
    half = bps // 2
    levels = 1 << half
    scale = qam_scale(order)
    out = np.empty((symbols.size, bps), dtype=np.int64)
    for pos, axis in ((0, symbols.real), (half, symbols.imag)):
        idx = np.rint(((levels - 1) - axis / scale) / 2).astype(np.int64)
        idx = np.clip(idx, 0, levels - 1)
        codes = _gray_encode(idx)
        for b in range(half):
            out[:, pos + b] = (codes >> (half - 1 - b)) & 1
    return out.reshape(-1)


# ---------------------------------------------------------------------------
# SFFT pair
# ---------------------------------------------------------------------------

def sfft_inv(x_dd: np.ndarray, counter: CmCounter | None = None) -> np.ndarray:
    """Inverse SFFT: delay-Doppler -> time-frequency.

    Computes ``Y = F_M @ X @ F_N^H`` as M-point DFTs down the columns
    followed by N-point IDFTs across the rows (unitary throughout).
    """
    x_dd = np.asarray(x_dd, dtype=np.complex128)
    if x_dd.ndim < 2:
        raise ValueError("expected an M x N delay-Doppler grid")
    y = dft(x_dd, axis=-2, counter=counter, stage="sfft_inv")
    return dft(y, axis=-1, inverse=True, counter=counter, stage="sfft_inv")


def sfft_windowed(
    z_tf: np.ndarray,
    window: "SeparableWindow",
    counter: CmCounter | None = None,
) -> np.ndarray:
    """Windowed SFFT: time-frequency -> delay-Doppler.

    Computes ``F_M^H @ (diag(wc) Z diag(wr)) @ F_N``. With the rectangular
    window this inverts :func:`sfft_inv` exactly. The windowing stage is
    charged MN/2 CMs regardless of window content (audit convention).
    """
    z_tf = np.asarray(z_tf, dtype=np.complex128)
    m, n = z_tf.shape[-2:]
    window.check_dims(m, n)
    zw = window.wc[:, None] * z_tf * window.wr
    if counter is not None:
        counter.add("window", (zw.size // (m * n)) * ((m * n) // 2))
    x = dft(zw, axis=-2, inverse=True, counter=counter, stage="sfft")
    return dft(x, axis=-1, counter=counter, stage="sfft")


# ---------------------------------------------------------------------------
# Receive windows
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SeparableWindow:
    """Separable receive window ``w[m, n] = wc[m] * wr[n]``.

    `wc` windows the frequency (column) direction, `wr` the time (row /
    OFDM symbol) direction.
    """

    wc: np.ndarray
    wr: np.ndarray
    kind: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "wc", np.asarray(self.wc, dtype=np.complex128))
        object.__setattr__(self, "wr", np.asarray(self.wr, dtype=np.complex128))
        if self.wc.ndim != 1 or self.wr.ndim != 1:
            raise ValueError("window factors must be 1-D")

    def check_dims(self, m: int, n: int) -> None:
        if self.wc.size != m or self.wr.size != n:
            raise ValueError(
                f"window sized ({self.wc.size}, {self.wr.size}) does not match grid ({m}, {n})"
            )

    @property
    def is_rect_freq(self) -> bool:
        return bool(np.all(self.wc == 1.0))

    def apply(self, y: np.ndarray, power: int = 1) -> np.ndarray:
        """Apply the window (`power` 1) or undo it (`power` -1) after the row IDFT.

        `y` holds grids (..., M, N) whose column n belongs to OFDM symbol n,
        as a demodulated grid is after its N-point row IDFT. There the window
        acts as ``Wbar_c y diag(wr)``, with ``Wbar_c = F_M^H diag(wc) F_M``:
        column n is scaled by ``wr[n]`` and, unless `wc` is all ones, filtered
        by `wc` through an M-point FFT and IFFT.
        """
        if power not in (1, -1):
            raise ValueError(f"power must be 1 or -1, got {power}")
        if self.is_rect_freq:
            return y * self.wr ** power
        w = np.outer(self.wc, self.wr) ** power
        return np.fft.ifft(np.fft.fft(y, axis=-2) * w, axis=-2)


def make_window(kind: str, m: int, n: int, rho: float = 0.25) -> SeparableWindow:
    """Build a receive window: rectangular in frequency, optionally tapered in time.

    The frequency factor is always all-ones (a frequency taper would smear
    the channel response along delay). The time factor is either rectangular
    or a raised-cosine edge taper with roll-off ``rho``: the first and last
    ``ceil(rho * N / 2)`` symbols ramp smoothly, the middle stays flat, and
    the result is normalized so that ``sum(|wr|^2) / N == 1``.
    """
    if kind not in WINDOW_KINDS:
        raise ValueError(f"window kind must be one of {WINDOW_KINDS}, got {kind!r}")
    wc = np.ones(m)
    if kind == "rectangular":
        return SeparableWindow(wc, np.ones(n), kind=kind)
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"taper roll-off must be in [0, 1], got {rho}")
    wr = np.ones(n)
    taper_len = math.ceil(rho * n / 2)
    if taper_len > 0:
        ramp = 0.5 * (1.0 - np.cos(np.pi * (np.arange(taper_len) + 0.5) / taper_len))
        wr[:taper_len] *= ramp
        wr[n - taper_len :] *= ramp[::-1]
        wr /= np.sqrt(np.mean(np.abs(wr) ** 2))
    return SeparableWindow(wc, wr, kind=kind)

