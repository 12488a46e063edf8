"""Linear time-varying channel simulation and its delay-Doppler image.

A channel is a set of taps ``h(kappa, ell)`` over absolute sample index
kappa and delay ell. Two parameterizations are provided:

* :class:`LtvChannel`: discrete taps with complex gain, normalized Doppler
  (cycles per sample) and phase; gains vary continuously with kappa.
* :class:`BlockFadingChannel`: per-OFDM-symbol constant tap gains, the
  regime in which the per-symbol channel matrices are circulant and the
  end-to-end response is an exact 2-D circular convolution.

From either, :func:`channel_blocks` builds all N per-symbol matrices
``H_n`` exactly, in one pass; the windowed delay-Doppler response follows
from their first columns by one FFT across symbols.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass

import numpy as np

from .grids import ModemConfig, SeparableWindow


@dataclass(frozen=True)
class ChannelTap:
    delay: int
    gain: complex
    doppler: float = 0.0  # cycles per sample
    phase: float = 0.0  # radians

    def __post_init__(self):
        if self.delay < 0:
            raise ValueError("tap delay must be a non-negative sample count")
        if not np.isfinite([self.gain, self.doppler, self.phase]).all():
            raise ValueError(f"tap gain, doppler and phase must be finite, got {self!r}")


@dataclass(frozen=True, eq=False)
class LtvChannel:
    """Tapped-delay-line channel with per-tap Doppler shift and phase.

    ``h(kappa, ell) = sum over taps p with delay ell of
    gain_p * exp(j * (2*pi*doppler_p*kappa + phase_p))``.
    """

    taps: tuple[ChannelTap, ...]

    def __post_init__(self):
        taps = tuple(self.taps)
        if not taps:
            raise ValueError("channel needs at least one tap")
        object.__setattr__(self, "taps", taps)

    @property
    def length(self) -> int:
        """Channel length L = 1 + max delay."""
        return 1 + max(tap.delay for tap in self.taps)

    def coeffs(self, kappa: np.ndarray) -> np.ndarray:
        """Tap gains h(kappa, ell) at absolute sample indices; shape (len(kappa), L)."""
        kappa = np.asarray(kappa, dtype=np.float64)
        h = np.zeros((kappa.size, self.length), dtype=np.complex128)
        # a phase that overflows gives NaN gains, which every caller refuses
        with np.errstate(over="ignore", invalid="ignore"):
            for tap in self.taps:
                h[:, tap.delay] += tap.gain * np.exp(
                    1j * (2 * np.pi * tap.doppler * kappa + tap.phase)
                )
        return h


@dataclass(frozen=True, eq=False)
class BlockFadingChannel:
    """Channel constant within each OFDM symbol, varying across symbols.

    `gains` has shape (N, L): row n is the length-L impulse response active
    during symbol n (CP included). `sym_len` is the symbol length in samples.
    """

    gains: np.ndarray
    sym_len: int

    def __post_init__(self):
        gains = np.atleast_2d(np.asarray(self.gains, dtype=np.complex128))
        if gains.size == 0:
            raise ValueError("channel needs at least one tap")
        if self.sym_len < 1:
            raise ValueError("sym_len must be positive")
        object.__setattr__(self, "gains", gains)

    @property
    def length(self) -> int:
        return self.gains.shape[1]

    def coeffs(self, kappa: np.ndarray) -> np.ndarray:
        kappa = np.asarray(kappa)
        idx = np.clip(kappa.astype(np.int64) // self.sym_len, 0, self.gains.shape[0] - 1)
        return self.gains[idx]


def apply_channel(signal: np.ndarray, ch) -> np.ndarray:
    """Run a frame, or frames (..., L), through the time-varying convolution.

    ``r(kappa) = sum_ell h(kappa, ell) * s(kappa - ell)`` with zero initial
    state (``s(kappa) = 0`` for kappa < 0) and no noise. Each frame starts at
    kappa = 0; the gains h are computed once for all of them, and only the
    delays whose gains are not all zero are visited.
    """
    signal = np.asarray(signal, dtype=np.complex128)
    if not np.isfinite(signal).all():
        raise ValueError("signal has non-finite samples")
    size = signal.shape[-1]
    h = ch.coeffs(np.arange(size))
    out = np.zeros_like(signal)
    for ell in np.flatnonzero(h[:, :size].any(axis=0)):
        out[..., ell:] += h[ell:, ell] * signal[..., : size - ell]
    return out


def add_awgn(signal: np.ndarray, noise_var: float, seed) -> np.ndarray:
    """Add circularly-symmetric complex Gaussian noise of the given variance.

    `seed` may be an int, a SeedSequence, or a Generator; the output is
    deterministic for a fixed seed. For frames of shape (..., L), `seed` is
    a sequence of them, one per frame in row-major order, and each frame's
    noise is drawn from its own generator alone.
    """
    if noise_var < 0:
        raise ValueError("noise variance must be non-negative")
    signal = np.asarray(signal, dtype=np.complex128)
    if noise_var == 0:
        return signal.copy()
    seeds = [seed] if signal.ndim == 1 else seed
    frames = signal.reshape(-1, signal.shape[-1])
    if not isinstance(seeds, (list, tuple)) or len(seeds) != len(frames):
        raise ValueError(f"{len(frames)} frames need a sequence of {len(frames)} seeds")
    scale = np.sqrt(noise_var / 2)
    noise = np.empty_like(frames)
    for row, s in zip(noise, seeds):
        rng = s if isinstance(s, np.random.Generator) else np.random.default_rng(s)
        row.real = rng.normal(scale=scale, size=row.size)
        row.imag = rng.normal(scale=scale, size=row.size)
    noise += frames
    return noise.reshape(signal.shape)


def channel_blocks(ch, cfg: ModemConfig) -> np.ndarray:
    """Per-symbol channel matrices ``H_n = R_cp @ H_breve_n @ A_cp``, shape (N, M, M).

    ``H_breve_n`` is the time-varying convolution over symbol n's samples.
    For a channel no longer than cp_len + 1, CP removal discards every
    sample that the previous symbol leaks into and the CP makes the
    convolution over the kept samples circular, so
    ``H_n[i, (i - ell) mod M] = h(n*(M + cp_len) + cp_len + i, ell)``.
    A longer channel is refused: its inter-symbol interference reaches the
    kept samples, which the per-symbol model omits.
    """
    if ch.length > cfg.cp_len + 1:
        raise ValueError(
            f"channel length {ch.length} exceeds Mcp + 1 = {cfg.cp_len + 1}; the "
            "per-symbol model would ignore the inter-symbol interference it causes"
        )
    rows = np.arange(cfg.M)
    kappa = np.arange(cfg.N)[:, None] * cfg.sym_len + cfg.cp_len + rows
    h = ch.coeffs(kappa.ravel()).reshape(cfg.N, cfg.M, ch.length)
    blocks = np.zeros((cfg.N, cfg.M, cfg.M), dtype=np.complex128)
    for ell in np.flatnonzero(h.any(axis=(0, 1))):
        blocks[:, rows, (rows - ell) % cfg.M] = h[:, :, ell]
    return blocks


def build_dd_response(blocks: np.ndarray, window: SeparableWindow) -> np.ndarray:
    """Windowed delay-Doppler channel impulse response (M x N).

    `blocks` holds the per-symbol channel blocks ``H_n`` (shape (N, M, M),
    see ``channel_blocks``) and `window` the receive window. Column l is the
    first column of the l-th windowed Doppler tap ``(1/N) sum_n Wbar_c wr[n]
    H_n exp(-j*2*pi*l*n/N)``; only the first columns are windowed.
    """
    first = window.apply(blocks[:, :, 0].T)
    return np.fft.fft(first, axis=1) / blocks.shape[0]


def random_ltv_channel(
    rng: np.random.Generator,
    n_taps: int,
    max_delay: int,
    max_doppler: float,
) -> LtvChannel:
    """Random unit-power LTV channel with distinct delays in [0, max_delay]."""
    delays = rng.choice(max_delay + 1, size=min(n_taps, max_delay + 1), replace=False)
    if 0 not in delays:
        delays[0] = 0  # keep a line-of-sight tap so the gain normalization is meaningful
    gains = rng.normal(size=delays.size) + 1j * rng.normal(size=delays.size)
    gains /= np.linalg.norm(gains)
    taps = tuple(
        ChannelTap(
            delay=int(d),
            gain=complex(g),
            doppler=float(rng.uniform(-max_doppler, max_doppler)),
            phase=float(rng.uniform(0, 2 * np.pi)),
        )
        for d, g in zip(delays, gains)
    )
    return LtvChannel(taps)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def load_channel(path) -> LtvChannel:
    with open(path) as fh:
        spec = json.load(fh)
    return channel_from_spec(spec)


#: keys of one tap in a channel spec and the type of their values; every
#: one but "delay" defaults to 0
_TAP_TYPES = {
    "delay": numbers.Integral,
    "gain_re": numbers.Real,
    "gain_im": numbers.Real,
    "doppler": numbers.Real,
    "phase": numbers.Real,
}


def channel_from_spec(spec: dict) -> LtvChannel:
    """Build an LtvChannel from the JSON tap-list structure.

    `spec` is ``{"taps": [...]}`` and each tap an object with an integer
    ``delay`` and optional numbers ``gain_re``, ``gain_im``, ``doppler`` and
    ``phase``. Any other key, in the spec or in a tap, and any value of the
    wrong type is refused, naming the tap and key (``taps[0].delay``).
    """
    taps = spec.get("taps") if isinstance(spec, dict) else None
    if not isinstance(taps, (list, tuple)) or not all(
        isinstance(t, dict) and "delay" in t for t in taps
    ):
        raise ValueError(
            "channel spec must be a mapping with a 'taps' list of objects with a 'delay'"
        )
    problems = [f"{key}: unknown key" for key in spec if key != "taps"]
    for i, tap in enumerate(taps):
        for key, value in tap.items():
            if key not in _TAP_TYPES:
                problems.append(f"taps[{i}].{key}: unknown key")
            elif isinstance(value, bool) or not isinstance(value, _TAP_TYPES[key]):
                need = "an integer" if key == "delay" else "a number"
                problems.append(f"taps[{i}].{key}: must be {need}, got {value!r}")
    if problems:
        raise ValueError("channel spec " + "; ".join(problems))
    return LtvChannel(
        tuple(
            ChannelTap(
                delay=int(t["delay"]),
                gain=complex(t.get("gain_re", 0.0), t.get("gain_im", 0.0)),
                doppler=float(t.get("doppler", 0.0)),
                phase=float(t.get("phase", 0.0)),
            )
            for t in taps
        )
    )


def dump_dd_response(path, response: np.ndarray) -> None:
    """Write a delay-Doppler response as CSV: k,l,re,im,abs."""
    response = np.asarray(response)
    with open(path, "w") as fh:
        fh.write("k,l,re,im,abs\n")
        for k in range(response.shape[0]):
            for l in range(response.shape[1]):
                z = complex(response[k, l])
                fh.write(f"{k},{l},{z.real:.17g},{z.imag:.17g},{abs(z):.17g}\n")
