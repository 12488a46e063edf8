"""Linear time-varying channel simulation and its delay-Doppler image.

A channel is a set of taps ``h(kappa, ell)`` over absolute sample index
kappa and delay ell. Two parameterizations are provided:

* :class:`LtvChannel`: discrete taps with complex gain, normalized Doppler
  (cycles per sample) and phase; gains vary continuously with kappa.
* :class:`BlockFadingChannel`: per-OFDM-symbol constant tap gains, the
  regime in which the per-symbol channel matrices are circulant and the
  end-to-end response is an exact 2-D circular convolution.

Either one gives its gains only at its tap delays. :func:`symbol_gains`
reads them at the samples each OFDM symbol keeps after CP removal, which
are the entries of the per-symbol channel matrices ``H_n`` (see
``otfsim.detect``); the windowed delay-Doppler response follows from the
first columns of the ``H_n`` by one FFT across symbols.
"""

from __future__ import annotations

import cmath
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .grids import ModemConfig, apply_window
from .numerics import as_array, check_int, check_noise_var, is_integer, is_real, require


@dataclass(frozen=True)
class ChannelTap:
    delay: int
    gain: complex
    doppler: float = 0.0  # cycles per sample
    phase: float = 0.0  # radians

    def __post_init__(self):
        object.__setattr__(self, "delay", check_int("tap delay", self.delay))
        kinds = (("gain", numbers.Complex), ("doppler", numbers.Real), ("phase", numbers.Real))
        for name, kind in kinds:
            value = getattr(self, name)
            ok = isinstance(value, kind) and not isinstance(value, bool) and cmath.isfinite(value)
            require(ok, f"tap {name}", f"a finite {kind.__name__.lower()} number", value)


@dataclass(frozen=True, eq=False)
class LtvChannel:
    """Tapped-delay-line channel with per-tap Doppler shift and phase.

    ``h(kappa, ell) = sum over taps p with delay ell of
    gain_p * exp(j * (2*pi*doppler_p*kappa + phase_p))``.
    """

    taps: tuple[ChannelTap, ...]

    def __post_init__(self):
        taps = tuple(self.taps) if isinstance(self.taps, (list, tuple)) else ()
        ok = taps and all(isinstance(tap, ChannelTap) for tap in taps)
        require(ok, "taps", "a non-empty sequence of ChannelTap", self.taps)
        object.__setattr__(self, "taps", taps)

    @property
    def length(self) -> int:
        """Channel length L = 1 + max delay."""
        return 1 + max(tap.delay for tap in self.taps)

    def coeffs(self, kappa: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The tap delays, ascending, and their gains h(kappa, delay) at absolute
        sample indices, shape (len(kappa), number of delays); taps that share a
        delay are summed."""
        kappa = np.asarray(kappa, dtype=np.float64)
        delays = sorted({tap.delay for tap in self.taps})
        h = np.zeros((kappa.size, len(delays)), dtype=np.complex128)
        # a phase that overflows gives NaN gains, which every caller refuses
        with np.errstate(over="ignore", invalid="ignore"):
            for tap in self.taps:
                h[:, delays.index(tap.delay)] += tap.gain * np.exp(
                    1j * (2 * np.pi * tap.doppler * kappa + tap.phase)
                )
        return np.array(delays), h


@dataclass(frozen=True, eq=False)
class BlockFadingChannel:
    """Channel constant within each OFDM symbol, varying across symbols.

    `gains` has shape (N, L): row n is the length-L impulse response active
    during symbol n (CP included). `sym_len` is the symbol length in samples.
    """

    gains: np.ndarray
    sym_len: int

    def __post_init__(self):
        gains = np.atleast_2d(as_array("gains", self.gains))
        require(gains.ndim == 2 and gains.size, "gains", "a non-empty (N, L) array", gains)
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "sym_len", check_int("sym_len", self.sym_len, 1))

    @property
    def length(self) -> int:
        return self.gains.shape[1]

    def coeffs(self, kappa: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The delays whose gains are not all zero, and those gains at absolute
        sample indices, shape (len(kappa), number of delays)."""
        kappa = np.asarray(kappa)
        idx = np.clip(kappa.astype(np.int64) // self.sym_len, 0, self.gains.shape[0] - 1)
        delays = np.flatnonzero(self.gains.any(axis=0))
        return delays, self.gains[idx[:, None], delays]


def apply_channel(signal: np.ndarray, ch) -> np.ndarray:
    """Run a frame, or frames (..., L), through the time-varying convolution.

    ``r(kappa) = sum_ell h(kappa, ell) * s(kappa - ell)`` with zero initial
    state (``s(kappa) = 0`` for kappa < 0) and no noise. Each frame starts at
    kappa = 0; the gains h are computed once for all of them, and only the
    tap delays are visited.
    """
    signal = as_array("signal", signal, ndim=1, finite=True)
    size = signal.shape[-1]
    delays, h = ch.coeffs(np.arange(size))
    out = np.zeros_like(signal)
    for j, ell in enumerate(delays[delays < size]):
        out[..., ell:] += h[ell:, j] * signal[..., : size - ell]
    return out


def add_awgn(signal: np.ndarray, noise_var: float, seed) -> np.ndarray:
    """Add circularly-symmetric complex Gaussian noise of the given variance.

    `seed` may be an int, a SeedSequence, or a Generator; the output is
    deterministic for a fixed seed. For frames of shape (..., L), `seed` is
    a sequence of them, one per frame in row-major order, and each frame's
    noise is drawn from its own generator alone.
    """
    noise_var = check_noise_var(noise_var)
    signal = as_array("signal", signal, ndim=1)
    if noise_var == 0:
        return signal.copy()
    seeds = [seed] if signal.ndim == 1 else seed if isinstance(seed, (list, tuple)) else []
    frames = signal.reshape(math.prod(signal.shape[:-1]), signal.shape[-1])
    try:
        rngs = [np.random.default_rng(s) for s in seeds]  # a Generator is kept as it is
    except (TypeError, ValueError):
        rngs = []
    need = "an int, SeedSequence or Generator"
    if signal.ndim > 1:
        need = f"a sequence of {len(frames)} seeds, one per frame of signal, each {need}"
    require(len(rngs) == len(frames), "seed", need, seed)
    scale = np.sqrt(noise_var / 2)
    noise = np.empty_like(frames)
    for row, rng in zip(noise, rngs):
        row.real = rng.normal(scale=scale, size=row.size)
        row.imag = rng.normal(scale=scale, size=row.size)
    noise += frames
    return noise.reshape(signal.shape)


def symbol_gains(ch, cfg: ModemConfig) -> tuple[np.ndarray, np.ndarray]:
    """The tap delays and their gains ``gains[n, i, j] = h(n*(M + cp_len) +
    cp_len + i, delays[j])`` at the samples symbol n keeps, shape (N, M, D).

    For a channel no longer than cp_len + 1, CP removal discards every sample
    that the previous symbol leaks into and the CP makes the convolution over
    the kept samples circular: ``H_n[i, (i - delays[j]) mod M] = gains[n, i, j]``.
    A longer channel is refused, as its inter-symbol interference reaches the
    kept samples, which the per-symbol model omits.
    """
    if ch.length > cfg.cp_len + 1:
        raise ValueError(
            f"channel length {ch.length} exceeds Mcp + 1 = {cfg.cp_len + 1}; the "
            "per-symbol model would ignore the inter-symbol interference it causes"
        )
    kappa = np.arange(cfg.N)[:, None] * cfg.sym_len + cfg.cp_len + np.arange(cfg.M)
    delays, gains = ch.coeffs(kappa.ravel())
    return delays, gains.reshape(cfg.N, cfg.M, -1)


def build_dd_response(ch, window: np.ndarray, cfg: ModemConfig) -> np.ndarray:
    """Windowed delay-Doppler channel impulse response (M x N).

    Column l is the first column of the l-th windowed Doppler tap ``(1/N)
    sum_n window[n] H_n exp(-j*2*pi*l*n/N)``. The first column of ``H_n`` holds
    ``h(n*(M + cp_len) + cp_len + ell, ell)`` at row ell (see
    :func:`symbol_gains`), so it is read from the tap gains directly.
    """
    delays, gains = symbol_gains(ch, cfg)
    first = np.zeros((cfg.M, cfg.N), dtype=np.complex128)
    first[delays] = gains[:, delays, np.arange(delays.size)].T
    return np.fft.fft(apply_window(first, window, out=first), axis=1) / cfg.N


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def load_channel(path) -> LtvChannel:
    with open(path) as fh:
        spec = json.load(fh)
    return channel_from_spec(spec)


#: keys of one tap in a channel spec, the test of their values and what it
#: asks for; every one but "delay" defaults to 0
_TAP_RULES = {
    "delay": (lambda v: is_integer(v) and v >= 0, "a non-negative integer"),
    **dict.fromkeys(
        ("gain_re", "gain_im", "doppler", "phase"),
        (lambda v: is_real(v) and math.isfinite(v), "a finite number"),
    ),
}


def channel_from_spec(spec: dict) -> LtvChannel:
    """Build an LtvChannel from the JSON tap-list structure.

    `spec` is ``{"taps": [...]}`` and each tap an object with a non-negative
    integer ``delay`` and optional finite numbers ``gain_re``, ``gain_im``,
    ``doppler`` and ``phase``. Any other key, in the spec or in a tap, and
    any other value is refused, naming the tap, key and value
    (``taps[0].delay: must be a non-negative integer, got -1``).
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
            if key not in _TAP_RULES:
                problems.append(f"taps[{i}].{key}: unknown key")
            elif not _TAP_RULES[key][0](value):
                problems.append(f"taps[{i}].{key}: must be {_TAP_RULES[key][1]}, got {value!r}")
    if problems:
        raise ValueError("channel spec " + "; ".join(problems))
    if not taps:
        raise ValueError("channel needs at least one tap")
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
