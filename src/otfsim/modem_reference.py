"""Reference OTFS modem: the literal SFFT/OFDM cascade.

Transmitter: inverse SFFT to time-frequency, per-symbol M-point IDFT,
cyclic-prefix insertion, column-major serialization. Receiver: CP removal,
per-symbol M-point DFT, time windowing, forward SFFT. This is the
correctness oracle for the low-complexity modem and the cost baseline for
the complexity audit.

The bare OFDM modulator/demodulator (SFFT stages bypassed) is also exposed
here so the audit can measure all three modem structures from one codebase.
"""

from __future__ import annotations

import numpy as np

from .grids import ModemConfig, sfft_inv, sfft_windowed
from .numerics import dft


def modulate_ofdm(y_tf: np.ndarray, cfg: ModemConfig) -> np.ndarray:
    """Plain OFDM modulator: per-symbol M-point IDFT, CP insertion, serialize."""
    y_tf = cfg.check_grid(y_tf, "y_tf")
    frame = np.empty((*y_tf.shape[:-2], cfg.frame_len), dtype=np.complex128)
    dft(y_tf, axis=-2, inverse=True, stage="ofdm_mod", out=cfg.symbols(frame))
    return cfg.insert_cp(frame)


def demodulate_ofdm(frame: np.ndarray, cfg: ModemConfig) -> np.ndarray:
    """Plain OFDM demodulator: CP removal and per-symbol M-point DFT."""
    return dft(cfg.symbols(cfg.check_frame(frame)), axis=-2, stage="ofdm_demod")


def modulate_reference(x_dd: np.ndarray, cfg: ModemConfig) -> np.ndarray:
    """Reference OTFS transmitter: inverse SFFT followed by OFDM modulation.

    Costs ``M*N*log2(M) + (M*N/2)*log2(N)`` CMs for power-of-two sizes.
    Every transform runs in place on the data samples of the fresh frames
    it returns.
    """
    x_dd = cfg.check_grid(x_dd, "x_dd")
    frame = np.empty((*x_dd.shape[:-2], cfg.frame_len), dtype=np.complex128)
    y_tf = sfft_inv(x_dd, out=cfg.symbols(frame))
    dft(y_tf, axis=-2, inverse=True, stage="ofdm_mod", out=y_tf)
    return cfg.insert_cp(frame)


def demodulate_reference(frame: np.ndarray, window: np.ndarray, cfg: ModemConfig) -> np.ndarray:
    """Reference OTFS receiver: OFDM demodulation, windowing, forward SFFT.

    Costs ``M*N*log2(M) + (M*N/2)*(1 + log2(N))`` CMs for power-of-two sizes
    (the MN/2 term is the windowing, charged regardless of window content).
    The M-point DFT lands in a fresh array of the grids' shape, and every
    later stage runs in place in it.
    """
    z_tf = demodulate_ofdm(frame, cfg)
    return sfft_windowed(z_tf, cfg.check_window(window), out=z_tf)
