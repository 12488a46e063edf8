"""The two modem structures produce identical signals.

The reference transmitter maps the delay-Doppler grid to time-frequency
(inverse SFFT) and then runs a standard OFDM modulator. Because the M-point
DFT inside the SFFT stage and the OFDM modulator's M-point IDFT cancel, the
low-complexity transmitter skips both and only applies N-point IDFTs across
the rows of the data grid. This script shows the cancellation numerically
and the complex-multiplication (CM) savings it buys.
"""

import numpy as np

from otfsim import (
    CmCounter,
    ModemConfig,
    demodulate_fast,
    demodulate_reference,
    make_window,
    modulate_fast,
    modulate_reference,
    qam_map,
)

cfg = ModemConfig(M=64, N=8, cp_len=16)
qam_order = 4
rng = np.random.default_rng(1)

print(f"frame: M={cfg.M} subcarriers x N={cfg.N} symbols, CP {cfg.cp_len} samples")

# a random QAM frame in the delay-Doppler domain
bits = rng.integers(0, 2, size=cfg.M * cfg.N * int(np.log2(qam_order)))
x = qam_map(bits, qam_order).reshape(cfg.M, cfg.N, order="F")

# both transmitters, each in its own counting scope
with CmCounter() as ref_counter:
    frame_ref = modulate_reference(x, cfg)
with CmCounter() as fast_counter:
    frame_fast = modulate_fast(x, cfg)

dev = np.max(np.abs(frame_ref - frame_fast))
print(f"\ntransmitters: max |reference - fast| = {dev:.3e}")
print(f"  reference modulator: {ref_counter.total():6d} CMs {ref_counter.breakdown()}")
print(f"  fast modulator:      {fast_counter.total():6d} CMs {fast_counter.breakdown()}")

# same story at the receiver, whose window scales each OFDM symbol (here tapered in time)
window = make_window("time-tapered", cfg.N, rho=0.25)
with CmCounter() as ref_counter:
    out_ref = demodulate_reference(frame_ref, window, cfg)
with CmCounter() as fast_counter:
    out_fast = demodulate_fast(frame_ref, window, cfg)

dev = np.max(np.abs(out_ref - out_fast))
print(f"\nreceivers: max |reference - fast| = {dev:.3e}")
print(f"  reference demodulator: {ref_counter.total():6d} CMs")
print(f"  fast demodulator:      {fast_counter.total():6d} CMs")

# and the fast receiver undoes the fast transmitter exactly (no channel)
rectangular = make_window("rectangular", cfg.N)
loopback = demodulate_fast(modulate_fast(x, cfg), rectangular, cfg)
print(f"\nback-to-back reconstruction error: {np.max(np.abs(loopback - x)):.3e}")
