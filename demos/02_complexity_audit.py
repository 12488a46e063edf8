"""Complexity accounting: counted multiplications match the closed forms.

Every transform in the library charges the CM counter of an open counting
scope under one convention (a P-point radix-2 FFT costs (P/2)*log2(P), a
window application costs half a CM per sample). Under that convention the
measured cost of each modem structure lands exactly on its closed-form
formula, so the audit is an integer-equality check, not a tolerance check.

The last table puts wall time beside the counts: the median microseconds
per call of each modem, which no audit row includes.
"""

import os
import time

import numpy as np

from otfsim import (
    ModemConfig,
    audit_report,
    demodulate_fast,
    demodulate_ofdm,
    demodulate_reference,
    make_window,
    modulate_fast,
    modulate_ofdm,
    modulate_reference,
    proposed_to_ofdm_ratio,
)

M_SWEEP = [8, 32, 128, 512]
N_SWEEP = [2, 8, 16, 32]

rows = audit_report(M_SWEEP, N_SWEEP)

print(f"{'structure':<10} {'dir':<6} {'M':>4} {'N':>3} {'predicted':>9} {'measured':>9} match")
for row in rows:
    if row.N not in (8, 16):  # keep the printout short
        continue
    print(
        f"{row.structure:<10} {row.direction:<6} {row.M:>4} {row.N:>3} "
        f"{row.predicted:>9} {row.measured:>9} {row.match}"
    )

assert all(row.match for row in rows)
print(f"\nall {len(rows)} rows: measured == predicted exactly")

# the headline case: a 512-subcarrier, 16-symbol frame
print("\nmodulator CMs at M=512, N=16:")
for structure in ("reference", "ofdm", "proposed"):
    row = next(
        r for r in rows
        if (r.structure, r.direction, r.M, r.N) == (structure, "mod", 512, 16)
    )
    print(f"  {structure:<10} {row.measured:>6}")
print(
    "  proposed / OFDM = "
    f"{proposed_to_ofdm_ratio(512, 16):.3f} (= log2(16)/log2(512) = 4/9)"
)
print(
    "\nwith N far below M -- the practical regime -- the combined structure is\n"
    "cheaper than plain OFDM, because N-point row transforms replace M-point ones"
)


# ---------------------------------------------------------------------------
# wall time beside the counts
# ---------------------------------------------------------------------------

TIMING_SIZES = [(64, 8), (256, 16), (1024, 32)]
ROUNDS, RUN = 4, 50  # each modem is timed in ROUNDS runs of RUN calls


def median_us(calls):
    """Median microseconds per call of each of `calls`. Each round times a run
    of RUN back-to-back calls of every modem in turn, after one untimed call,
    so that a change of load falls on all of them alike."""
    times = [[] for _ in calls]
    for _ in range(ROUNDS):
        for spent, call in zip(times, calls):
            call()
            for _ in range(RUN):
                start = time.perf_counter_ns()
                call()
                spent.append(time.perf_counter_ns() - start)
    return [np.median(spent) / 1e3 for spent in times]


cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
load = ", ".join(f"{x:.2f}" for x in os.getloadavg())
print(
    f"\nwall time, median us per call over {ROUNDS * RUN} calls each "
    f"({cores} cores, load average {load}, NumPy {np.__version__}):"
)
print(f"{'M x N':>9}  {'mod: fast / OFDM / ref':>24}  {'fast/OFDM (CMs)':>15}  "
      f"{'demod: fast / OFDM / ref':>24}")
rng = np.random.default_rng(2)
for m, n in TIMING_SIZES:
    cfg = ModemConfig(M=m, N=n, cp_len=m // 4)
    window = make_window("time-tapered", n)
    grid = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    frame = modulate_fast(grid, cfg)
    mod = median_us([lambda: modulate_fast(grid, cfg), lambda: modulate_ofdm(grid, cfg),
                     lambda: modulate_reference(grid, cfg)])
    demod = median_us([lambda: demodulate_fast(frame, window, cfg),
                       lambda: demodulate_ofdm(frame, cfg),
                       lambda: demodulate_reference(frame, window, cfg)])
    print(
        f"{f'{m}x{n}':>9}  {' / '.join(f'{t:.0f}' for t in mod):>24}  "
        f"{f'{mod[0] / mod[1]:.2f} ({proposed_to_ofdm_ratio(m, n):.2f})':>15}  "
        f"{' / '.join(f'{t:.0f}' for t in demod):>24}"
    )
print(
    "the clock shows less of the CM saving than the counts: the fixed cost of a call\n"
    "and the passes over memory, which no CM count includes, take their share"
)
