"""Complexity accounting: counted multiplications match the closed forms.

Every transform in the library charges the CM counter of an open counting
scope under one convention (a P-point radix-2 FFT costs (P/2)*log2(P), a
window application costs half a CM per sample). Under that convention the
measured cost of each modem structure lands exactly on its closed-form
formula, so the audit is an integer-equality check, not a tolerance check.
"""

from otfsim import audit_report, proposed_to_ofdm_ratio

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
