"""Complexity accounting: closed-form CM formulas versus instrumented counts.

Three modem structures are audited in both directions: the reference OTFS
cascade, the bare OFDM modem (SFFT stages bypassed, time-frequency grid
treated as data), and the proposed low-complexity structure. Predicted
counts come from the closed-form rows; measured counts come from running
the instrumented pipelines on an all-ones grid and reading the CM counter.
Both count the number and size of the transforms each structure invokes,
charged by the convention in :mod:`otfsim.numerics`, not the butterflies
``numpy.fft`` executes.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .grids import ModemConfig, make_window
from .modem_fast import demodulate_fast, modulate_fast
from .modem_reference import (
    demodulate_ofdm,
    demodulate_reference,
    modulate_ofdm,
    modulate_reference,
)
from .numerics import (
    CmCounter, check_choice, ilog2, is_integer, is_power_of_two, require, write_csv,
)

STRUCTURES = ("reference", "ofdm", "proposed")
DIRECTIONS = ("mod", "demod")


def is_audit_size(p) -> bool:
    """The closed-form counts hold for power-of-two sizes, and a modem needs 2."""
    return is_integer(p) and p >= 2 and is_power_of_two(p)


def _check_case(structure: str, direction: str, m: int, n: int) -> None:
    """Refuse, by name, a size, structure or direction the audit has no count for."""
    for name, p in (("m", m), ("n", n)):
        require(is_audit_size(p), name, "a power of two >= 2", p)
    check_choice("structure", structure, STRUCTURES)
    check_choice("direction", direction, DIRECTIONS)


def predicted_cm(structure: str, direction: str, m: int, n: int) -> int:
    """Closed-form complex-multiplication count for one structure/direction."""
    _check_case(structure, direction, m, n)
    mn = m * n
    log_m, log_n = ilog2(m), ilog2(n)
    if structure == "reference":
        if direction == "mod":
            return mn * log_m + (mn // 2) * log_n
        return mn * log_m + (mn // 2) * (1 + log_n)
    if structure == "ofdm":
        return (mn // 2) * log_m
    if direction == "mod":
        return (mn // 2) * log_n
    return (mn // 2) * (1 + log_n)


def measured_cm(structure: str, direction: str, m: int, n: int) -> int:
    """Run the instrumented pipeline on an all-ones grid or frame and read its
    counter; the count depends on the sizes alone."""
    _check_case(structure, direction, m, n)
    cfg = ModemConfig(M=m, N=n, cp_len=m // 4)
    grid = np.ones((m, n), dtype=np.complex128)
    frame = np.ones(cfg.frame_len, dtype=np.complex128)
    window = make_window("rectangular", n)
    counter = CmCounter()
    if structure == "reference":
        if direction == "mod":
            modulate_reference(grid, cfg, counter=counter)
        else:
            demodulate_reference(frame, window, cfg, counter=counter)
    elif structure == "ofdm":
        if direction == "mod":
            modulate_ofdm(grid, cfg, counter=counter)
        else:
            demodulate_ofdm(frame, cfg, counter=counter)
    elif direction == "mod":
        modulate_fast(grid, cfg, counter=counter)
    else:
        demodulate_fast(frame, window, cfg, counter=counter)
    return counter.total()


def proposed_to_ofdm_ratio(m: int, n: int) -> float:
    """Modulator cost ratio proposed/OFDM = log2(N) / log2(M)."""
    return predicted_cm("proposed", "mod", m, n) / predicted_cm("ofdm", "mod", m, n)


@dataclass(frozen=True)
class AuditRow:
    structure: str
    direction: str
    M: int
    N: int
    predicted: int
    measured: int

    @property
    def match(self) -> bool:
        return self.predicted == self.measured


def audit_report(m_list, n_list) -> list[AuditRow]:
    """Cross-product audit over size sweeps, all structures and directions."""
    for name, sizes in (("m_list", m_list), ("n_list", n_list)):
        ok = isinstance(sizes, (list, tuple)) and bool(sizes) and all(map(is_audit_size, sizes))
        require(ok, name, "a non-empty list of powers of two >= 2", sizes)
    rows = []
    for m in m_list:
        for n in n_list:
            for structure in STRUCTURES:
                for direction in DIRECTIONS:
                    rows.append(
                        AuditRow(
                            structure=structure,
                            direction=direction,
                            M=m,
                            N=n,
                            predicted=predicted_cm(structure, direction, m, n),
                            measured=measured_cm(structure, direction, m, n),
                        )
                    )
    return rows


def write_report_csv(path, rows: list[AuditRow]) -> None:
    header = "structure,direction,M,N,predicted,measured,match"
    write_csv(path, header, ((*astuple(row), str(row.match).lower()) for row in rows))
