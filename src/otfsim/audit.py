"""Complexity accounting: closed-form CM formulas versus instrumented counts.

Three modem structures are audited in both directions: the reference OTFS
cascade, the bare OFDM modem (SFFT stages bypassed, time-frequency grid
treated as data), and the proposed low-complexity structure. Predicted
counts come from the closed-form rows; measured counts come from running
the pipelines on an all-ones grid in a counting scope and reading its counter.
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
    CmCounter, check, choice_rule, ilog2, is_integer, is_power_of_two, require, write_csv,
)

#: structure -> (M-point transform stages, N-point transform stages, windowed receiver);
#: each stage is one P-point transform per row or column, (MN/2)*log2(P) CMs
TRANSFORM_STAGES = {"reference": (2, 1, True), "ofdm": (1, 0, False), "proposed": (0, 1, True)}
STRUCTURES = tuple(TRANSFORM_STAGES)
DIRECTIONS = ("mod", "demod")


def is_audit_size(p) -> bool:
    """The closed-form counts hold for power-of-two sizes, and a modem needs 2."""
    return is_integer(p) and p >= 2 and is_power_of_two(p)


def sizes_rule(sizes) -> tuple[bool, str]:
    """Whether `sizes` is a size sweep :func:`audit_report` takes, and that need in words."""
    ok = isinstance(sizes, (list, tuple)) and bool(sizes) and all(map(is_audit_size, sizes))
    return ok, "a non-empty list of powers of two >= 2"


def _check_case(structure: str, direction: str, m: int, n: int) -> None:
    """Refuse, by name, a size, structure or direction the audit has no count for."""
    for name, p in (("m", m), ("n", n)):
        require(is_audit_size(p), name, "a power of two >= 2", p)
    check("structure", structure, choice_rule, STRUCTURES)
    check("direction", direction, choice_rule, DIRECTIONS)


def predicted_cm(structure: str, direction: str, m: int, n: int) -> int:
    """Closed-form complex-multiplication count for one structure/direction:
    MN/2 per transform stage, times log2(M) or log2(N), and MN/2 for the window."""
    _check_case(structure, direction, m, n)
    m_stages, n_stages, windowed = TRANSFORM_STAGES[structure]
    window = windowed and direction == "demod"
    return (m * n // 2) * (m_stages * ilog2(m) + n_stages * ilog2(n) + window)


def measured_cm(structure: str, direction: str, m: int, n: int) -> int:
    """Run the pipeline on an all-ones grid or frame in a counting scope and
    read its counter; the count depends on the sizes alone."""
    _check_case(structure, direction, m, n)
    cfg = ModemConfig(M=m, N=n, cp_len=m // 4)
    grid = np.ones((m, n), dtype=np.complex128)
    frame = np.ones(cfg.frame_len, dtype=np.complex128)
    window = make_window("rectangular", n)
    pipelines = {
        ("reference", "mod"): lambda: modulate_reference(grid, cfg),
        ("reference", "demod"): lambda: demodulate_reference(frame, window, cfg),
        ("ofdm", "mod"): lambda: modulate_ofdm(grid, cfg),
        ("ofdm", "demod"): lambda: demodulate_ofdm(frame, cfg),
        ("proposed", "mod"): lambda: modulate_fast(grid, cfg),
        ("proposed", "demod"): lambda: demodulate_fast(frame, window, cfg),
    }
    with CmCounter() as counter:
        pipelines[structure, direction]()
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
        check(name, sizes, sizes_rule)
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
