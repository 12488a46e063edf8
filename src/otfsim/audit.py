"""Complexity accounting: closed-form CM formulas versus instrumented counts.

Three modem structures are audited in both directions: the reference OTFS
cascade, the bare OFDM modem (SFFT stages bypassed, time-frequency grid
treated as data), and the proposed low-complexity structure. Predicted
counts come from the closed-form rows; measured counts come from running
the instrumented pipelines on a random grid and reading the CM counter.
Both count the number and size of the transforms each structure invokes,
charged by the convention in :mod:`otfsim.numerics`, not the butterflies
``numpy.fft`` executes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import ModemConfig, make_window
from .modem_fast import demodulate_fast, modulate_fast
from .modem_reference import (
    demodulate_ofdm,
    demodulate_reference,
    modulate_ofdm,
    modulate_reference,
)
from .numerics import CmCounter, ilog2, is_power_of_two

STRUCTURES = ("reference", "ofdm", "proposed")
DIRECTIONS = ("mod", "demod")


def _check_sizes(m: int, n: int) -> None:
    if not (is_power_of_two(m) and is_power_of_two(n)):
        raise ValueError(
            f"complexity audit requires power-of-two M and N, got M={m}, N={n}"
        )


def predicted_cm(structure: str, direction: str, m: int, n: int) -> int:
    """Closed-form complex-multiplication count for one structure/direction."""
    _check_sizes(m, n)
    if structure not in STRUCTURES:
        raise ValueError(f"structure must be one of {STRUCTURES}")
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}")
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


def measured_cm(structure: str, direction: str, m: int, n: int, seed: int = 0) -> int:
    """Run the instrumented pipeline on a random grid and read its counter."""
    _check_sizes(m, n)
    cfg = ModemConfig(M=m, N=n, cp_len=m // 4)
    rng = np.random.default_rng(seed)
    grid = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    frame = rng.normal(size=cfg.frame_len) + 1j * rng.normal(size=cfg.frame_len)
    window = make_window("rectangular", m, n)
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
    elif structure == "proposed":
        if direction == "mod":
            modulate_fast(grid, cfg, counter=counter)
        else:
            demodulate_fast(frame, window, cfg, counter=counter)
    else:
        raise ValueError(f"structure must be one of {STRUCTURES}")
    return counter.total()


def proposed_to_ofdm_ratio(m: int, n: int) -> float:
    """Modulator cost ratio proposed/OFDM = log2(N) / log2(M)."""
    _check_sizes(m, n)
    return ilog2(n) / ilog2(m)


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


def audit_report(m_list, n_list, seed: int = 0) -> list[AuditRow]:
    """Cross-product audit over size sweeps, all structures and directions."""
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
                            measured=measured_cm(structure, direction, m, n, seed=seed),
                        )
                    )
    return rows


def write_report_csv(path, rows: list[AuditRow]) -> None:
    with open(path, "w") as fh:
        fh.write("structure,direction,M,N,predicted,measured,match\n")
        for row in rows:
            fh.write(
                f"{row.structure},{row.direction},{row.M},{row.N},"
                f"{row.predicted},{row.measured},{str(row.match).lower()}\n"
            )
