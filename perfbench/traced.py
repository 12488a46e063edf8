"""Run one ``otfs`` command in-process with a span around each library call.

Usage: python traced.py OUT.json M N Mcp QAM -- <otfs argv...>

The wrappers are installed from outside the library: every function name
in LABELS that otfsim.cli, otfsim.detect, otfsim.grids, otfsim.modem_fast
or otfsim.modem_reference binds is rebound to a recording wrapper, so the
spans follow the calls the CLI really makes, however its loop is arranged.
The span summary, the complex-multiplication counts of both modems at the
workload geometry and any label that found no function to wrap are
written to OUT.json.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from spans import Tracer

from otfsim import audit, cli, detect, grids, modem_fast, modem_reference

TRACED_MODULES = (cli, detect, grids, modem_fast, modem_reference)

#: bound name -> (span label, unit of one frame in the first argument)
LABELS = {
    "cmd_simulate": ("cli.command", None),
    "cmd_equivalence": ("cli.command", None),
    "write_ber_csv": ("cli.write", None),
    "dump_dd_response": ("cli.write", None),
    "qam_map": ("grids.qam_map", "bits"),
    "qam_demap": ("grids.qam_demap", "grid"),
    "sfft_inv": ("grids.sfft_inv", None),
    "sfft_windowed": ("grids.sfft_windowed", None),
    "modulate_fast": ("modem_fast.modulate", "grid"),
    "demodulate_fast": ("modem_fast.demodulate", "frame"),
    "modulate_reference": ("modem_reference.modulate", "grid"),
    "demodulate_reference": ("modem_reference.demodulate", "frame"),
    "apply_channel": ("channel.apply", "frame"),
    "add_awgn": ("channel.awgn", "frame"),
    "build_doppler_taps": ("channel.doppler_taps", None),
    "build_dd_response": ("channel.dd_response", None),
    "assemble_effective": ("detect.assemble", None),
    "lu_factor_checked": ("numerics.lu_factor", None),
    "dft": ("numerics.dft", None),
}

#: detectors: the first call on each system is labelled detect.first
DETECTORS = ("zf_detect", "mmse_detect", "fast_block_solve")


def frame_counter(unit: str | None, m: int, n: int, cp_len: int, qam: int):
    """Frames in a call, from the size of its first argument (1 if unknown)."""
    if unit is None:
        return None
    size = {
        "grid": m * n,
        "frame": (m + cp_len) * n,
        "bits": m * n * int(np.log2(qam)),
    }[unit]
    return lambda args: max(int(np.size(args[0])) // size, 1) if args else 1


def install(tracer: Tracer, m: int, n: int, cp_len: int, qam: int) -> set[str]:
    """Rebind traced names in TRACED_MODULES; returns the names found."""
    found = set()
    for module in TRACED_MODULES:
        for name, (label, unit) in LABELS.items():
            fn = getattr(module, name, None)
            if callable(fn):
                setattr(module, name, tracer.wrap(fn, label, frame_counter(unit, m, n, cp_len, qam)))
                found.add(name)
        for name in DETECTORS:
            fn = getattr(module, name, None)
            if callable(fn):
                setattr(
                    module, name,
                    tracer.wrap_first(
                        fn, "detect.first", "detect.frame",
                        frame_counter("grid", m, n, cp_len, qam),
                    ),
                )
                found.add(name)
    return found


def cm_per_frame(structure: str, m: int, n: int) -> int:
    """Complex multiplications of one modulate plus one demodulate."""
    return audit.measured_cm(structure, "mod", m, n) + audit.measured_cm(structure, "demod", m, n)


def main(argv: list[str]) -> int:
    out_path, m, n, cp_len, qam = argv[0], *map(int, argv[1:5])
    if argv[5] != "--":
        raise SystemExit("usage: traced.py OUT.json M N Mcp QAM -- <otfs argv...>")
    counts = {
        "modem_fast.cm_per_frame": cm_per_frame("proposed", m, n),
        "modem_reference.cm_per_frame": cm_per_frame("reference", m, n),
    }
    tracer = Tracer()
    found = install(tracer, m, n, cp_len, qam)
    code = cli.main(argv[6:])
    with open(out_path, "w") as fh:
        json.dump(
            {
                "exit_code": code,
                "counts": counts,
                "labels": tracer.summary(),
                "missing": sorted((set(LABELS) | set(DETECTORS)) - found),
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
