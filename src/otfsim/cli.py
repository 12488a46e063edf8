"""Command-line front end: simulation runs, equivalence reports, audits.

Three subcommands tie the library together:

* ``otfs simulate``: end-to-end BER sweep over a channel, CSV outputs;
* ``otfs equivalence``: fast-vs-reference modem deviation report;
* ``otfs audit``: predicted-vs-measured complexity table.

Configuration comes from a JSON file plus flag overrides (flags win); the
``OTFS_SEED`` environment variable overrides the file seed but yields to an
explicit ``--seed``. All commands are bit-reproducible for a fixed seed and
exit 0 on success/PASS, 1 on a failed check, 2 on bad configuration, writing
a machine-readable JSON failure record to stderr when nonzero.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import threading
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .audit import audit_report, is_audit_size, proposed_to_ofdm_ratio, write_report_csv
from .channel import (
    ChannelTap,
    LtvChannel,
    apply_channel,
    add_awgn,
    build_dd_response,
    channel_from_spec,
    dump_dd_response,
    load_channel,
)
from .detect import EffectiveSystem, assemble_effective, mmse_detect, zf_detect
from .grids import (
    WINDOW_KINDS,
    ModemConfig,
    QAM_ORDERS,
    make_window,
    qam_demap,
    qam_map,
)
from .modem_fast import demodulate_fast, modulate_fast
from .modem_reference import demodulate_reference, modulate_reference
from .numerics import is_choice, is_integer, is_real, write_csv

#: "fast" is kept as a synonym of "zf" for existing configs: the per-symbol
#: ZF solve is the fast structured solver for every channel
DETECTORS = ("zf", "mmse", "fast")

EQUIVALENCE_TOL = 1e-11

DEFAULT_SNR_DB = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0)

#: frame samples that `run_simulation` pushes through the pipeline at once:
#: 1 MB per complex array, whatever the number of trials
CHUNK_SAMPLES = 2**16


class ConfigError(ValueError):
    """Invalid run configuration; collects one message per offending field."""

    def __init__(self, fields: dict[str, str]):
        self.fields = fields
        super().__init__("; ".join(f"{k}: {v}" for k, v in sorted(fields.items())))


@dataclass(frozen=True)
class RunConfig:
    """One run's settings, checked when built and again by `replace`: a bad
    one raises ConfigError, which names it as its flag does."""

    M: int = 64
    N: int = 8
    cp_len: int | None = None  # defaults to M // 4
    qam_order: int = 4
    window_kind: str = "rectangular"
    window_rho: float = 0.25
    detector: str = "zf"
    snr_db: tuple = DEFAULT_SNR_DB
    trials: int = 10
    grids: int = 50
    seed: int = 0
    channel: dict | str | None = None
    out_dir: str = "results"

    def __post_init__(self) -> None:
        # one (error name, value, check, requirement) per setting, named as its flag
        snr, rho, kind, cp = self.snr_db, self.window_rho, self.window_kind, self.cp_len
        snr_ok = isinstance(snr, (list, tuple)) and len(snr) > 0 and all(
            is_real(v) and math.isfinite(_noise_var(v)) for v in snr
        )
        rules = (
            ("M", self.M, is_integer(self.M) and self.M >= 2, "an integer >= 2"),
            ("N", self.N, is_integer(self.N) and self.N >= 2, "an integer >= 2"),
            ("qam", self.qam_order, is_choice(self.qam_order, QAM_ORDERS), f"one of {QAM_ORDERS}"),
            ("window", kind, is_choice(kind, WINDOW_KINDS), f"one of {WINDOW_KINDS}"),
            ("rho", rho, is_real(rho) and 0.0 <= rho <= 1.0, "a number in [0, 1]"),
            ("detector", self.detector, is_choice(self.detector, DETECTORS), f"one of {DETECTORS}"),
            ("snr", snr, snr_ok, "a non-empty list of dB values"),
            ("trials", self.trials, is_integer(self.trials) and self.trials >= 1, "an integer >= 1"),
            ("grids", self.grids, is_integer(self.grids) and self.grids >= 1, "an integer >= 1"),
            ("seed", self.seed, is_integer(self.seed) and self.seed >= 0, "a non-negative integer"),
            ("out", self.out_dir, isinstance(self.out_dir, str), "a directory path"),
            ("Mcp", cp, cp is None or is_integer(cp) and cp >= 0,
             "a non-negative integer"),
        )
        problems = _rule_problems(rules)
        if cp is not None and not {"M", "Mcp"} & problems.keys() and cp >= self.M:
            problems["Mcp"] = f"must be < M = {self.M}, got {cp!r}"
        if isinstance(self.channel, str) and not Path(self.channel).exists():
            problems["channel"] = f"channel file {self.channel!r} does not exist"
        if problems:
            raise ConfigError(problems)
        # NumPy numbers are stored as Python ones, so no size product can wrap
        object.__setattr__(self, "cp_len", self.M // 4 if cp is None else cp)
        for name in ("M", "N", "cp_len", "qam_order", "trials", "grids", "seed"):
            object.__setattr__(self, name, int(getattr(self, name)))
        object.__setattr__(self, "window_rho", float(rho))
        object.__setattr__(self, "snr_db", tuple(map(float, snr)))
        object.__setattr__(self, "detector", "zf" if self.detector == "fast" else self.detector)

    def modem_config(self) -> ModemConfig:
        return ModemConfig(M=self.M, N=self.N, cp_len=self.cp_len, qam_order=self.qam_order)

    def build_window(self) -> np.ndarray:
        return make_window(self.window_kind, self.N, rho=self.window_rho)

    def build_channel(self):
        if self.channel is None:
            # two-tap desk-scale default: a line-of-sight tap and a delayed tap
            # with one Doppler cycle per frame
            gain = complex(1 / np.sqrt(2))
            doppler = 1.0 / self.modem_config().frame_len
            return LtvChannel((ChannelTap(0, gain), ChannelTap(3, gain, doppler=doppler)))
        if isinstance(self.channel, str):
            return load_channel(self.channel)
        return channel_from_spec(self.channel)


def load_config(path: str | None, overrides: dict) -> RunConfig:
    """One config from the config file, the OTFS_SEED environment override and
    the flag overrides, each winning over the ones before it."""
    values = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError({"config": f"must be a readable JSON file, got {path!r}: {exc}"})
        values = _apply_file(raw)
    if (env_seed := os.environ.get("OTFS_SEED")) is not None:
        try:
            values["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError({"OTFS_SEED": f"must be an integer, got {env_seed!r}"})
    values.update((k, v) for k, v in overrides.items() if v is not None)
    return RunConfig(**values)


#: config-file key -> RunConfig field; a "window" object's keys map through its table
_FILE_FIELDS = {
    "M": "M", "N": "N", "Mcp": "cp_len", "qam": "qam_order",
    "window": {"kind": "window_kind", "rho": "window_rho"},
    "detector": "detector", "snr_db": "snr_db", "trials": "trials", "grids": "grids",
    "seed": "seed", "channel": "channel", "out": "out_dir",
}


def _rule_problems(rules) -> dict[str, str]:
    """One ``must be …, got …`` message per (name, value, ok, need) rule that fails."""
    return {name: f"must be {need}, got {value!r}" for name, value, ok, need in rules if not ok}


def _make_out_dir(path: str) -> Path:
    """Create the output directory; a path that cannot be one is a bad `out` setting."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError({"out": f"must be a directory path, got {path!r} ({exc.strerror})"})
    return out


def _noise_var(snr_db: float) -> float:
    """Noise variance of unit-energy symbols at `snr_db`; inf where it overflows."""
    try:
        return 10.0 ** (-float(snr_db) / 10.0)
    except OverflowError:
        return math.inf


def _apply_file(raw) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError({"config": f"must be a JSON object, got {raw!r}"})
    window = raw.get("window", {})
    if isinstance(window, str):
        window = {"kind": window}
    elif not isinstance(window, dict):
        raise ConfigError({"window": f"must be a kind name or an object, got {window!r}"})
    values, unknown = {}, {}
    sections = (("", _FILE_FIELDS, raw), ("window.", _FILE_FIELDS["window"], window))
    for prefix, table, section in sections:
        for key, value in section.items():
            if key not in table:
                unknown[prefix + key] = "unknown configuration key"
            elif isinstance(table[key], str) and value is not None:
                values[table[key]] = value
    if unknown:
        raise ConfigError(unknown)
    return values


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def run_simulation(cfg: RunConfig, system: EffectiveSystem | None = None) -> list[dict]:
    """BER sweep over the configured channel; one result row per SNR point.

    `system` is the effective system of `cfg`'s channel and window, built
    here when not given. Its channel is the one simulated, so the detector's
    model and the simulated channel come from one build. Every SNR point
    shares the system, which MMSE factors once per noise level and ZF once.
    The trials of an SNR point go through the pipeline together, in chunks
    of at most CHUNK_SAMPLES frame samples. Trial t draws its bits and then
    its noise from its own generator, the t-th child of the point's seed, so
    the rows do not depend on how the trials are chunked.
    """
    if system is None:
        system = assemble_effective(cfg.build_channel(), cfg.build_window(), cfg.modem_config())
    mcfg, channel, window, mmse = system.cfg, system.channel, system.window, cfg.detector == "mmse"
    point_seeds = np.random.SeedSequence(cfg.seed).spawn(len(cfg.snr_db))
    chunk = max(1, CHUNK_SAMPLES // mcfg.frame_len)
    rows = []
    for snr_db, point_seed in zip(cfg.snr_db, point_seeds):
        noise_var = _noise_var(snr_db)
        errors = 0
        try:
            for start in range(0, cfg.trials, chunk):
                # each spawn continues the point's sequence of children
                seeds = point_seed.spawn(min(chunk, cfg.trials - start))
                rngs = [np.random.default_rng(seed) for seed in seeds]
                # an int32 draw continues each stream as the default int64 draw does
                bits = np.array(
                    [r.integers(0, 2, size=mcfg.bits_per_frame, dtype=np.int32) for r in rngs],
                    dtype=np.uint8,
                )
                x = qam_map(bits.ravel(), cfg.qam_order).reshape(len(rngs), cfg.N, cfg.M)
                x = x.swapaxes(1, 2)  # each trial's symbols fill its grid column by column
                y = add_awgn(apply_channel(modulate_fast(x, mcfg), channel), noise_var, rngs)
                d = demodulate_fast(y, window, mcfg)
                detected = mmse_detect(d, system, noise_var) if mmse else zf_detect(d, system)
                demapped = qam_demap(detected.swapaxes(1, 2), cfg.qam_order)
                errors += int(np.count_nonzero(demapped != bits.ravel()))
        except FloatingPointError as exc:  # under np.errstate(over="raise"), as `otfs` runs
            raise FloatingPointError(f"{exc} at snr_db {snr_db:g}") from exc
        n_bits = cfg.trials * mcfg.bits_per_frame
        ber = errors / n_bits
        stderr = float(np.sqrt(ber * (1.0 - ber) / n_bits))  # the binomial standard error
        rows.append(
            dict(snr_db=snr_db, trials=cfg.trials, bit_errors=errors, ber=ber, stderr=stderr)
        )
    return rows


def write_ber_csv(path, rows: list[dict]) -> None:
    body = ((f"{r['snr_db']:g}", r["trials"], r["bit_errors"], r["ber"], r["stderr"]) for r in rows)
    write_csv(path, "snr_db,trials,bit_errors,ber,stderr", body)


def cmd_simulate(cfg: RunConfig) -> int:
    window = cfg.build_window()
    # a malformed, non-finite or too long channel is a bad setting: refused
    # before anything is written
    try:
        system = assemble_effective(cfg.build_channel(), window, cfg.modem_config())
    except (ValueError, OSError) as exc:
        raise ConfigError({"channel": str(exc)}) from exc
    out_dir = _make_out_dir(cfg.out_dir)
    # so is one that overflows when run: `out` is made by then, but left empty
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            rows = run_simulation(cfg, system)
            response = build_dd_response(system.channel, system.window, system.cfg)
    except FloatingPointError as exc:
        raise ConfigError({"channel": f"must keep the simulation finite, got {exc}"}) from exc
    write_ber_csv(out_dir / "ber.csv", rows)
    dump_dd_response(out_dir / "ddresponse.csv", response)
    print(f"wrote {out_dir / 'ber.csv'} and {out_dir / 'ddresponse.csv'}")
    for row in rows:
        print(
            f"  snr {row['snr_db']:5.1f} dB   ber {row['ber']:.3e}"
            f"   ({row['bit_errors']} errors, stderr {row['stderr']:.1e})"
        )
    return 0


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------

def _max_deviation(seed, grids: int, shape: tuple, reference, fast, *args) -> float:
    """Largest |fast - reference| over `grids` inputs of `shape` drawn from
    `seed`'s generator, parts uniform on [-sqrt(3), sqrt(3)]: zero mean, unit
    variance, cheaper than Gaussian and as sure to show that fast - reference
    != 0. At most three arrays are held at a time: the input, redrawn in
    place, the reference result, and the fast result until it is subtracted;
    |fast - reference| overwrites the reference result."""
    rng = np.random.default_rng(seed)
    x = np.empty(shape, dtype=np.complex128)
    parts = x.view(np.float64)
    top = 0.0
    for _ in range(grids):
        rng.random(out=parts)
        parts *= 2 * math.sqrt(3)
        parts -= math.sqrt(3)
        dev = reference(x, *args)
        dev -= fast(x, *args)
        top = max(top, float(np.abs(dev, out=dev.real).max()))
    return top


def run_equivalence(cfg: RunConfig) -> dict:
    """Max deviation between the fast and reference modems over random inputs.

    The modulator check runs on a second thread. Each check draws from its own
    child of the seed, so thread timing cannot change the report.
    """
    mcfg = cfg.modem_config()
    window = cfg.build_window()
    grid_seed, frame_seed = np.random.SeedSequence(cfg.seed).spawn(2)
    modulator = {}

    def check_modulator():
        try:
            modulator["dev"] = _max_deviation(grid_seed, cfg.grids, (mcfg.M, mcfg.N),
                                              modulate_reference, modulate_fast, mcfg)
        except BaseException as exc:  # raised again on the calling thread
            modulator["error"] = exc

    worker = threading.Thread(target=check_modulator)
    worker.start()
    try:
        demod_dev = _max_deviation(frame_seed, cfg.grids, (mcfg.frame_len,),
                                   demodulate_reference, demodulate_fast, window, mcfg)
    finally:
        worker.join()
    if "error" in modulator:
        raise modulator["error"]
    mod_dev = modulator["dev"]
    return dict(
        grids=cfg.grids,
        modulator_max_dev=mod_dev,
        demodulator_max_dev=demod_dev,
        tolerance=EQUIVALENCE_TOL,
        passed=mod_dev <= EQUIVALENCE_TOL and demod_dev <= EQUIVALENCE_TOL,
    )


def cmd_equivalence(cfg: RunConfig) -> int:
    report = run_equivalence(cfg)
    verdict = "PASS" if report["passed"] else "FAIL"
    print(
        f"{verdict}: over {report['grids']} random grids, "
        f"max |fast - reference| = {report['modulator_max_dev']:.3e} (modulator), "
        f"{report['demodulator_max_dev']:.3e} (demodulator); "
        f"tolerance {report['tolerance']:.0e}"
    )
    if not report["passed"]:
        _emit_failure("equivalence", report)
        return 1
    return 0


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def cmd_audit(m_list, n_list, out_dir: str) -> int:
    sizes = "a non-empty list of powers of two >= 2"
    problems = _rule_problems((
        ("Ms", m_list, bool(m_list) and all(map(is_audit_size, m_list)), sizes),
        ("Ns", n_list, bool(n_list) and all(map(is_audit_size, n_list)), sizes),
    ))
    if problems:
        raise ConfigError(problems)
    out = _make_out_dir(out_dir)
    rows = audit_report(m_list, n_list)
    write_report_csv(out / "audit.csv", rows)
    mismatches = [row for row in rows if not row.match]
    print(f"wrote {out / 'audit.csv'} ({len(rows)} rows)")
    for row in rows:
        if row.direction == "mod" and row.structure == "proposed":
            ratio = proposed_to_ofdm_ratio(row.M, row.N)
            print(
                f"  M={row.M:4d} N={row.N:3d}  proposed mod {row.measured:7d} CMs"
                f"  (x{ratio:.3f} of OFDM)"
            )
    if mismatches:
        _emit_failure("audit", {"mismatches": [asdict(row) for row in mismatches]})
        return 1
    print("all predicted == measured")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _emit_failure(command: str, record: dict) -> None:
    print(json.dumps({"status": "fail", "command": command, **record}), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a JSON failure record, exit 2."""

    def error(self, message):
        _emit_failure("argv", {"error": message})
        self.exit(2)


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok]


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok]


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="otfs",
        description="OFDM-based OTFS modem simulator and complexity auditor",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--M", type=int, help="subcarriers / delay bins")
        p.add_argument("--N", type=int, help="OFDM symbols / Doppler bins")
        p.add_argument("--Mcp", type=int, dest="cp_len", help="cyclic prefix length")
        p.add_argument("--qam", type=int, dest="qam_order", choices=QAM_ORDERS)
        p.add_argument("--seed", type=int, help="master seed (beats OTFS_SEED)")
        p.add_argument("--out", dest="out_dir", help="output directory")
        p.add_argument("--window", dest="window_kind", choices=WINDOW_KINDS)
        p.add_argument("--rho", type=float, dest="window_rho", help="taper roll-off")

    sim = sub.add_parser("simulate", help="run a BER sweep")
    add_common(sim)
    sim.add_argument("--snr", type=_float_list, dest="snr_db", help="comma list of dB points")
    sim.add_argument("--trials", type=int, help="frames per SNR point")
    sim.add_argument("--detector", choices=DETECTORS)
    sim.add_argument("--channel", help="channel JSON file")

    eqv = sub.add_parser("equivalence", help="fast vs reference modem check")
    add_common(eqv)
    eqv.add_argument("--grids", type=int, help="random grids to compare")

    aud = sub.add_parser("audit", help="complexity audit vs closed forms")
    aud.add_argument("--Ms", type=_int_list, default=[8, 16, 32, 64, 128, 256, 512])
    aud.add_argument("--Ns", type=_int_list, default=[2, 4, 8, 16, 32])
    aud.add_argument("--out", dest="out_dir", default="results")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "audit":
            return cmd_audit(args.Ms, args.Ns, args.out_dir)
        # each flag's dest is the RunConfig field it sets
        overrides = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
        cfg = load_config(args.config, overrides)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        return cmd_equivalence(cfg)
    except ConfigError as exc:
        _emit_failure("config", {"fields": exc.fields})
        return 2
    except (ValueError, OSError, OverflowError, MemoryError) as exc:
        _emit_failure(getattr(args, "command", "run"), {"error": str(exc) or repr(exc)})
        return 2


if __name__ == "__main__":
    sys.exit(main())
