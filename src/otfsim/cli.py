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
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .audit import audit_report, proposed_to_ofdm_ratio, write_report_csv
from .channel import (
    apply_channel,
    add_awgn,
    build_dd_response,
    channel_from_spec,
    dump_dd_response,
    load_channel,
)
from .detect import (
    BerStat,
    EffectiveSystem,
    assemble_effective,
    bit_error_rate,
    mmse_detect,
    zf_detect,
)
from .grids import (
    WINDOW_KINDS,
    ModemConfig,
    QAM_ORDERS,
    SeparableWindow,
    make_window,
    qam_demap,
    qam_map,
)
from .modem_fast import demodulate_fast, modulate_fast
from .modem_reference import demodulate_reference, modulate_reference

#: "fast" is kept as a synonym of "zf" for existing configs: the per-symbol
#: ZF solve is the fast structured solver for every channel
DETECTORS = ("zf", "mmse", "fast")

EQUIVALENCE_TOL = 1e-11

DEFAULT_SNR_DB = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0)

#: frame samples that `run_simulation` pushes through the pipeline at once:
#: 1 MB per complex array, whatever the number of trials
CHUNK_SAMPLES = 2**16

#: two-tap desk-scale default: a line-of-sight tap and a delayed tap with
#: one Doppler cycle per frame (doppler is filled in per frame length)
DEFAULT_CHANNEL_TAPS = ((0, 1 / np.sqrt(2), 0.0), (3, 1 / np.sqrt(2), None))


class ConfigError(ValueError):
    """Invalid run configuration; collects one message per offending field."""

    def __init__(self, fields: dict[str, str]):
        self.fields = fields
        super().__init__("; ".join(f"{k}: {v}" for k, v in sorted(fields.items())))


@dataclass
class RunConfig:
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

    def validate(self) -> None:
        problems = {}
        for name, value in (("M", self.M), ("N", self.N)):
            if not _is_int(value) or value < 2:
                problems[name] = f"must be an integer >= 2, got {value!r}"
        if self.cp_len is None:
            if "M" not in problems:
                self.cp_len = self.M // 4
        elif not _is_int(self.cp_len) or self.cp_len < 0:
            problems["Mcp"] = f"must be a non-negative integer, got {self.cp_len!r}"
        elif "M" not in problems and self.cp_len >= self.M:
            problems["Mcp"] = f"must satisfy Mcp < M, got {self.cp_len!r}"
        if self.qam_order not in QAM_ORDERS:
            problems["qam"] = f"must be one of {QAM_ORDERS}, got {self.qam_order!r}"
        if self.window_kind not in WINDOW_KINDS:
            problems["window"] = f"must be one of {WINDOW_KINDS}, got {self.window_kind!r}"
        if not _is_real(self.window_rho) or not 0.0 <= self.window_rho <= 1.0:
            problems["rho"] = f"must be a number in [0, 1], got {self.window_rho!r}"
        if self.detector not in DETECTORS:
            problems["detector"] = f"must be one of {DETECTORS}, got {self.detector!r}"
        elif self.detector == "fast":
            self.detector = "zf"
        if not isinstance(self.snr_db, (list, tuple)) or not self.snr_db or not all(
            _is_real(v) and v == v for v in self.snr_db
        ):
            problems["snr"] = f"must be a non-empty list of dB values, got {self.snr_db!r}"
        if not _is_int(self.trials) or self.trials < 1:
            problems["trials"] = f"must be an integer >= 1, got {self.trials!r}"
        if not _is_int(self.grids) or self.grids < 1:
            problems["grids"] = f"must be an integer >= 1, got {self.grids!r}"
        if not _is_int(self.seed) or self.seed < 0:
            problems["seed"] = f"must be a non-negative integer, got {self.seed!r}"
        if not isinstance(self.out_dir, str):
            problems["out"] = f"must be a directory path, got {self.out_dir!r}"
        if isinstance(self.channel, str) and not Path(self.channel).exists():
            problems["channel"] = f"channel file {self.channel!r} does not exist"
        if problems:
            raise ConfigError(problems)

    def modem_config(self, noise_var: float = 0.0) -> ModemConfig:
        return ModemConfig(
            M=self.M, N=self.N, cp_len=self.cp_len, qam_order=self.qam_order,
            noise_var=noise_var,
        )

    def build_window(self) -> SeparableWindow:
        return make_window(self.window_kind, self.M, self.N, rho=self.window_rho)

    def build_channel(self):
        if self.channel is None:
            frame_len = (self.M + self.cp_len) * self.N
            taps = [
                {"delay": d, "gain_re": g, "doppler": (1.0 / frame_len if nu is None else nu)}
                for d, g, nu in DEFAULT_CHANNEL_TAPS
            ]
            return channel_from_spec({"taps": taps})
        if isinstance(self.channel, str):
            return load_channel(self.channel)
        return channel_from_spec(self.channel)


def load_config(path: str | None, overrides: dict, env: dict | None = None) -> RunConfig:
    """Merge config file, OTFS_SEED environment override, and flag overrides."""
    env = os.environ if env is None else env
    cfg = RunConfig()
    if path is not None:
        with open(path) as fh:
            raw = json.load(fh)
        cfg = _apply_file(cfg, raw)
    if "OTFS_SEED" in env:
        try:
            cfg = replace(cfg, seed=int(env["OTFS_SEED"]))
        except ValueError:
            raise ConfigError({"OTFS_SEED": f"must be an integer, got {env['OTFS_SEED']!r}"})
    cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    cfg.validate()
    return cfg


_FILE_KEYS = frozenset(
    ("M", "N", "Mcp", "qam", "window", "detector", "snr_db", "trials", "grids",
     "seed", "channel", "out")
)
_WINDOW_KEYS = frozenset(("kind", "rho"))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _apply_file(cfg: RunConfig, raw) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError({"config": f"must be a JSON object, got {raw!r}"})
    unknown = {key: "unknown configuration key" for key in set(raw) - _FILE_KEYS}
    window = raw.get("window", {})
    if isinstance(window, str):
        window = {"kind": window}
    elif not isinstance(window, dict):
        raise ConfigError({"window": f"must be a kind name or an object, got {window!r}"})
    unknown.update(
        {f"window.{key}": "unknown configuration key" for key in set(window) - _WINDOW_KEYS}
    )
    if unknown:
        raise ConfigError(unknown)
    mapped = dict(
        M=raw.get("M"),
        N=raw.get("N"),
        cp_len=raw.get("Mcp"),
        qam_order=raw.get("qam"),
        window_kind=window.get("kind"),
        window_rho=window.get("rho"),
        detector=raw.get("detector"),
        snr_db=raw.get("snr_db"),
        trials=raw.get("trials"),
        grids=raw.get("grids"),
        seed=raw.get("seed"),
        channel=raw.get("channel"),
        out_dir=raw.get("out"),
    )
    return replace(cfg, **{k: v for k, v in mapped.items() if v is not None})


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def run_simulation(cfg: RunConfig, system: EffectiveSystem | None = None) -> list[dict]:
    """BER sweep over the configured channel; one result row per SNR point.

    `system` is the effective system of `cfg`'s channel and window, built
    here when not given; every SNR point shares its blocks, and ZF, whose
    filter ignores the noise level, shares the system itself. The trials of
    an SNR point go through the pipeline together, in chunks of at most
    CHUNK_SAMPLES frame samples. Trial t draws its bits and then its noise
    from its own generator, the t-th child of the point's seed, so the rows
    do not depend on how the trials are chunked.
    """
    cfg.validate()
    channel = cfg.build_channel()
    if system is None:
        system = assemble_effective(channel, cfg.build_window(), cfg.modem_config())
    window = system.window
    detect = mmse_detect if cfg.detector == "mmse" else zf_detect
    point_seeds = np.random.SeedSequence(cfg.seed).spawn(len(cfg.snr_db))
    chunk = max(1, CHUNK_SAMPLES // system.cfg.frame_len)
    rows = []
    for snr_db, point_seed in zip(cfg.snr_db, point_seeds):
        noise_var = 10.0 ** (-snr_db / 10.0)  # unit-energy symbols
        if cfg.detector == "mmse":
            system = system.with_noise_var(noise_var)
        mcfg = system.cfg
        errors = 0
        for start in range(0, cfg.trials, chunk):
            # each spawn continues the point's sequence of children
            seeds = point_seed.spawn(min(chunk, cfg.trials - start))
            rngs = [np.random.default_rng(seed) for seed in seeds]
            bits = np.stack([rng.integers(0, 2, size=mcfg.bits_per_frame) for rng in rngs])
            x = qam_map(bits.ravel(), cfg.qam_order).reshape(len(rngs), cfg.N, cfg.M)
            x = x.swapaxes(1, 2)  # each trial's symbols fill its grid column by column
            received = add_awgn(apply_channel(modulate_fast(x, mcfg), channel), noise_var, rngs)
            detected = detect(demodulate_fast(received, window, mcfg), system)
            demapped = qam_demap(detected.swapaxes(1, 2), cfg.qam_order)
            errors += bit_error_rate(demapped, bits.ravel()).n_errors
        stat = BerStat(n_bits=cfg.trials * mcfg.bits_per_frame, n_errors=errors)
        rows.append(
            dict(
                snr_db=snr_db,
                trials=cfg.trials,
                bit_errors=errors,
                ber=stat.ber,
                stderr=stat.stderr,
            )
        )
    return rows


def write_ber_csv(path, rows: list[dict]) -> None:
    with open(path, "w") as fh:
        fh.write("snr_db,trials,bit_errors,ber,stderr\n")
        for row in rows:
            fh.write(
                f"{row['snr_db']:g},{row['trials']},{row['bit_errors']},"
                f"{row['ber']:.17g},{row['stderr']:.17g}\n"
            )


def cmd_simulate(cfg: RunConfig) -> int:
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    system = assemble_effective(cfg.build_channel(), cfg.build_window(), cfg.modem_config())
    rows = run_simulation(cfg, system)
    write_ber_csv(out_dir / "ber.csv", rows)
    dump_dd_response(out_dir / "ddresponse.csv", build_dd_response(system.blocks, system.window))
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

def run_equivalence(cfg: RunConfig) -> dict:
    """Max deviation between the fast and reference modems over random inputs."""
    cfg.validate()
    mcfg = cfg.modem_config()
    window = cfg.build_window()
    rng = np.random.default_rng(cfg.seed)
    mod_dev = 0.0
    demod_dev = 0.0
    for _ in range(cfg.grids):
        x = rng.normal(size=(cfg.M, cfg.N)) + 1j * rng.normal(size=(cfg.M, cfg.N))
        mod_dev = max(
            mod_dev,
            float(np.max(np.abs(modulate_fast(x, mcfg) - modulate_reference(x, mcfg)))),
        )
        frame = rng.normal(size=mcfg.frame_len) + 1j * rng.normal(size=mcfg.frame_len)
        demod_dev = max(
            demod_dev,
            float(
                np.max(
                    np.abs(
                        demodulate_fast(frame, window, mcfg)
                        - demodulate_reference(frame, window, mcfg)
                    )
                )
            ),
        )
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

def cmd_audit(m_list, n_list, out_dir: str, seed: int) -> int:
    rows = audit_report(m_list, n_list, seed=seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
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
        _emit_failure(
            "audit",
            {
                "mismatches": [
                    dict(
                        structure=r.structure, direction=r.direction, M=r.M, N=r.N,
                        predicted=r.predicted, measured=r.measured,
                    )
                    for r in mismatches
                ]
            },
        )
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
    aud.add_argument("--seed", type=int, default=0)
    aud.add_argument("--out", dest="out_dir", default="results")

    return parser


_CONFIG_KEYS = (
    "M", "N", "cp_len", "qam_order", "window_kind", "window_rho", "detector",
    "snr_db", "trials", "grids", "seed", "channel", "out_dir",
)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "audit":
            return cmd_audit(args.Ms, args.Ns, args.out_dir, args.seed)
        overrides = {k: getattr(args, k, None) for k in _CONFIG_KEYS}
        cfg = load_config(args.config, overrides)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        return cmd_equivalence(cfg)
    except ConfigError as exc:
        _emit_failure("config", {"fields": exc.fields})
        return 2
    except (ValueError, OSError) as exc:
        _emit_failure(getattr(args, "command", "run"), {"error": str(exc)})
        return 2


if __name__ == "__main__":
    sys.exit(main())
