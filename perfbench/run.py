"""otfsim benchmark: times real ``otfs`` invocations, one fresh interpreter each.

Usage (from the repository root):

    python3 perfbench/run.py --workload ltv-zf-64x8 --seed 1 --seconds 45 --trace 0

Every operation is one ``python -m otfsim.cli ...`` child with
``PYTHONPATH=src``, run one at a time, so each pays import and setup as a
CLI user does and no state carries from one to the next. Every operation's
output is checked (exit code, ``ber.csv`` rows, zero errors at the
noise-free point, byte-identical ``ber.csv`` across the run, equivalence
deviation <= 1e-11); a failed check counts the operation as failed.

``--trace 0`` reports the end-to-end metrics: median ``frames_per_s`` and
``peak_rss_mb`` over the timed operations, and median ``setup_s`` over
several runs of the same command cut to one SNR point and one trial (or
one grid). ``--trace 1`` alternates untraced operations with traced ones
(see traced.py) and reports the per-layer metrics, the tracing overhead,
and fails if an exact count differs between two traced operations.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(environment, argv, every sample) goes to .perfbench_work/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench_work"

EQUIVALENCE_TOL = 1e-11
BER_HEADER = "snr_db,trials,bit_errors,ber,stderr"
SETUP_SAMPLES = 7
MIN_TIMED_OPS = 3
MIN_TRACED_OPS = 2
OP_TIMEOUT_S = 60.0

LTV_SNR = ("0", "2", "4", "6", "8", "10", "12", "14", "16", "18", "20", "inf")


@dataclass(frozen=True)
class Workload:
    """One ``otfs`` command line; the seed and output directory are filled in per run."""

    command: str  # "simulate" or "equivalence"
    m: int
    n: int
    cp_len: int
    qam: int
    options: tuple[str, ...] = ()
    snr: tuple[str, ...] = ()
    trials: int = 0
    grids: int = 0
    static_channel: bool = False

    @property
    def frames(self) -> int:
        """Delay-Doppler frames per operation: detected trials, or grids through both modems."""
        if self.command == "simulate":
            return len(self.snr) * self.trials
        return self.grids

    def argv(self, seed: int, out_dir: str, channel: str | None, setup: bool = False) -> list[str]:
        """The otfs argv; ``setup`` cuts it to one SNR point and one trial (or one grid)."""
        args = [
            self.command, "--M", str(self.m), "--N", str(self.n), "--Mcp", str(self.cp_len),
            "--qam", str(self.qam), "--seed", str(seed), "--out", out_dir, *self.options,
        ]
        if self.command == "simulate":
            snr = self.snr[:1] if setup else self.snr
            args += ["--snr", ",".join(snr), "--trials", str(1 if setup else self.trials)]
            if channel is not None:
                args += ["--channel", channel]
        else:
            args += ["--grids", str(1 if setup else self.grids)]
        return args


# The workloads of BENCHMARK.json. Why each is there is recorded there;
# which layer metric should move which end-to-end metric on which workload
# is in predictions.md.
WORKLOADS = {
    "ltv-zf-64x8": Workload(
        "simulate", 64, 8, 16, 4, ("--detector", "zf", "--window", "rectangular"),
        snr=LTV_SNR, trials=10,
    ),
    "equivalence-1024x32": Workload("equivalence", 1024, 32, 256, 4, grids=100),
}

# Run by hand only: their run-to-run spread on a shared 2-core box is too
# wide for the bounds of BENCHMARK.json (see predictions.md), but they are
# where an mmse-only or a per-frame change shows most.
EXTRA_WORKLOADS = {
    "ltv-mmse-taper-64x8": Workload(
        "simulate", 64, 8, 16, 4, ("--detector", "mmse", "--window", "time-tapered"),
        snr=LTV_SNR, trials=10,
    ),
    "static-fast-256x16": Workload(
        "simulate", 256, 16, 64, 16, ("--detector", "fast", "--window", "rectangular"),
        snr=("10", "20", "inf"), trials=200, static_channel=True,
    ),
}


def static_channel(seed: int, cp_len: int) -> dict:
    """Three zero-Doppler taps at delays 0, d and cp_len, with d and the
    gains drawn from `seed`.

    The last tap sits at cp_len on every seed because apply_channel's cost
    grows with the channel length; only the values change with the seed.
    The delay-0 tap outweighs the other two together (magnitudes 1 against
    at most 0.45 each), so the frequency response has no zero and the
    block-fading solve never meets a singular system.
    """
    rng = random.Random(seed)
    delays = [0, rng.randint(1, cp_len - 1), cp_len]
    gains = [1.0] + [rng.uniform(0.1, 0.45) for _ in range(2)]
    norm = math.sqrt(sum(g * g for g in gains))
    taps = []
    for delay, mag in zip(delays, gains):
        phase = rng.uniform(0.0, 2.0 * math.pi)
        taps.append({
            "delay": delay,
            "gain_re": mag / norm * math.cos(phase),
            "gain_im": mag / norm * math.sin(phase),
            "doppler": 0.0,
        })
    return {"taps": taps}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def check_ber_csv(text: str, snr: tuple[str, ...], trials: int, bits_per_frame: int) -> list[str]:
    """Problems with a ber.csv: one row per stated SNR point with the stated
    trials, consistent counts, and no bit error at the noise-free point."""
    lines = text.splitlines()
    if not lines or lines[0] != BER_HEADER:
        return [f"ber.csv header is {lines[:1]!r}, expected {BER_HEADER!r}"]
    rows = lines[1:]
    if len(rows) != len(snr):
        return [f"ber.csv has {len(rows)} rows, expected {len(snr)}"]
    problems = []
    total = trials * bits_per_frame
    for row, point in zip(rows, snr):
        fields = row.split(",")
        try:
            snr_db, n_trials, errors, ber = float(fields[0]), int(fields[1]), int(fields[2]), float(fields[3])
        except (ValueError, IndexError):
            problems.append(f"ber.csv row {row!r} is malformed")
            continue
        if snr_db != float(point) or n_trials != trials:
            problems.append(f"ber.csv row {row!r}: expected snr {point} with {trials} trials")
        elif not 0 <= errors <= total or ber != errors / total:
            problems.append(f"ber.csv row {row!r}: inconsistent error count")
        elif math.isinf(snr_db) and errors != 0:
            problems.append(f"ber.csv row {row!r}: bit errors at the noise-free point")
    return problems


_EQUIV_RE = re.compile(r"^PASS: .*= (\S+) \(modulator\), (\S+) \(demodulator\)", re.M)


def check_equivalence(stdout: str) -> list[str]:
    """Problems with an equivalence report: it must print PASS with both
    deviations <= EQUIVALENCE_TOL."""
    match = _EQUIV_RE.search(stdout)
    if match is None:
        return [f"equivalence did not print PASS: {stdout.strip()[:200]!r}"]
    devs = [float(v) for v in match.groups()]
    if not all(d <= EQUIVALENCE_TOL for d in devs):
        return [f"equivalence deviations {devs} exceed {EQUIVALENCE_TOL:g}"]
    return []


def compare_exact_counts(ops: list[dict]) -> list[str]:
    """Problems if any exact count differs between traced operations."""
    if not ops:
        return []
    first = exact_counts(ops[0])
    problems = []
    for k, op in enumerate(ops[1:], start=1):
        counts = exact_counts(op)
        for key in sorted(set(first) | set(counts)):
            if first.get(key) != counts.get(key):
                problems.append(
                    f"exact count {key} differs between traced runs 0 and {k}: "
                    f"{first.get(key)} vs {counts.get(key)}"
                )
    return problems


def exact_counts(trace: dict) -> dict:
    counts = {f"{label}_calls": entry["calls"] for label, entry in trace["labels"].items()}
    counts.update(trace["counts"])
    return counts


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

@dataclass
class Op:
    kind: str  # warmup, setup, timed, untraced, traced
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    problems: list
    trace: dict | None = None


class Runner:
    """Runs and checks operations of one workload in one benchmark run."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.env = dict(os.environ, PYTHONPATH="src")
        self.channel = None
        if workload.static_channel:
            self.channel = os.path.relpath(work / "channel.json", ROOT)
            with open(ROOT / self.channel, "w") as fh:
                json.dump(static_channel(seed, workload.cp_len), fh)
        self.reference_csv: dict[bool, bytes] = {}
        self.ops: list[Op] = []
        self._count = 0

    def argv(self, out_dir: str, setup: bool = False) -> list[str]:
        return self.workload.argv(self.seed, out_dir, self.channel, setup=setup)

    def run(self, kind: str) -> Op:
        self._count += 1
        op_dir = self.work / f"op{self._count}"
        op_dir.mkdir()
        setup = kind in ("warmup", "setup")
        argv = self.argv(os.path.relpath(op_dir / "out", ROOT), setup=setup)
        trace_path = op_dir / "trace.json"
        if kind == "traced":
            w = self.workload
            child = [sys.executable, str(BENCH_DIR / "traced.py"), str(trace_path),
                     str(w.m), str(w.n), str(w.cp_len), str(w.qam), "--", *argv]
        else:
            child = [sys.executable, "-m", "otfsim.cli", *argv]
        stdout_path, stderr_path = op_dir / "stdout.txt", op_dir / "stderr.txt"
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            code, wall, rss_kb = spawn(child, self.env, out, err)
        stdout = stdout_path.read_text(errors="replace")
        problems = []
        if code != 0:
            problems.append(f"exit code {code}: {stderr_path.read_text(errors='replace')[-500:]!r}")
        else:
            problems += self.check_output(op_dir / "out", stdout, setup)
        trace = None
        if kind == "traced" and code == 0:
            trace = json.loads(trace_path.read_text())
            if trace["missing"]:
                # a renamed or removed function: its metrics read 0 from here on
                print(f"warning: traced names not found in otfsim: {trace['missing']}",
                      file=sys.stderr)
        op = Op(kind, wall, rss_kb / 1024.0, code, problems, trace)
        for problem in problems:
            print(f"FAILED {kind} operation {self._count}: {problem}", file=sys.stderr)
        self.ops.append(op)
        shutil.rmtree(op_dir, ignore_errors=True)
        return op

    def check_output(self, out_dir: Path, stdout: str, setup: bool) -> list[str]:
        w = self.workload
        if w.command == "equivalence":
            return check_equivalence(stdout)
        csv_path = out_dir / "ber.csv"
        if not csv_path.exists():
            return ["ber.csv was not written"]
        data = csv_path.read_bytes()
        snr = w.snr[:1] if setup else w.snr
        problems = check_ber_csv(
            data.decode(errors="replace"), snr, 1 if setup else w.trials,
            w.m * w.n * int(math.log2(w.qam)),
        )
        reference = self.reference_csv.setdefault(setup, data)
        if data != reference:
            problems.append("ber.csv differs from the first operation of this run with the same seed")
        return problems


def spawn(argv: list[str], env: dict, stdout, stderr) -> tuple[int, float, int]:
    """Run a child to completion: (exit code, wall seconds, peak RSS in KiB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=stdout, stderr=stderr)
    timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: int) -> float:
    values = list(values)
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def describe(values) -> dict:
    """Median, quartiles and sample count of a list of samples."""
    values = list(values)
    if len(values) < 2:
        q = [median(values)] * 3
    else:
        q = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median(values), "p25": q[0], "p75": q[2], "n": len(values)}


def end_to_end(runner: Runner) -> tuple[dict, dict]:
    frames = runner.workload.frames
    timed = [op for op in runner.ops if op.kind == "timed"]
    setup = [op for op in runner.ops if op.kind == "setup"]
    samples = {
        "frames_per_s": [frames / op.wall_s for op in timed],
        "setup_s": [op.wall_s for op in setup],
        "peak_rss_mb": [op.peak_rss_mb for op in timed],
    }
    units = {"frames_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
    metrics = {k: {"value": median(v), "unit": units[k]} for k, v in samples.items()}
    return metrics, {k: describe(v) for k, v in samples.items()}


#: per-operation span metrics: name -> (label, field, unit)
SPAN_METRICS = {
    "cli.self_s": ("cli.command", "self_s", "s"),
    "cli.write_s": ("cli.write", "total_s", "s"),
    "detect.assemble_s": ("detect.assemble", "self_s", "s"),
    "detect.first_detect_s": ("detect.first", "total_s", "s"),
    "numerics.lu_factor_s": ("numerics.lu_factor", "total_s", "s"),
    "numerics.lu_factor_calls": ("numerics.lu_factor", "calls", "count"),
    "numerics.dft_s": ("numerics.dft", "total_s", "s"),
    "numerics.dft_calls": ("numerics.dft", "calls", "count"),
    "channel.doppler_taps_s": ("channel.doppler_taps", "total_s", "s"),
    "channel.doppler_taps_calls": ("channel.doppler_taps", "calls", "count"),
    "channel.dd_response_s": ("channel.dd_response", "total_s", "s"),
}

#: per-frame span metrics, reported as p50 and p99 over every frame of every traced operation
FRAME_METRICS = {
    "detect.frame_us": "detect.frame",
    "modem_fast.modulate_us": "modem_fast.modulate",
    "modem_fast.demodulate_us": "modem_fast.demodulate",
    "modem_reference.modulate_us": "modem_reference.modulate",
    "modem_reference.demodulate_us": "modem_reference.demodulate",
    "grids.qam_map_us": "grids.qam_map",
    "grids.qam_demap_us": "grids.qam_demap",
    "channel.apply_us": "channel.apply",
    "channel.awgn_us": "channel.awgn",
}

COUNT_METRICS = ("modem_fast.cm_per_frame", "modem_reference.cm_per_frame")


def per_layer(runner: Runner) -> tuple[dict, dict]:
    frames = runner.workload.frames
    traced = [op for op in runner.ops if op.kind == "traced" and op.trace is not None]
    untraced = [op for op in runner.ops if op.kind == "untraced"]
    traces = [op.trace for op in traced]
    metrics = {}
    for name, (label, field, unit) in SPAN_METRICS.items():
        values = [t["labels"].get(label, {}).get(field, 0) for t in traces]
        value = (values[0] if values else 0) if unit == "count" else median(values)
        metrics[name] = {"value": value, "unit": unit}
    for name, label in FRAME_METRICS.items():
        pooled = [us for t in traces for us in t["labels"].get(label, {}).get("frame_us", [])]
        metrics[f"{name}.p50"] = {"value": percentile(pooled, 50), "unit": "us"}
        metrics[f"{name}.p99"] = {"value": percentile(pooled, 99), "unit": "us"}
    for name in COUNT_METRICS:
        metrics[name] = {"value": traces[0]["counts"][name] if traces else 0, "unit": "count"}
    fps_traced = median(frames / op.wall_s for op in traced)
    fps_untraced = median(frames / op.wall_s for op in untraced)
    metrics["trace.frames_per_s_traced"] = {"value": fps_traced, "unit": "1/s"}
    metrics["trace.frames_per_s_untraced"] = {"value": fps_untraced, "unit": "1/s"}
    overhead = (fps_untraced / fps_traced - 1.0) * 100.0 if fps_traced else 0.0
    metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    spread = {
        "traced_frames_per_s": describe(frames / op.wall_s for op in traced),
        "untraced_frames_per_s": describe(frames / op.wall_s for op in untraced),
    }
    return metrics, spread


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def environment(runner: Runner) -> dict:
    """What produced the numbers: versions, cores, BLAS, threads, commit, argv."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "otfsim").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    nproc = len(os.sched_getaffinity(0))
    # OpenBLAS reads these in this order and falls back to one thread per core
    thread_vars = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    set_vars = [runner.env[k] for k in thread_vars if runner.env.get(k)]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": set_vars[0] if set_vars else nproc,
        "blas_thread_env": {k: runner.env.get(k) for k in thread_vars},
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": runner.seed,
        "argv": ["otfs", *runner.argv("<out>")],
        "setup_argv": ["otfs", *runner.argv("<out>", setup=True)],
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def measure(runner: Runner, seconds: float, trace: bool) -> None:
    """Warm up, then (untraced) take the set-up samples and run timed
    operations, or (traced) alternate untraced and traced operations,
    until `seconds` would be exceeded."""
    runner.run("warmup")  # compiles bytecode and fills the page cache
    if not trace:
        for _ in range(SETUP_SAMPLES):
            runner.run("setup")
    kinds = ("untraced", "traced") if trace else ("timed",)
    minimum = MIN_TRACED_OPS if trace else MIN_TIMED_OPS
    start = time.perf_counter()
    longest = 0.0
    rounds = 0
    while rounds < minimum or time.perf_counter() - start + longest * len(kinds) <= seconds:
        for kind in kinds:
            longest = max(longest, runner.run(kind).wall_s)
        rounds += 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + sorted(EXTRA_WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "otfsim" / "cli.py").is_file():
        print(f"perfbench: no otfsim sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    workload = {**WORKLOADS, **EXTRA_WORKLOADS}[args.workload]
    WORK_DIR.mkdir(exist_ok=True)
    work = WORK_DIR / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        runner = Runner(workload, args.seed, work)
        measure(runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = [p for op in runner.ops for p in op.problems]
    if args.trace:
        count_problems = compare_exact_counts([op.trace for op in runner.ops if op.trace])
        for problem in count_problems:
            print(f"FAILED: {problem}", file=sys.stderr)
        problems += count_problems
        metrics, spread = per_layer(runner)
    else:
        metrics, spread = end_to_end(runner)
    attempted = len(runner.ops)
    failed = sum(1 for op in runner.ops if op.problems)

    env = environment(runner)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "frames_per_op": workload.frames,
        "env": env,
        "spread": spread,
        "metrics": metrics,
        "problems": problems,
        "ops": [
            {"kind": op.kind, "wall_s": op.wall_s, "peak_rss_mb": op.peak_rss_mb,
             "exit_code": op.exit_code, "problems": op.problems}
            for op in runner.ops
        ],
    }
    record_path = WORK_DIR / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2))

    print(f"workload {args.workload}  seed {args.seed}  frames/op {workload.frames}"
          f"  argv: {' '.join(env['argv'])}")
    print("env " + json.dumps({k: v for k, v in env.items() if "argv" not in k}))
    for name, stats in spread.items():
        print(f"  {name:28s} median {stats['median']:.6g}  p25 {stats['p25']:.6g}"
              f"  p75 {stats['p75']:.6g}  n {stats['n']}")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
    print(f"  error_rate {failed}/{attempted} = {failed / attempted:.3g}"
          f"  (operations failed / attempted)")
    print(f"  record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
