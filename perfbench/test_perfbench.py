"""Tests of the benchmark's own logic, at a tiny size.

Run with: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from spans import Span, Tracer, covered_ns, self_times_ns

TINY = run.Workload(
    "simulate", 16, 4, 4, 4, ("--detector", "zf"), snr=("10", "inf"), trials=2
)
TINY_BITS = 16 * 4 * 2


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def test_covered_merges_overlaps_and_clips_to_parent():
    assert covered_ns(0, 10, [(1, 3), (2, 5), (7, 8)]) == 5
    assert covered_ns(0, 10, [(-5, 2), (9, 20)]) == 3
    assert covered_ns(0, 10, []) == 0
    assert covered_ns(0, 10, [(12, 15)]) == 0


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0, 100, -1),
        Span("child", 10, 40, 0),
        Span("grandchild", 15, 35, 1),
        Span("child", 50, 60, 0),
    ]
    assert self_times_ns(spans) == [60, 10, 20, 10]


def test_tracer_nests_spans_and_counts_frames():
    tracer = Tracer()
    inner = tracer.wrap(lambda x: x + 1, "inner", frames_of=lambda args: args[0])
    outer = tracer.wrap(lambda x: inner(x) * 2, "outer")
    assert outer(3) == 8
    summary = tracer.summary()
    assert tracer.spans[1].parent == 0
    assert summary["inner"]["calls"] == 1 and summary["inner"]["frames"] == 3
    assert len(summary["inner"]["frame_us"]) == 3
    assert summary["outer"]["self_s"] <= summary["outer"]["total_s"]


def test_first_call_per_system_is_labelled_apart():
    tracer = Tracer()
    detect = tracer.wrap_first(lambda d, system: d, "first", "frame")

    class System:
        pass

    a, b, c = System(), System(), object()  # c cannot be weakly referenced
    for system in (a, a, a, b, b, c, c):
        detect(0, system)
    summary = tracer.summary()
    assert summary["first"]["calls"] == 3
    assert summary["frame"]["calls"] == 4


def test_tracer_records_span_when_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "boom")()
    assert tracer.summary()["boom"]["calls"] == 1
    assert tracer._stack == []


# ---------------------------------------------------------------------------
# output checks: corrupted outputs count as failures
# ---------------------------------------------------------------------------

def _csv(rows):
    return run.BER_HEADER + "\n" + "".join(
        f"{snr},{trials},{errors},{errors / (trials * TINY_BITS)!r},0\n"
        for snr, trials, errors in rows
    )


def test_good_ber_csv_passes():
    assert run.check_ber_csv(_csv([("10", 2, 3), ("inf", 2, 0)]), ("10", "inf"), 2, TINY_BITS) == []


@pytest.mark.parametrize(
    "rows",
    [
        [("10", 2, 3), ("inf", 2, 1)],  # errors at the noise-free point
        [("10", 2, 3)],  # a row missing
        [("10", 1, 3), ("inf", 1, 0)],  # wrong trial count
        [("12", 2, 3), ("inf", 2, 0)],  # wrong SNR point
        [("10", 2, 10**6), ("inf", 2, 0)],  # more errors than bits
    ],
)
def test_corrupted_ber_csv_fails(rows):
    assert run.check_ber_csv(_csv(rows), ("10", "inf"), 2, TINY_BITS)


def test_bad_header_fails():
    assert run.check_ber_csv("snr,ber\n10,0\n", ("10",), 1, TINY_BITS)


def test_equivalence_check():
    good = ("PASS: over 3 random grids, max |fast - reference| = 2.1e-15 (modulator), "
            "3.0e-15 (demodulator); tolerance 1e-11\n")
    assert run.check_equivalence(good) == []
    assert run.check_equivalence(good.replace("PASS", "FAIL"))
    assert run.check_equivalence(good.replace("2.1e-15", "2.0e-10"))
    assert run.check_equivalence("")


def test_differing_exact_counts_are_reported():
    trace = {"labels": {"numerics.lu_factor": {"calls": 12}}, "counts": {"modem_fast.cm_per_frame": 1792}}
    other = {"labels": {"numerics.lu_factor": {"calls": 11}}, "counts": {"modem_fast.cm_per_frame": 1792}}
    assert run.compare_exact_counts([trace, trace]) == []
    problems = run.compare_exact_counts([trace, other])
    assert len(problems) == 1 and "numerics.lu_factor_calls" in problems[0]


def test_static_channel_is_seeded_and_never_singular():
    assert run.static_channel(5, 64) == run.static_channel(5, 64)
    assert run.static_channel(5, 64) != run.static_channel(6, 64)
    for seed in range(50):
        taps = run.static_channel(seed, 64)["taps"]
        assert [t["delay"] for t in taps][::2] == [0, 64]
        mags = [math.hypot(t["gain_re"], t["gain_im"]) for t in taps]
        assert mags[0] > mags[1] + mags[2]


# ---------------------------------------------------------------------------
# operations against the real CLI, at a tiny size
# ---------------------------------------------------------------------------

@pytest.fixture
def work(tmp_path):
    if not (run.ROOT / "src" / "otfsim" / "cli.py").is_file():
        pytest.skip("needs the otfsim sources")
    path = run.WORK_DIR / f"test-{tmp_path.name}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


@pytest.fixture
def runner(work):
    return run.Runner(TINY, 7, work)


def test_untraced_and_traced_operations_pass_and_agree(runner):
    assert runner.run("timed").problems == []
    traced = runner.run("traced")
    assert traced.problems == []
    labels = traced.trace["labels"]
    frames = TINY.frames
    assert labels["cli.command"]["calls"] == 1
    assert labels["modem_fast.modulate"]["frames"] == frames
    assert labels["grids.qam_map"]["frames"] == frames
    assert labels["detect.first"]["frames"] + labels["detect.frame"]["frames"] == frames
    assert run.compare_exact_counts([traced.trace, runner.run("traced").trace]) == []


def test_reported_metrics_match_benchmark_json(runner):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for kind in ("warmup", "setup", "timed", "untraced", "traced"):
        runner.run(kind)
    assert set(run.end_to_end(runner)[0]) == {m["name"] for m in spec["end_to_end"]}
    assert set(run.per_layer(runner)[0]) == {m["name"] for m in spec["per_layer"]}
    assert set(run.WORKLOADS) == {w["name"] for w in spec["workloads"]}


def test_differing_ber_csv_within_a_run_fails(runner):
    assert runner.run("timed").problems == []
    runner.reference_csv[False] = runner.reference_csv[False].replace(b"inf,2,0", b"inf,2,1")
    assert any("differs" in p for p in runner.run("timed").problems)


def test_nonzero_exit_counts_as_failure(work):
    op = run.Runner(dataclasses.replace(TINY, m=1), 7, work).run("timed")
    assert op.exit_code != 0 and op.problems


def test_missing_sources_exit_nonzero_without_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in Path(run.__file__).parent.glob("*.py"):
        shutil.copy(path, bench)
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "ltv-zf-64x8",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
