"""Tests for the CLI harness: config handling, determinism, exit codes."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import qfunc, sequential_equivalence

from otfsim import audit, cli
from otfsim.cli import (
    ConfigError,
    RunConfig,
    load_config,
    main,
    run_equivalence,
    run_simulation,
)
from otfsim.grids import QAM_ORDERS, WINDOW_KINDS, ModemConfig


@pytest.fixture(autouse=True)
def no_env_seed(monkeypatch):
    # OTFS_SEED overrides the file seed, so a caller's value must not reach the tests
    monkeypatch.delenv("OTFS_SEED", raising=False)


def write_config(tmp_path, **overrides):
    base = {
        "M": 16,
        "N": 4,
        "Mcp": 4,
        "qam": 4,
        "snr_db": [6.0],
        "trials": 4,
        "seed": 11,
        "out": str(tmp_path / "results"),
    }
    base.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base))
    return path


class TestConfig:
    def test_defaults_validate(self):
        RunConfig()

    def test_defaults_usable_as_built(self):
        cfg = RunConfig()
        assert cfg.modem_config() == ModemConfig(M=64, N=8, cp_len=16, qam_order=4)
        np.testing.assert_array_equal(cfg.build_window(), np.ones(8))
        assert [tap.delay for tap in cfg.build_channel().taps] == [0, 3]

    def test_fields_cannot_be_assigned(self):
        cfg = RunConfig()
        with pytest.raises(FrozenInstanceError):
            cfg.M = 1
        assert cfg.M == 64

    def test_replace_checks_again(self):
        with pytest.raises(ConfigError) as exc:
            replace(RunConfig(), M=1)
        assert set(exc.value.fields) == {"M"}

    def test_flag_overrides_a_bad_file_value(self, tmp_path):
        # the file's M alone is refused; the one config built has the flag's
        path = write_config(tmp_path, M=1)
        assert load_config(str(path), {"M": 64}).M == 64

    def test_numpy_integers_validate_as_python_ints(self):
        # uint8 sizes would wrap in M + Mcp; construction stores Python ints
        cfg = RunConfig(
            M=np.uint8(200), N=np.int32(4), cp_len=np.uint8(100), trials=np.int16(2),
            grids=np.uint64(2), seed=np.int64(7),
        )
        assert cfg == RunConfig(M=200, N=4, cp_len=100, trials=2, grids=2, seed=7)
        sizes = ("M", "N", "cp_len", "trials", "grids", "seed")
        assert {type(getattr(cfg, name)) for name in sizes} == {int}
        assert run_equivalence(cfg)["passed"]

    def test_numpy_floats_validate_as_python_floats(self):
        cfg = RunConfig(window_rho=np.float32(0.5), snr_db=(np.float32(3), np.int8(6)))
        assert (cfg.window_rho, cfg.snr_db) == (0.5, (3.0, 6.0))
        assert {type(v) for v in (cfg.window_rho, *cfg.snr_db)} == {float}

    @pytest.mark.parametrize("snr", [np.float32(-4000), -(10**400)])
    def test_overflowing_numpy_and_huge_int_snr_refused_by_name(self, snr):
        # the noise variance 10**400 overflows as a Python float, warning-free
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError) as exc:
                RunConfig(snr_db=(snr,))
        assert set(exc.value.fields) == {"snr"}

    @pytest.mark.parametrize("value", [True, 2.0])
    @pytest.mark.parametrize(
        "field, key",
        [("M", "M"), ("N", "N"), ("cp_len", "Mcp"), ("trials", "trials"), ("grids", "grids"),
         ("seed", "seed")],
    )
    def test_bool_and_float_sizes_refused_by_name(self, field, key, value):
        with pytest.raises(ConfigError) as exc:
            RunConfig(**{field: value})
        assert set(exc.value.fields) == {key}
        assert exc.value.fields[key].endswith(f", got {value!r}")

    def test_file_and_flag_precedence(self, tmp_path):
        path = write_config(tmp_path, M=32)
        cfg = load_config(str(path), {"M": 64})
        assert cfg.M == 64
        assert cfg.N == 4  # from file

    def test_env_seed_overrides_file_but_not_flag(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, seed=1)
        monkeypatch.setenv("OTFS_SEED", "99")
        cfg = load_config(str(path), {})
        assert cfg.seed == 99
        cfg = load_config(str(path), {"seed": 5})
        assert cfg.seed == 5

    def test_invalid_fields_named_individually(self, tmp_path):
        path = write_config(tmp_path, M=1, trials=0, detector="genie")
        with pytest.raises(ConfigError) as err:
            load_config(str(path), {})
        assert set(err.value.fields) == {"M", "trials", "detector"}

    def test_cp_not_shorter_than_m_refused(self):
        with pytest.raises(ConfigError) as exc:
            RunConfig(M=8, cp_len=8)
        assert exc.value.fields == {"Mcp": "must be < M = 8, got 8"}

    @pytest.mark.parametrize("M, cp", [(2, 2), (8, 8), (8, 9), (64, 100)])
    def test_cp_rule_worded_as_modem_config(self, M, cp):
        # the rule lives in both, since RunConfig reports every bad setting at once
        with pytest.raises(ValueError) as modem:
            ModemConfig(M, 4, cp)
        with pytest.raises(ConfigError) as run:
            RunConfig(M=M, cp_len=cp)
        assert str(modem.value) == "cp_len " + run.value.fields["Mcp"]

    def test_missing_channel_file(self, tmp_path):
        path = write_config(tmp_path, channel="nope.json")
        with pytest.raises(ConfigError, match="channel"):
            load_config(str(path), {})

    def test_bad_env_seed(self, tmp_path, monkeypatch):
        path = write_config(tmp_path)
        monkeypatch.setenv("OTFS_SEED", "abc")
        with pytest.raises(ConfigError, match="OTFS_SEED"):
            load_config(str(path), {})

    def test_unknown_keys_rejected(self, tmp_path):
        path = write_config(tmp_path, trails=10, window={"kind": "rectangular", "rolloff": 1})
        with pytest.raises(ConfigError) as err:
            load_config(str(path), {})
        assert set(err.value.fields) == {"trails", "window.rolloff"}

    def test_readme_schema_is_the_defaults(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"Config file schema.*?```json\n(.*?)```", readme, re.S)
        assert block, "README has no config file schema block"
        path = tmp_path / "schema.json"
        path.write_text(block.group(1))
        cfg = load_config(str(path), {})
        assert replace(cfg, channel=None, snr_db=tuple(cfg.snr_db)) == RunConfig()
        cfg.build_channel()  # its example channel is a valid spec


class TestSimulate:
    def test_noise_free_zf_recovers_everything(self):
        cfg = RunConfig(
            M=16, N=8, cp_len=4, detector="zf", snr_db=(300.0,), trials=3, seed=3
        )
        rows = run_simulation(cfg)
        assert rows[0]["bit_errors"] == 0

    def test_awgn_ber_matches_closed_form(self):
        # identity channel, QPSK: BER = Q(sqrt(snr_linear))
        cfg = RunConfig(
            M=16,
            N=8,
            cp_len=4,
            detector="mmse",
            snr_db=(4.0,),
            trials=120,
            seed=4,
            channel={"taps": [{"delay": 0, "gain_re": 1.0}]},
        )
        rows = run_simulation(cfg)
        expected = qfunc(np.sqrt(10 ** 0.4))
        n_bits = 120 * 16 * 8 * 2
        assert abs(rows[0]["ber"] - expected) <= 3 * np.sqrt(expected * (1 - expected) / n_bits)

    def test_fast_detector_end_to_end(self):
        # "fast" is a synonym of the per-symbol ZF detector
        cfg = RunConfig(
            M=16,
            N=8,
            cp_len=4,
            detector="fast",
            snr_db=(300.0,),
            trials=2,
            seed=5,
            channel={
                "taps": [
                    {"delay": 0, "gain_re": 0.8},
                    {"delay": 2, "gain_re": 0.0, "gain_im": 0.6},
                ]
            },
        )
        rows = run_simulation(cfg)
        assert rows[0]["bit_errors"] == 0

    def test_fast_and_zf_write_identical_ber_csv(self, tmp_path):
        # on the default Doppler channel, which is not block fading
        outputs = []
        for detector in ("fast", "zf"):
            out = tmp_path / detector
            argv = ["simulate", "--M", "16", "--N", "4", "--Mcp", "4", "--snr", "0,10",
                    "--trials", "2", "--seed", "2", "--detector", detector, "--out", str(out)]
            assert main(argv) == 0
            outputs.append((out / "ber.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_byte_identical_outputs_for_same_seed(self, tmp_path):
        path = write_config(tmp_path, snr_db=[0.0, 4.0], trials=3)
        out = tmp_path / "results"
        assert main(["simulate", "--config", str(path)]) == 0
        first = (out / "ber.csv").read_bytes()
        first_dd = (out / "ddresponse.csv").read_bytes()
        assert main(["simulate", "--config", str(path)]) == 0
        assert (out / "ber.csv").read_bytes() == first
        assert (out / "ddresponse.csv").read_bytes() == first_dd
        header = first.decode().splitlines()[0]
        assert header == "snr_db,trials,bit_errors,ber,stderr"

    def test_64qam_noise_free(self):
        cfg = RunConfig(
            M=16, N=8, cp_len=4, qam_order=64, detector="zf", snr_db=(300.0,),
            trials=2, seed=6,
        )
        assert run_simulation(cfg)[0]["bit_errors"] == 0

    def test_tapered_window_mmse_uses_colored_covariance(self):
        # end-to-end with a non-trivial window: the MMSE path consumes the
        # exact Kronecker covariance and still tracks the AWGN curve
        cfg = RunConfig(
            M=16, N=8, cp_len=4, detector="mmse", snr_db=(6.0,), trials=60, seed=8,
            window_kind="time-tapered", window_rho=0.5,
            channel={"taps": [{"delay": 0, "gain_re": 1.0}]},
        )
        row = run_simulation(cfg)[0]
        expected = float(qfunc(np.sqrt(10 ** 0.6)))
        assert row["ber"] <= 4 * expected  # windowing trades some BER, same order

    def test_snr_and_window_flags(self, tmp_path):
        out = tmp_path / "flagged"
        rc = main(
            [
                "simulate", "--M", "16", "--N", "4", "--Mcp", "4",
                "--snr", "200", "--trials", "2", "--seed", "1",
                "--window", "time-tapered", "--rho", "0.5",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert (out / "ber.csv").exists()

    def test_channel_file_round_trip(self, tmp_path):
        channel_path = tmp_path / "chan.json"
        channel_path.write_text(
            json.dumps({"taps": [{"delay": 0, "gain_re": 1.0, "gain_im": 0.0}]})
        )
        path = write_config(tmp_path, channel=str(channel_path), snr_db=[200.0])
        assert main(["simulate", "--config", str(path)]) == 0

    def test_channel_file_read_once(self, tmp_path, monkeypatch):
        # the detector's model and the simulated channel come from one read
        channel_path = tmp_path / "chan.json"
        channel_path.write_text(json.dumps({"taps": [{"delay": 0, "gain_re": 1.0}]}))
        reads = []

        def load_channel(path):
            reads.append(path)
            return cli.channel_from_spec(json.loads(Path(path).read_text()))

        monkeypatch.setattr(cli, "load_channel", load_channel)
        path = write_config(tmp_path, channel=str(channel_path), snr_db=[200.0])
        assert main(["simulate", "--config", str(path)]) == 0
        assert reads == [str(channel_path)]


@st.composite
def chunked_runs(draw):
    """A small run and a chunk size that splits its trials into exactly three
    chunks; the channel's delay-0 tap dominates, so no system is singular."""
    chunk = draw(st.integers(1, 3))
    m = draw(st.integers(4, 12))
    cfg = RunConfig(
        M=m,
        N=draw(st.integers(2, 4)),
        cp_len=draw(st.integers(2, m - 1)),
        qam_order=draw(st.sampled_from(QAM_ORDERS)),
        window_kind=draw(st.sampled_from(WINDOW_KINDS)),
        detector=draw(st.sampled_from(["zf", "mmse"])),
        snr_db=(0.0, 12.0, float("inf")),
        trials=draw(st.integers(2 * chunk + 1, 3 * chunk)),
        seed=draw(st.integers(0, 2**16)),
        channel={
            "taps": [
                {"delay": 0, "gain_re": 1.0, "doppler": 0.01},
                {"delay": 2, "gain_re": 0.3, "gain_im": 0.2, "doppler": -0.02},
            ]
        },
    )
    return cfg, chunk


class TestChunking:
    @settings(max_examples=25, deadline=None)
    @given(chunked_runs())
    def test_rows_do_not_depend_on_chunking(self, case):
        cfg, chunk = case
        whole = run_simulation(cfg)
        frame_len = (cfg.M + cfg.cp_len) * cfg.N
        batches = []
        modulate_fast = cli.modulate_fast

        def modulate(x, mcfg):
            batches.append(len(x))
            return modulate_fast(x, mcfg)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "CHUNK_SAMPLES", (chunk + 1) * frame_len - 1)
            mp.setattr(cli, "modulate_fast", modulate)
            chunked = run_simulation(cfg)
        assert batches[:3] == [chunk, chunk, cfg.trials - 2 * chunk]
        assert len(batches) == 3 * len(cfg.snr_db)
        assert chunked == whole


class TestEquivalence:
    def test_default_config_passes(self):
        report = run_equivalence(RunConfig(grids=10))
        assert report["passed"]
        assert report["modulator_max_dev"] <= 1e-11

    def test_tapered_window_passes(self):
        report = run_equivalence(
            RunConfig(M=32, N=8, cp_len=8, window_kind="time-tapered", window_rho=0.5, grids=10)
        )
        assert report["passed"]

    def test_cli_exit_zero(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["equivalence", "--config", str(path), "--grids", "5"]) == 0

    def test_qam_and_out_are_accepted_and_ignored(self, tmp_path, capsys):
        # one command line serves every command; equivalence maps no bits and writes nothing
        argv = ["equivalence", "--M", "16", "--N", "4", "--Mcp", "4", "--grids", "3"]
        assert main(argv) == 0
        plain = capsys.readouterr()
        out = tmp_path / "DIR"
        assert main([*argv, "--qam", "64", "--out", str(out)]) == 0
        assert capsys.readouterr() == plain
        assert plain.out.startswith("PASS: over 3 random grids") and plain.err == ""
        assert not out.exists()

    @pytest.mark.parametrize("name", ["modulate_fast", "demodulate_fast"])
    def test_one_deviating_sample_fails(self, tmp_path, capsys, monkeypatch, name):
        fast = getattr(cli, name)

        def deviating(*args, **kwargs):
            out = fast(*args, **kwargs)
            out.flat[0] += 1e-10
            return out

        monkeypatch.setattr(cli, name, deviating)
        assert not run_equivalence(RunConfig(grids=2))["passed"]
        path = write_config(tmp_path)
        assert main(["equivalence", "--config", str(path), "--grids", "2"]) == 1
        record = json.loads(capsys.readouterr().err)
        assert (record["status"], record["command"], record["passed"]) == (
            "fail", "equivalence", False
        )

    def test_inputs_have_zero_mean_unit_variance_parts(self, monkeypatch):
        # the input each reference modem receives, copied before the next draw
        seen = {}

        def spy(name):
            modem = getattr(cli, name)

            def call(x, *args, **kwargs):
                seen[name] = x.copy()
                return modem(x, *args, **kwargs)

            return call

        for name in ("modulate_reference", "demodulate_reference"):
            monkeypatch.setattr(cli, name, spy(name))
        cfg = RunConfig(M=1024, N=32, cp_len=256, grids=1, seed=0)
        assert run_equivalence(cfg)["passed"]
        x, frame = seen["modulate_reference"], seen["demodulate_reference"]
        frame_len = cfg.modem_config().frame_len
        assert x.shape == (1024, 32) and frame.shape == (frame_len,)
        values = np.concatenate([x.ravel(), frame])
        for part in (values.real, values.imag):
            assert abs(part.mean()) < 0.02
            assert abs(part.var() - 1) < 0.02
            assert np.abs(part).max() <= np.sqrt(3)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 24).flatmap(lambda m: st.tuples(
            st.just(m), st.integers(2, 7), st.integers(0, m - 1),
            st.integers(1, 5), st.sampled_from(WINDOW_KINDS), st.integers(0, 2**32),
        ))
    )
    def test_report_equals_sequential_loop(self, case):
        m, n, cp_len, grids, kind, seed = case
        cfg = RunConfig(M=m, N=n, cp_len=cp_len, window_kind=kind, grids=grids, seed=seed)
        assert run_equivalence(replace(cfg)) == sequential_equivalence(replace(cfg))

    def test_reports_hold_under_thread_contention(self):
        # four runs at once put eight threads on the cores, switching every microsecond
        cfg = RunConfig(M=12, N=5, cp_len=3, window_kind="time-tapered", grids=4, seed=3)
        expected = sequential_equivalence(replace(cfg))
        reports = []
        runs = [
            threading.Thread(target=lambda: reports.append(run_equivalence(replace(cfg))))
            for _ in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for run in runs:
                run.start()
            for run in runs:
                run.join(timeout=60)
                assert not run.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert reports == [expected] * 4

    def test_each_check_holds_only_its_input_and_two_results(self):
        # the six arrays are 3456 KB at 1024 x 32; a seventh result-sized one
        # (a magnitude buffer, a fresh result) would add 256-640 KB. The peak
        # is taken over three runs, as the two checks do not always overlap.
        cfg = RunConfig(M=1024, N=32, cp_len=256, grids=3)
        mcfg = cfg.modem_config()
        six = 3 * 16 * (mcfg.M * mcfg.N + mcfg.frame_len)
        run_equivalence(RunConfig(M=16, N=4, cp_len=4, grids=1))  # imports numpy.fft's helpers
        tracemalloc.start()
        try:
            for _ in range(3):
                run_equivalence(replace(cfg))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < six + 512 * 1024

    def test_worker_error_is_a_json_record(self, tmp_path, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise ValueError("modulator failed")

        monkeypatch.setattr(cli, "modulate_reference", failing)
        path = write_config(tmp_path)
        assert main(["equivalence", "--config", str(path), "--grids", "3"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        record = json.loads(err)
        assert (record["status"], record["command"], record["error"]) == (
            "fail", "equivalence", "modulator failed"
        )


class TestAudit:
    def test_default_rejects_non_power_of_two(self, tmp_path, capsys):
        rc = main(["audit", "--Ms", "12", "--Ns", "4", "--out", str(tmp_path)])
        assert rc == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["status"] == "fail"

    @pytest.mark.parametrize(
        "args,field,got",
        [
            (["--Ms="], "Ms", "[]"),
            (["--Ms", "3"], "Ms", "[3]"),
            (["--Ms", "1"], "Ms", "[1]"),
            (["--Ns", "1,4"], "Ns", "[1, 4]"),
        ],
    )
    def test_bad_setting_named_before_output(self, tmp_path, capsys, args, field, got):
        out = tmp_path / "out"
        assert main(["audit", *args, "--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err)
        assert (record["status"], record["command"]) == ("fail", "config")
        assert set(record["fields"]) == {field}
        message = record["fields"][field]
        assert message.startswith("must be ") and message.endswith(f", got {got}")
        assert not out.exists()

    @pytest.mark.parametrize("args", [["--seed", "3"], ["--seed=--"]])
    def test_seed_is_not_an_audit_flag(self, tmp_path, capsys, args):
        # CM counts depend on the sizes alone, so the audit draws nothing
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["audit", *args, "--out", str(out)])
        assert exc.value.code == 2
        (line,) = capsys.readouterr().err.splitlines()
        record = json.loads(line)
        assert (record["status"], record["command"]) == ("fail", "argv")
        assert "--seed" in record["error"]
        assert not out.exists()

    def test_small_sweep_all_match(self, tmp_path):
        rc = main(["audit", "--Ms", "8,16", "--Ns", "2,4", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "audit.csv").read_text().splitlines()
        assert lines[0] == "structure,direction,M,N,predicted,measured,match"
        assert all(line.endswith("true") for line in lines[1:])

    def test_mismatch_exits_one_with_record(self, tmp_path, capsys, monkeypatch):
        predicted_cm = audit.predicted_cm

        def off_by_one(structure, direction, m, n):
            return predicted_cm(structure, direction, m, n) + (structure == "ofdm")

        monkeypatch.setattr(audit, "predicted_cm", off_by_one)
        assert main(["audit", "--Ms", "8", "--Ns", "4", "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "all predicted == measured" not in captured.out
        (line,) = captured.err.splitlines()
        record = json.loads(line)
        assert (record["status"], record["command"]) == ("fail", "audit")
        assert [(row["structure"], row["direction"]) for row in record["mismatches"]] == [
            ("ofdm", "mod"), ("ofdm", "demod")
        ]
        assert record["mismatches"][0] == dict(
            structure="ofdm", direction="mod", M=8, N=4, predicted=49, measured=48
        )

    def test_spot_row_values(self, tmp_path):
        rc = main(["audit", "--Ms", "512", "--Ns", "16", "--out", str(tmp_path)])
        assert rc == 0
        rows = {
            (parts[0], parts[1]): parts
            for parts in (
                line.split(",")
                for line in (tmp_path / "audit.csv").read_text().splitlines()[1:]
            )
        }
        assert rows[("reference", "mod")][4] == "90112"
        assert rows[("ofdm", "mod")][4] == "36864"
        assert rows[("proposed", "mod")][4] == "16384"
        assert rows[("reference", "demod")][4] == "94208"
        assert rows[("proposed", "demod")][4] == "20480"


class TestErrorPaths:
    def test_invalid_config_exit_code_and_record(self, tmp_path, capsys):
        path = write_config(tmp_path, trials=0)
        rc = main(["simulate", "--config", str(path)])
        assert rc == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["status"] == "fail"
        assert "trials" in record["fields"]

    @pytest.mark.parametrize(
        "text, field",
        [
            ("3", "config"),
            ('{"window": 5}', "window"),
            ('{"window": {"rho": "x"}}', "rho"),
            ('{"snr_db": "ab"}', "snr"),
            ('{"snr_db": ["x"]}', "snr"),
            ('{"snr_db": 5}', "snr"),
            ('{"trials": true}', "trials"),
            ('{"M": 1}', "M"),  # and no second entry for the defaulted Mcp
            ('{"snr_db": [0, -4000]}', "snr"),  # noise variance 1e400 overflows
            ("{", "config"),
            ("", "config"),
        ],
    )
    def test_malformed_config_names_field(self, tmp_path, capsys, text, field):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["simulate", "--config", str(path)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["status"] == "fail"
        assert set(record["fields"]) == {field}

    def test_missing_config_file_names_config(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "missing.json")]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert (record["status"], record["command"]) == ("fail", "config")
        assert set(record["fields"]) == {"config"}

    @pytest.mark.parametrize("snr", ["-4000", "-3083", "-inf", "0,-1e400", "nan"])
    def test_snr_without_finite_noise_variance_refused(self, tmp_path, capsys, snr):
        # +inf stays allowed: its noise variance is 0
        argv = ["simulate", "--M", "8", "--N", "2", "--trials", "1", "--out", str(tmp_path)]
        assert main([*argv, f"--snr={snr}"]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert (record["status"], record["command"]) == ("fail", "config")
        assert set(record["fields"]) == {"snr"}

    def test_allocation_failure_exits_two(self, tmp_path, capsys, monkeypatch):
        # as when the per-symbol system of a huge grid cannot be allocated
        def assemble_effective(*args):
            raise MemoryError("Unable to allocate 1.19 TiB for an array")

        monkeypatch.setattr(cli, "assemble_effective", assemble_effective)
        assert main(["simulate", "--out", str(tmp_path)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert (record["status"], record["command"]) == ("fail", "simulate")
        assert "allocate" in record["error"]

    def test_singular_symbol_named(self, tmp_path, capsys):
        # two equal taps, the second at delay M/2 with 1/126 cycles per sample:
        # the phases of H_2 close a cycle, so H_2 of 4 is singular and ZF
        # refuses it by name; MMSE at 10 dB still runs
        taps = [{"delay": 0, "gain_re": 1.0}, {"delay": 8, "gain_re": 1.0, "doppler": 1 / 126}]
        path = write_config(tmp_path, M=16, Mcp=8, trials=1, channel={"taps": taps})
        assert main(["simulate", "--config", str(path), "--detector", "zf"]) == 2
        record = json.loads(capsys.readouterr().err)
        assert (record["status"], record["command"]) == ("fail", "simulate")
        assert record["error"].startswith("symbol 2 of 4 is singular")
        assert main(["simulate", "--config", str(path), "--detector", "mmse"]) == 0

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["simulate", "--snr", "abc"], "--snr"),
            (["simulate", "--M", "x"], "--M"),
            (["audit", "--Ms", "8,x"], "--Ms"),
            (["simulate", "--bogus"], "--bogus"),
        ],
    )
    def test_bad_argv_json_record(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        record = json.loads(capsys.readouterr().err)
        assert record.keys() == {"status", "command", "error"}
        assert (record["status"], record["command"]) == ("fail", "argv")
        assert flag in record["error"]

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--help"])
        assert exc.value.code == 0
        assert "usage: otfs simulate" in capsys.readouterr().out

    @staticmethod
    def refused_channel(tmp_path, capsys, argv, out_made=False):
        """The channel message of a run refused for its channel, which must
        leave stderr one JSON line and write no output: no output directory,
        or an empty one if `out_made`."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        record = json.loads(err)
        assert (record["status"], record["command"]) == ("fail", "config")
        assert set(record["fields"]) == {"channel"}
        out = tmp_path / "results"
        assert (list(out.iterdir()) == []) if out_made else not out.exists()
        return record["fields"]["channel"]

    def test_non_finite_channel_gain_refused(self, tmp_path, capsys):
        channel = tmp_path / "channel.json"
        channel.write_text('{"taps": [{"delay": 0, "gain_re": NaN}]}')
        path = write_config(tmp_path)
        argv = ["simulate", "--config", str(path), "--channel", str(channel)]
        assert "finite" in self.refused_channel(tmp_path, capsys, argv)

    def test_huge_integer_doppler_named(self, tmp_path, capsys):
        # json reads 10**400 as an int, which no float can hold
        channel = tmp_path / "channel.json"
        channel.write_text('{"taps": [{"delay": 0, "doppler": 1%s}]}' % ("0" * 400))
        path = write_config(tmp_path)
        argv = ["simulate", "--config", str(path), "--channel", str(channel)]
        message = self.refused_channel(tmp_path, capsys, argv)
        assert message == f"channel spec taps[0].doppler: must be a finite number, got {10**400}"

    def test_channel_doppler_overflow_refused(self, tmp_path, capsys):
        # finite tap values whose phase 2*pi*doppler*kappa overflows
        path = write_config(tmp_path, channel={"taps": [{"delay": 0, "doppler": 1e308}]})
        argv = ["simulate", "--config", str(path)]
        assert self.refused_channel(tmp_path, capsys, argv) == "channel has non-finite values"

    @pytest.mark.parametrize("gains", [[1e308, 1e308], [1e200]], ids=["apply", "gram"])
    def test_channel_that_overflows_when_run_refused(self, tmp_path, capsys, gains):
        # finite gains whose sums or products overflow, which only running them shows
        taps = [{"delay": delay, "gain_re": gain} for delay, gain in enumerate(gains)]
        path = write_config(tmp_path, channel={"taps": taps})
        argv = ["simulate", "--config", str(path)]
        message = self.refused_channel(tmp_path, capsys, argv, out_made=True)
        assert message.startswith("must keep the simulation finite, got overflow")

    def test_overflow_names_the_snr_point(self, tmp_path, capsys):
        # at -3000 dB ZF's solve scales noise of variance 1e300 by 1/|gain|**2
        channel = {"taps": [{"delay": 0, "gain_re": 3.4298858960825427e-90}]}
        path = write_config(tmp_path, M=8, N=2, Mcp=3, snr_db=[-3000.0, 10.0], channel=channel)
        argv = ["simulate", "--config", str(path)]
        message = self.refused_channel(tmp_path, capsys, [*argv, "--detector", "zf"], out_made=True)
        assert message.startswith("must keep the simulation finite, got overflow")
        assert message.endswith(" at snr_db -3000")
        # MMSE's solve adds the noise variance first and stays finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--detector", "mmse"]) == 0

    def test_malformed_channel_spec_refused(self, tmp_path, capsys):
        path = write_config(tmp_path, channel={"taps": [{"delay": 0, "gain": 1}]})
        argv = ["simulate", "--config", str(path)]
        assert "taps[0].gain: unknown key" in self.refused_channel(tmp_path, capsys, argv)

    def test_channel_longer_than_cp_refused(self, tmp_path, capsys):
        # its inter-symbol interference is simulated but not in the detector model
        path = write_config(
            tmp_path,
            Mcp=2,
            channel={"taps": [{"delay": 0, "gain_re": 1.0}, {"delay": 6, "gain_re": 0.5}]},
        )
        argv = ["simulate", "--config", str(path)]
        assert "exceeds Mcp + 1" in self.refused_channel(tmp_path, capsys, argv)


@pytest.mark.parametrize(
    "argv",
    [["simulate", "--M", "16", "--N", "2", "--trials", "1"], ["audit", "--Ms", "2", "--Ns", "2"]],
    ids=["simulate", "audit"],
)
def test_out_that_is_a_file_named(tmp_path, capsys, argv):
    # an existing regular file cannot be the output directory; it is left as it was
    out = tmp_path / "F"
    out.write_text("kept")
    assert main([*argv, "--out", str(out)]) == 2
    record = json.loads(capsys.readouterr().err)
    assert (record["status"], record["command"]) == ("fail", "config")
    assert set(record["fields"]) == {"out"}
    assert record["fields"]["out"].startswith(f"must be a directory path, got {str(out)!r}")
    assert out.read_text() == "kept"


def test_cli_import_loads_no_scipy():
    # scipy's import alone costs a few tenths of a second of every otfs run
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = "import sys, otfsim.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_no_logging():
    # concurrent.futures imports logging, a few ms and most of a MB on every otfs run
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = (
        "import otfsim.cli, sys; "
        "print([m for m in ('concurrent.futures', 'logging') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
def test_import_defaults_openblas_to_one_thread(preset, expected):
    # idle OpenBLAS helper threads busy-wait and slow runs on a loaded machine
    root = Path(__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(root / "src")
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = "import os, otfsim.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == expected


# ---------------------------------------------------------------------------
# fuzzed command lines and config files
# ---------------------------------------------------------------------------

#: JSON values of every type but int
WILD = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.integers(-2, 4), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 4), max_size=1),
)
NUMBER = st.one_of(st.floats(), st.integers(), WILD)
#: dB values around the noise variance 10**(-snr/10) overflowing a float,
#: below about -3082.5 dB, and beyond
SNR_POINTS = st.one_of(
    st.floats(-10, 40), st.floats(-3100, -3000), st.floats(allow_nan=False), st.integers()
)
TAPS = st.fixed_dictionaries(
    {"delay": st.integers(0, 3)},
    optional={"gain_re": st.floats(-2, 2), "gain_im": st.floats(-2, 2),
              "doppler": st.floats(-0.1, 0.1), "phase": st.floats(-7, 7)},
)
WILD_TAPS = st.fixed_dictionaries(
    {"delay": st.one_of(st.integers(), WILD)},
    optional={key: NUMBER for key in ("gain_re", "gain_im", "doppler", "phase", "gain")},
)


def small(low, high):
    """Valid sizes, and wild ones that are refused before anything is allocated."""
    return st.integers(low, high), st.one_of(st.integers(-2, low - 1), WILD)


#: config key -> (plausible values, wild values); sizes stay small, so that no
#: run allocates much, and out stays inside the sandbox. Plausible Mcp always
#: holds a channel of delay 3, the largest plausible delay, and reaches past M
#: to the Mcp >= M refusal
CONFIG_VALUES = {
    "M": small(8, 12),
    "N": small(2, 6),
    "Mcp": small(3, 13),
    "qam": (st.sampled_from(QAM_ORDERS), NUMBER),
    "window": (
        st.one_of(
            st.sampled_from(WINDOW_KINDS),
            st.fixed_dictionaries({"kind": st.sampled_from(WINDOW_KINDS), "rho": st.floats(0, 1)}),
        ),
        st.one_of(
            WILD, st.fixed_dictionaries({}, optional={"kind": WILD, "rho": NUMBER, "x": WILD})
        ),
    ),
    "detector": (st.sampled_from(cli.DETECTORS), WILD),
    "snr_db": (st.lists(SNR_POINTS, min_size=1, max_size=3), st.one_of(st.lists(NUMBER), NUMBER)),
    "trials": small(1, 3),
    "grids": small(1, 3),
    "seed": (st.integers(0), st.one_of(st.integers(max_value=-1), WILD)),
    "channel": (
        st.one_of(
            st.none(), st.fixed_dictionaries({"taps": st.lists(TAPS, min_size=1, max_size=2)})
        ),
        st.one_of(
            WILD,
            st.fixed_dictionaries({"taps": st.lists(WILD_TAPS, max_size=2)}, optional={"x": WILD}),
        ),
    ),
    "out": (st.just("out"), st.one_of(st.none(), st.integers(), st.lists(st.none()))),
}


def flag(values):
    return values.map(str), st.text(alphabet="-x.e1,", max_size=2)


#: flag -> (plausible text, wild text) for simulate and equivalence
FLAG_VALUES = {
    "--M": flag(st.integers(8, 12)),
    "--N": flag(st.integers(2, 6)),
    "--Mcp": flag(st.integers(3, 13)),
    "--qam": (st.sampled_from(QAM_ORDERS).map(str), st.just("5")),
    "--seed": flag(st.integers(0)),
    "--window": (st.sampled_from(WINDOW_KINDS), st.just("hann")),
    "--rho": (st.floats(0, 1).map(repr), st.floats().map(repr)),
    "--snr": (
        st.lists(SNR_POINTS.map(repr), min_size=1, max_size=3).map(",".join),
        st.text(alphabet="-x.e1,", max_size=3),
    ),
    "--trials": flag(st.integers(1, 3)),
    "--detector": (st.sampled_from(cli.DETECTORS), st.just("ml")),
    "--channel": (st.just("chan.json"), st.sampled_from(["missing.json", "."])),
    "--grids": flag(st.integers(1, 3)),
}
COMMON_FLAGS = ["--M", "--N", "--Mcp", "--qam", "--seed", "--window", "--rho"]
OWN_FLAGS = {
    "simulate": [*COMMON_FLAGS, "--snr", "--trials", "--detector", "--channel"],
    "equivalence": [*COMMON_FLAGS, "--grids"],
}
AUDIT_SIZES = st.lists(st.sampled_from([2, 4, 8]), min_size=1, max_size=2).map(
    lambda sizes: ",".join(map(str, sizes))
)
AUDIT_VALUES = {
    "--Ms": (AUDIT_SIZES, st.sampled_from(["", "0", "-4", "3", "1,x"])),
    "--Ns": (AUDIT_SIZES, st.sampled_from(["", "0", "-4", "3", "1,x"])),
}


#: true for one draw in six
RARELY = st.sampled_from([False] * 5 + [True])


def draw_wild(draw, keys):
    """No key half the time, else one or two of `keys`."""
    count = draw(st.sampled_from([0, 0, 1, 2]))
    return set(draw(st.lists(st.sampled_from(list(keys)), min_size=count, max_size=count)))


def draw_values(draw, table, keys, wild):
    return {key: draw(table[key][key in wild]) for key in keys}


@st.composite
def invocations(draw):
    """A command line, and the config file, channel file and OTFS_SEED it may
    read. At most two settings take wild values, and few files or OTFS_SEED
    values are unreadable, so that most inputs get past the first refusal."""
    command = draw(st.sampled_from(["simulate", "simulate", "equivalence", "audit"]))
    if command == "audit":
        wild = draw_wild(draw, AUDIT_VALUES)
        values = draw_values(draw, AUDIT_VALUES, list(AUDIT_VALUES), wild)
        return [command, *(f"{k}={v}" for k, v in values.items())], {}, None
    flags = draw(st.sets(st.sampled_from(OWN_FLAGS[command]), max_size=3))
    if draw(RARELY):  # a flag of the other command, which argparse refuses
        flags.add(draw(st.sampled_from(sorted(set(FLAG_VALUES) - set(OWN_FLAGS[command])))))
    wild = draw_wild(draw, [*FLAG_VALUES, *CONFIG_VALUES])
    values = draw_values(draw, FLAG_VALUES, sorted(flags), wild)
    config = draw_values(draw, CONFIG_VALUES, list(CONFIG_VALUES), wild)
    if draw(RARELY):
        config.setdefault(draw(st.text(max_size=3)), draw(WILD))
    config_text = draw(st.sampled_from([json.dumps(config)] * 19 + ["", "{", "3"]))
    config_path = draw(st.sampled_from(["run.json"] * 19 + ["missing.json"]))
    files = {
        "run.json": config_text,
        "chan.json": json.dumps(draw(CONFIG_VALUES["channel"][draw(RARELY)])),
    }
    env_seed = draw(st.sampled_from([None] * 6 + ["7", " 5 ", "-3", "x"]))
    argv = [command, f"--config={config_path}", *(f"{k}={v}" for k, v in values.items())]
    return argv, files, env_seed


def run_in_sandbox(argv, files, env_seed):
    """Run `main` in a fresh working directory; return its exit code and stderr."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for name, text in files.items():
            Path(name).write_text(text)
        with mock.patch.dict(os.environ):
            os.environ.pop("OTFS_SEED", None)
            if env_seed is not None:
                os.environ["OTFS_SEED"] = env_seed
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse, on a bad command line
                    code = exc.code
    return code, err.getvalue()


class TestCliBoundary:
    @settings(max_examples=100, deadline=None)
    @given(invocations())
    @example((["audit", "--Ms=2", "--Ns=2", "--seed=--"], {}, None))  # argv: no audit seed
    @example((["equivalence", "--config=run.json", "--M=8", "--Mcp=8"], {"run.json": "{}"}, None))
    @example((  # ZF's solve overflows: a channel refusal, with no NumPy warning
        ["simulate", "--config=run.json"],
        {"run.json": json.dumps({
            "M": 8, "N": 2, "Mcp": 3, "qam": 4, "window": "rectangular", "detector": "zf",
            "snr_db": [-3000.0], "trials": 1, "grids": 1, "seed": 0,
            "channel": {"taps": [{"delay": 0, "gain_re": 3.4298858960825427e-90}]}, "out": "out",
        }), "chan.json": "null"},
        None,
    ))
    def test_every_input_exits_with_a_record(self, invocation):
        code, err = run_in_sandbox(*invocation)
        assert code in (0, 1, 2)
        if code != 0:
            record = json.loads(err.strip().splitlines()[-1])
            assert record["status"] == "fail"
