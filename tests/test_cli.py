"""Tests for the CLI harness: config handling, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import qfunc

from otfsim import cli
from otfsim.cli import (
    ConfigError,
    RunConfig,
    load_config,
    main,
    run_equivalence,
    run_simulation,
)
from otfsim.grids import QAM_ORDERS, WINDOW_KINDS


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
        RunConfig().validate()

    def test_file_and_flag_precedence(self, tmp_path):
        path = write_config(tmp_path, M=32)
        cfg = load_config(str(path), {"M": 64}, env={})
        assert cfg.M == 64
        assert cfg.N == 4  # from file

    def test_env_seed_overrides_file_but_not_flag(self, tmp_path):
        path = write_config(tmp_path, seed=1)
        cfg = load_config(str(path), {}, env={"OTFS_SEED": "99"})
        assert cfg.seed == 99
        cfg = load_config(str(path), {"seed": 5}, env={"OTFS_SEED": "99"})
        assert cfg.seed == 5

    def test_invalid_fields_named_individually(self, tmp_path):
        path = write_config(tmp_path, M=1, trials=0, detector="genie")
        with pytest.raises(ConfigError) as err:
            load_config(str(path), {}, env={})
        assert set(err.value.fields) == {"M", "trials", "detector"}

    def test_missing_channel_file(self, tmp_path):
        path = write_config(tmp_path, channel="nope.json")
        with pytest.raises(ConfigError, match="channel"):
            load_config(str(path), {}, env={})

    def test_bad_env_seed(self, tmp_path):
        path = write_config(tmp_path)
        with pytest.raises(ConfigError, match="OTFS_SEED"):
            load_config(str(path), {}, env={"OTFS_SEED": "abc"})

    def test_unknown_keys_rejected(self, tmp_path):
        path = write_config(tmp_path, trails=10, window={"kind": "rectangular", "rolloff": 1})
        with pytest.raises(ConfigError) as err:
            load_config(str(path), {}, env={})
        assert set(err.value.fields) == {"trails", "window.rolloff"}


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


class TestAudit:
    def test_default_rejects_non_power_of_two(self, tmp_path, capsys):
        rc = main(["audit", "--Ms", "12", "--Ns", "4", "--out", str(tmp_path)])
        assert rc == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["status"] == "fail"

    def test_small_sweep_all_match(self, tmp_path):
        rc = main(["audit", "--Ms", "8,16", "--Ns", "2,4", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "audit.csv").read_text().splitlines()
        assert lines[0] == "structure,direction,M,N,predicted,measured,match"
        assert all(line.endswith("true") for line in lines[1:])

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
        ],
    )
    def test_malformed_config_names_field(self, tmp_path, capsys, text, field):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["simulate", "--config", str(path)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["status"] == "fail"
        assert set(record["fields"]) == {field}

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

    def test_non_finite_channel_gain_refused(self, tmp_path, capsys):
        channel = tmp_path / "channel.json"
        channel.write_text('{"taps": [{"delay": 0, "gain_re": NaN}]}')
        path = write_config(tmp_path)
        assert main(["simulate", "--config", str(path), "--channel", str(channel)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["status"] == "fail"
        assert "finite" in record["error"]

    def test_channel_longer_than_cp_refused(self, tmp_path, capsys):
        # its inter-symbol interference is simulated but not in the detector model
        path = write_config(
            tmp_path,
            Mcp=2,
            channel={"taps": [{"delay": 0, "gain_re": 1.0}, {"delay": 6, "gain_re": 0.5}]},
        )
        rc = main(["simulate", "--config", str(path)])
        assert rc == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["status"] == "fail"
        assert "channel" in record["error"]


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
