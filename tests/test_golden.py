"""Byte-identity gate: fixed command lines reproduce committed outputs.

`data/golden/cases.json` lists `otfs simulate` argvs. For each, the
`ber.csv` it wrote is kept as `data/golden/<name>.ber.csv`, and its
`ddresponse.csv` as a SHA-256; the default `otfs audit` table is kept as a
SHA-256 too. Each file came from ``PYTHONPATH=src python -m otfsim.cli
simulate --out DIR <argv>`` (or ``audit --out DIR``). A change that alters
these outputs on purpose regenerates them the same way and says why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from otfsim.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", CASES["simulate"], ids=lambda case: case["name"])
def test_simulate_outputs_unchanged(case, tmp_path, monkeypatch):
    monkeypatch.delenv("OTFS_SEED", raising=False)
    assert main(["simulate", "--out", str(tmp_path), *case["argv"].split()]) == 0
    expected = (GOLDEN / f"{case['name']}.ber.csv").read_bytes()
    assert (tmp_path / "ber.csv").read_bytes() == expected
    assert sha256(tmp_path / "ddresponse.csv") == case["ddresponse_sha256"]


def test_audit_table_unchanged(tmp_path):
    assert main(["audit", "--out", str(tmp_path)]) == 0
    assert sha256(tmp_path / "audit.csv") == CASES["audit_sha256"]
