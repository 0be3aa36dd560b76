"""CLI reports pinned byte for byte, apart from the clock.

Each file under tests/data/golden/reports is the JSON report of one `maxcorr`
invocation below, run from tests/data/golden with the "timing" block
removed and re-serialized the way the CLI prints it (indent 2, sorted
keys).
"""

import json
from pathlib import Path

import pytest

from maxcorr.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"

CASES = {
    "mu-random23": ["mu", "random23.json"],
    "mu-witness-oracle-random23": ["mu", "random23.json", "--witness", "--oracle", "--seed", "3"],
    "mu-witness-oracle-random33r2": ["mu", "random33r2.json", "--witness", "--oracle", "--seed", "3"],
    "mu-witness-oracle-iso02": ["mu", "iso02.json", "--witness", "--oracle", "--seed", "3"],
    "mu-witness-oracle-pure23": ["mu", "pure23.json", "--witness", "--oracle", "--seed", "3"],
    "suite-dpi": ["suite", "dpi", "--trials", "12", "--seed", "1", "--dims", "2x3"],
    "suite-tensor": ["suite", "tensor", "--trials", "12", "--seed", "1", "--dims", "2x3"],
    "suite-extremes": ["suite", "extremes", "--trials", "12", "--seed", "1", "--dims", "2x3"],
    "suite-semicontinuity": ["suite", "semicontinuity", "--trials", "12", "--seed", "1", "--dims", "2x3"],
    "suite-ment-dpi": ["suite", "ment-dpi", "--trials", "12", "--seed", "1", "--dims", "2x3"],
    "suite-ment-tensor": ["suite", "ment-tensor", "--trials", "12", "--seed", "1", "--dims", "2x3"],
    "ment-random22": ["ment", "random22.json", "--restarts", "1", "--iters", "120", "--seed", "0"],
    "ment-iso02": ["ment", "iso02.json", "--restarts", "1", "--iters", "40", "--seed", "0"],
    "ment-random23": ["ment", "random23.json", "--restarts", "1", "--iters", "40", "--seed", "0"],
    "twirl-random22": ["twirl", "random22.json"],
    "ppt-random22": ["ppt", "random22.json"],
    "iso-bounds-0.4": ["iso-bounds", "--epsilon", "0.4"],
    "mu-classical-joint23": ["mu-classical", "joint23.csv"],
}


def pinned_report(argv, capsys):
    """Run one invocation and return its report as pinned: no timing."""
    assert main(list(argv)) in (0, 1)
    rep = json.loads(capsys.readouterr().out)
    rep.pop("timing")
    return json.dumps(rep, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    want = (GOLDEN / "reports" / f"{name}.json").read_text(encoding="utf-8")
    assert pinned_report(CASES[name], capsys) == want
