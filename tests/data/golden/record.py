"""Re-record the golden CLI reports after a change that moves their floats.

Runs every case of tests/test_golden.py through that test's own
pinned_report, with its working directory and environment, and compares each
report with the file under reports/. For every report that differs it prints
how many floats changed and the largest change. With
--write it rewrites the reports that moved, but it writes nothing when any
report changed more than float values: a key, a string, a bool, an int or a
list length.

Run from the repository root:

    PYTHONPATH=src python tests/data/golden/record.py [--write]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

import test_golden  # noqa: E402


def pinned(argv: list) -> str:
    """test_golden.pinned_report, with stdout captured where pytest's capsys would."""
    out = io.StringIO()
    capsys = SimpleNamespace(readouterr=lambda: SimpleNamespace(out=out.getvalue()))
    with contextlib.redirect_stdout(out):
        return test_golden.pinned_report(argv, capsys)


def float_changes(old, new, where: str = "$") -> tuple:
    """(floats changed, largest change) from old to new; ValueError on any other difference."""
    if type(old) is not type(new):
        raise ValueError(f"{where}: {type(old).__name__} became {type(new).__name__}")
    if isinstance(old, float):
        return int(old != new), abs(new - old)
    if isinstance(old, dict):
        if old.keys() != new.keys():
            raise ValueError(f"{where}: keys {sorted(old)} became {sorted(new)}")
        pairs = [(old[k], new[k], f"{where}.{k}") for k in old]
    elif isinstance(old, list):
        if len(old) != len(new):
            raise ValueError(f"{where}: length {len(old)} became {len(new)}")
        pairs = [(o, n, f"{where}[{i}]") for i, (o, n) in enumerate(zip(old, new))]
    elif old != new:
        raise ValueError(f"{where}: {old!r} became {new!r}")
    else:
        return 0, 0.0
    count, largest = 0, 0.0
    for o, n, w in pairs:
        c, d = float_changes(o, n, w)
        count, largest = count + c, max(largest, d)
    return count, largest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Re-record golden CLI reports whose floats moved.")
    parser.add_argument("--write", action="store_true", help="rewrite the reports that moved")
    args = parser.parse_args(argv)

    os.chdir(test_golden.GOLDEN)
    reports = test_golden.GOLDEN / "reports"
    moved, refused = {}, []
    for name in sorted(test_golden.CASES):
        new = pinned(test_golden.CASES[name])
        old = (reports / f"{name}.json").read_text(encoding="utf-8")
        if new == old:
            print(f"{name}: unchanged")
            continue
        try:
            count, largest = float_changes(json.loads(old), json.loads(new))
        except ValueError as exc:
            print(f"{name}: more than floats changed: {exc}")
            refused.append(name)
            continue
        print(f"{name}: {count} floats changed, largest change {largest:.3e}")
        moved[name] = new

    if refused:
        print(f"nothing written: {', '.join(refused)} changed more than floats", file=sys.stderr)
        return 1
    if args.write:
        for name, text in moved.items():
            (reports / f"{name}.json").write_text(text, encoding="utf-8")
        print(f"wrote {len(moved)} report(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
