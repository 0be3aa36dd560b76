"""Smoke tests for the benchmark itself; about 90 seconds on two cores.

    python3 perfbench/smoke.py

Checks that every workload runs at tiny scale, untraced and traced, and
reports exactly the metrics BENCHMARK.json names; that an injected wrong mu
or certificate is caught by the gates and makes the run exit nonzero; that
two traced runs on one seed repeat their call counts and panel exactly; and
that the benchmark refuses to run where the package sources are missing.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

from common import OUT, ROOT, load_package

import run

HERE = Path(__file__).resolve().parent
TINY_SEARCH = ["--search-iters", "5", "--search-restarts", "1"]


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, f"{HERE.name}/run.py", *args]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None), proc


def check_workloads(spec: dict) -> None:
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END, "BENCHMARK.json end_to_end differs from run.END_TO_END"
    assert layers == run.per_layer_units(), "BENCHMARK.json per_layer differs from run.per_layer_units()"
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for workload in run.WORKLOADS:
        for trace, names in ((0, e2e), (1, layers)):
            code, result, proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                                       "--trace", str(trace), *TINY_SEARCH)
            assert code == 0 and result and result["correct"], (workload, trace, proc.stdout[-2000:], proc.stderr)
            assert set(result["metrics"]) == set(names), (workload, trace)
            assert result["attempted"] >= 1
            for name, metric in result["metrics"].items():
                assert metric["unit"] == names[name]
                assert isinstance(metric["value"], (int, float)), name
            if trace == 0:
                assert all(metric["value"] != 0 for metric in result["metrics"].values()), (workload, result)
            print(f"ok  {workload} trace={trace}: attempted={result['attempted']} failed={result['failed']}")


def check_traced_repeat() -> None:
    for workload in run.WORKLOADS:
        seen = []
        for _ in range(2):
            code, result, proc = bench("--workload", workload, "--seed", "5", "--seconds", "0.1", "--trace", "1",
                                       *TINY_SEARCH)
            assert code == 0, proc.stderr
            record = json.loads((OUT / f"result-{workload}-seed5-trace1.json").read_text())
            calls = {k: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls")}
            seen.append((calls, record["summary"].get("cert_upper_mean")))
        assert seen[0] == seen[1], f"{workload}: traced runs on one seed differ"
        print(f"ok  {workload}: two traced runs repeat call counts and cert_upper_mean")


def check_injected_fault() -> None:
    mc = load_package()
    honest_mu, honest_upper = mc.mu_schmidt, mc.mu_ent_upper

    def wrong_mu(*args, **kwargs):
        report = honest_mu(*args, **kwargs)
        return dataclasses.replace(report, mu=report.mu + 1e-6)

    def wrong_upper(*args, **kwargs):
        return honest_upper(*args, **kwargs) * 0.999

    for workload, attr, fault in (("spectral", "mu_schmidt", wrong_mu), ("search", "mu_ent_upper", wrong_upper)):
        setattr(mc, attr, fault)
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", workload, "--seed", "2", "--seconds", "0.1", *TINY_SEARCH])
        finally:
            setattr(mc, attr, {"mu_schmidt": honest_mu, "mu_ent_upper": honest_upper}[attr])
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        assert code == 1 and not result["correct"] and result["failed"] >= 1, (workload, result)
        print(f"ok  {workload}: injected wrong {attr} caught, failed={result['failed']}, exit {code}")


def check_bare_directory() -> None:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        code, result, proc = bench("--workload", "search", "--seed", "1", "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert code != 0 and result is None, (code, proc.stdout)
    print(f"ok  bare directory: exit {code}, no result printed")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_bare_directory()
    check_injected_fault()
    check_workloads(spec)
    check_traced_repeat()
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
