"""The `cli` workload: a fixed session of `python -m maxcorr.cli` invocations.

The session runs one command at a time, each in a fresh interpreter, as a
user at a shell would. It covers gen, mu, mu --witness --oracle,
mu-classical, ppt, twirl, iso-bounds, ment at a small budget, and
suite dpi|tensor|ment-tensor with few trials; `suite tensor --dims 4x4` is
the only path that builds 16x16-local states. A small share of malformed
inputs must each exit 2 without a traceback.

Gates: the exit code, the report parses as JSON, the report is byte-identical
to the first pass once `timing` is stripped, and the values are checked
against closed forms or the benchmark's own reference.

For the traced run the same session runs in-process through cli.main, so
spans see the layers under each command without interpreter start-up.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
import traceback

import numpy as np

from common import OUT, ROOT, child_env, reference_mu, reference_mu_classical

KNOWN_DEFECTS = {
    "malformed-dims-bool": "exits 1 with a TypeError traceback instead of 2 (ROADMAP item 4)",
}
"""Steps that fail at the parent commit; they count in `failed` but do not
make the run incorrect. Delete an entry once the defect is fixed."""

MENT_BUDGET = ["--k", "4", "--restarts", "1", "--iters", "40"]


def _state_json(dims, rows) -> str:
    return json.dumps({"dims": dims, "matrix": rows})


class CliWorkload:
    name = "cli"
    op_name = "bench.cli.invocation"
    min_passes = 3
    """Every run makes at least these passes, so each report is compared with
    a repeat and each slot's best latency is taken over three invocations."""

    def __init__(self, mc, seed: int):
        self.mc = mc
        self.seed = seed
        self.cli = importlib.import_module("maxcorr.cli")
        self.in_process = False
        self.tracer = None
        self.workdir = OUT / f"cli-seed{seed}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.first_report = {}
        self.cert_uppers = {}
        self.child_peak_kb = 0
        self.steps = self._session(np.random.default_rng(seed))

    def _path(self, name: str) -> str:
        return os.path.relpath(self.workdir / name, ROOT)

    def _write(self, name: str, text: str) -> str:
        (self.workdir / name).write_text(text, encoding="utf-8")
        return self._path(name)

    def _session(self, rng) -> list:
        """(label, argv, expected exit code, value check) for one pass."""
        p = self._path
        d1 = tuple(int(x) for x in rng.integers(2, 5, size=2))
        d2 = tuple(int(x) for x in rng.integers(2, 5, size=2))
        rank1 = int(rng.integers(1, d1[0] * d1[1] + 1))
        s1, s2, s3 = (int(x) for x in rng.integers(0, 2**31, size=3))
        flip = round(float(rng.uniform(0.05, 0.45)), 6)
        rows, cols = (int(x) for x in rng.integers(2, 5, size=2))
        table = rng.dirichlet(np.ones(rows * cols)).reshape(rows, cols)
        table_path = self._write("table.csv", "".join(",".join(repr(float(v)) for v in r) + "\n" for r in table))
        bad = {
            "malformed-not-json": ("mu", self._write("not-json.json", "{dims: 2x2")),
            "malformed-not-hermitian": (
                "mu",
                self._write(
                    "not-hermitian.json",
                    _state_json([1, 2], [[[0.5, 0.0], [0.3, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]),
                ),
            ),
            "malformed-negative-csv": ("mu-classical", self._write("negative.csv", "0.6,-0.1\n0.25,0.25\n")),
            "malformed-missing-file": ("mu", p("missing.json")),
            "malformed-dims-bool": (
                "mu",
                self._write("dims-bool.json", _state_json([True, 2], [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]])),
            ),
        }
        steps = [
            ("gen-iso-0.4", ["gen", "isotropic", "0.4", "-o", p("iso04.json")], 0, None),
            ("gen-iso-0.7", ["gen", "isotropic", "0.7", "-o", p("iso07.json")], 0, None),
            ("gen-bsc", ["gen", "bsc", str(flip), "-o", p("bsc.csv")], 0, None),
            (
                "gen-random-1",
                ["gen", "random", "--da", str(d1[0]), "--db", str(d1[1]), "--rank", str(rank1),
                 "--seed", str(s1), "-o", p("random1.json")],
                0,
                None,
            ),
            (
                "gen-random-2",
                ["gen", "random", "--da", str(d2[0]), "--db", str(d2[1]), "--seed", str(s2), "-o", p("random2.json")],
                0,
                None,
            ),
            ("mu-iso-0.4", ["mu", p("iso04.json")], 0, _expect("mu", 0.6)),
            ("mu-iso-0.7", ["mu", p("iso07.json")], 0, _expect("mu", 0.3)),
            ("mu-random-1", ["mu", p("random1.json")], 0, self._reference_mu("random1.json")),
            ("mu-random-2", ["mu", p("random2.json")], 0, self._reference_mu("random2.json")),
            ("mu-oracle", ["mu", p("random2.json"), "--witness", "--oracle", "--seed", str(s3)], 0, _oracle_agrees),
            ("mu-classical-bsc", ["mu-classical", p("bsc.csv")], 0, _expect("mu", abs(1.0 - 2.0 * flip))),
            ("mu-classical-table", ["mu-classical", table_path], 0, _expect("mu", reference_mu_classical(table))),
            ("ppt-iso-0.4", ["ppt", p("iso04.json")], 0, _expect("min_eigenvalue", (3 * 0.4 - 2) / 4)),
            ("ppt-random-1", ["ppt", p("random1.json")], 0, None),
            ("twirl-iso-0.4", ["twirl", p("iso04.json")], 0, _expect("epsilon", 0.4)),
            ("twirl-iso-0.7", ["twirl", p("iso07.json")], 0, _expect("epsilon", 0.7)),
            ("iso-bounds-0.4", ["iso-bounds", "--epsilon", "0.4"], 0, _expect("lower", 0.4)),
            ("iso-bounds-0.7", ["iso-bounds", "--epsilon", "0.7"], 0, _expect("upper", 0.0)),
            ("ment-iso-0.4", ["ment", p("iso04.json"), *MENT_BUDGET, "--seed", str(s3)], 0, self._ment(0.4)),
            ("ment-iso-0.7", ["ment", p("iso07.json"), *MENT_BUDGET, "--seed", str(s3)], 0, self._ment(0.7)),
            ("suite-dpi", ["suite", "dpi", "--trials", "6", "--dims", "2x3", "--seed", str(s1)], 0, _no_violations),
            ("suite-tensor-4x4", ["suite", "tensor", "--trials", "2", "--dims", "4x4", "--seed", str(s2)], 0,
             _no_violations),
            ("suite-ment-tensor", ["suite", "ment-tensor", "--trials", "3", "--seed", str(s3)], 0, _no_violations),
            ("malformed-unknown-suite", ["suite", "no-such-suite", "--trials", "1"], 2, None),
        ]
        steps += [(label, [cmd, path], 2, None) for label, (cmd, path) in bad.items()]
        return steps

    def _reference_mu(self, name: str):
        def check(results):
            data = json.loads((self.workdir / name).read_text())
            rho = np.array([[complex(*z) for z in row] for row in data["matrix"]])
            return _close("mu", results["mu"], reference_mu(rho, *data["dims"]))

        return check

    def _ment(self, eps: float):
        def check(results):
            upper = results["upper_bound"]
            self.cert_uppers.setdefault(eps, upper)
            if eps >= 2.0 / 3.0:
                return [] if abs(upper) <= 1e-9 else [f"upper {upper!r} is not 0"]
            lower = max(0.0, 1.0 - 1.5 * eps)
            problems = _close("lower_bound", results["lower_bound"], lower)
            if not lower - 1e-8 <= upper <= 1.0 - eps + 1e-9:
                problems.append(f"upper {upper!r} outside [{lower!r}, {1.0 - eps!r}]")
            return problems

        return check

    def prepare(self, pass_index: int) -> list:
        return [(pass_index, i) for i in range(len(self.steps))]

    def slot(self, request) -> int:
        return request[1]

    def execute(self, request):
        argv = self.steps[request[1]][1]
        return self._run_in_process(argv) if self.in_process else self._run_child(argv)

    def _run_child(self, argv):
        out_path = self.workdir / "stdout.txt"
        err_path = self.workdir / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "maxcorr.cli", *argv],
                cwd=ROOT, env=child_env(), stdout=out, stderr=err, stdin=subprocess.DEVNULL,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_peak_kb = max(self.child_peak_kb, usage.ru_maxrss)
        return proc.returncode, out_path.read_text(), err_path.read_text()

    def _run_in_process(self, argv):
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.span(f"cli.main.{argv[0]}") if self.tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # the interpreter would print this and exit 1
                traceback.print_exc()
                code = 1
        return code, out.getvalue(), err.getvalue()

    def check(self, request, output) -> list:
        pass_index, i = request
        label, argv, expect_code, value_check = self.steps[i]
        code, stdout, stderr = output
        problems = []
        if code != expect_code:
            tail = stderr.strip().splitlines()[-1:] or ["no stderr"]
            problems.append(f"exit {code}, expected {expect_code} ({tail[0]})")
        if expect_code == 2 and "Traceback" in stderr:
            problems.append("traceback on a malformed input")
        if expect_code == 0 and code == 0:
            try:
                report = json.loads(stdout)
            except json.JSONDecodeError as exc:
                return [f"{label}: report is not JSON ({exc})"]
            if report.get("command") != argv[0]:
                problems.append(f"report names command {report.get('command')!r}")
            report.pop("timing", None)
            canonical = json.dumps(report, sort_keys=True)
            first = self.first_report.setdefault(label, canonical)
            if canonical != first:
                problems.append("report differs from the first pass beyond timing")
            if value_check is not None:
                problems += value_check(report["results"])
        return [f"{label}: {p}" for p in problems]

    def known_defect(self, request) -> bool:
        return self.steps[request[1]][0] in KNOWN_DEFECTS

    def summary(self) -> dict:
        uppers = list(self.cert_uppers.values())
        return {
            "cert_upper_mean": float(np.mean(uppers)) if uppers else float("nan"),
            "child_peak_kb": self.child_peak_kb,
            "known_defects": KNOWN_DEFECTS,
        }


def _close(key: str, got: float, want: float, tol: float = 1e-9) -> list:
    return [] if abs(got - want) <= tol else [f"{key} {got!r}, expected {want!r}"]


def _expect(key: str, want: float):
    return lambda results: _close(key, results[key], want)


def _oracle_agrees(results) -> list:
    problems = [] if results["oracle"]["agrees"] else [f"oracle disagrees: {results['oracle']}"]
    if abs(results["witness"]["objective"] - results["mu"]) > 1e-7:
        problems.append(f"witness reaches {results['witness']['objective']!r}, mu {results['mu']!r}")
    return problems


def _no_violations(results) -> list:
    return [] if results["violations"] == 0 else [f"{results['violations']} violations"]
