"""maxcorr benchmark: certificate search, spectral mu stream, CLI session.

Run from the repository root:

    python3 perfbench/run.py --workload search|spectral|cli|all --seed N --seconds S --trace 0|1

Each workload runs in one process as one closed-loop client (the next
operation starts when the previous one ends), with BLAS pinned to one thread.
With --trace 0 the run repeats a fixed pass of operation slots for --seconds
seconds of operation time and reports the end-to-end metrics over each
slot's best latency; with --trace 1 it runs a fixed amount of work once
untraced and once traced and reports the per-layer metrics. Every output is checked; the last line of stdout is one JSON object
{correct, attempted, failed, metrics}, and the exit code is 1 when a
correctness gate failed. Results, the environment and (traced) the spans go
to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import subprocess
import sys
import time

from common import (
    OUT,
    ROOT,
    MissingPackage,
    child_env,
    environment,
    load_package,
    median,
    percentile,
    write_json,
)
from tracing import LAYERS, Tracer

WORKLOADS = ("search", "spectral", "cli")

TAIL_PERCENTILE = {"search": 50.0, "spectral": 96.0, "cli": 65.0}
"""Taken over the best latencies of a pass's slots: the highest whole
percentile with at least ten slots beyond it (282 slots on spectral, 29 on
cli). The 16 search slots have no such tail, so search reports p50 there."""

TRACE_PASSES = {"search": 1, "spectral": 4, "cli": 3}
"""A traced run's fixed work, run once untraced and once traced, so its call
counts repeat exactly for a seed."""
SETUP_SAMPLES = 7
WALL_LIMIT_S = 150.0

SETUP_CODE = (
    "import time; t = time.perf_counter(); import maxcorr; "
    "maxcorr.mu_schmidt(maxcorr.isotropic(0.25)); print(time.perf_counter() - t)"
)
IMPORT_CLI_CODE = "import time; t = time.perf_counter(); import maxcorr.cli; print(time.perf_counter() - t)"

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_ratio": "ratio",
    "cert_upper_mean": "mu",
    "peak_rss_mb": "MB",
}

TIMED_FUNCTIONS = (
    "numpy.linalg.eigh",
    "numpy.linalg.svd",
    "numpy.kron",
    "entanglement.evaluate",
    "entanglement.decomposition_search",
    "entanglement.mu_ent_upper",
    "linalg.psd_pinv_sqrt",
    "linalg.hermitian_eig",
    "linalg.partial_trace",
    "linalg.realign",
    "linalg.singular_values",
    "correlation.mu_schmidt",
    "correlation.normalized_operator",
    "correlation.extract_witness",
    "correlation.mu_variational",
    "correlation.mu_classical",
    "states.validate",
    "cli.read_state_file",
)
CLI_COMMANDS = ("gen", "mu", "mu-classical", "ppt", "twirl", "iso-bounds", "ment", "suite")


def per_layer_units() -> dict:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for name in TIMED_FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
    units["states.BipartiteState.marginal.calls"] = "count"
    units["entanglement.evals_per_cert"] = "count"
    units["entanglement.search_win_ratio"] = "ratio"
    units["cli.import_s"] = "s"
    for cmd in CLI_COMMANDS:
        units[f"cli.main.{cmd}.s"] = "s"
    for layer in LAYERS:
        units[f"self_s.{layer}"] = "s"
    units["trace_overhead_ratio"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# running operations


class Tally:
    def __init__(self):
        self.latencies = []
        self.best = {}
        self.failed = 0
        self.unexpected = 0
        self.failures = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def add(self, seconds: float, problems: list, known: bool, slot) -> None:
        self.latencies.append(seconds)
        self.best[slot] = min(seconds, self.best.get(slot, seconds))
        if problems:
            self.failed += 1
            self.unexpected += 0 if known else 1
            if len(self.failures) < 50:
                self.failures.append({"known_defect": known, "problems": problems})


def run_op(wl, request, tally: Tally, tracer=None) -> float:
    """Run and check one operation; return the seconds spent inside it."""
    span = tracer.op_span(wl.op_name, tally.attempted, request) if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with span:
            output = wl.execute(request)
        error = None
    except Exception as exc:  # an operation that raises is a failed operation
        output, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if error is None:
        try:
            problems = wl.check(request, output)
        except Exception as exc:  # output too malformed to check
            problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    else:
        problems = [error]
    known = getattr(wl, "known_defect", lambda request: False)(request)
    tally.add(elapsed, problems, known, wl.slot(request))
    return elapsed


def run_pass(wl, pass_index: int, tally: Tally, tracer=None, deadline: float = float("inf")) -> float:
    """Run one pass of operations; return the seconds spent inside them."""
    busy = 0.0
    for request in wl.prepare(pass_index):
        if time.monotonic() > deadline:
            break
        busy += run_op(wl, request, tally, tracer)
    return busy


def child_seconds(code: str, samples: int) -> list:
    """Seconds each fresh interpreter reports for `code`, after one warm-up."""
    out = []
    for i in range(samples + 1):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=child_env(), capture_output=True, text=True, check=True
        )
        if i:
            out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def make_workload(mc, args):
    if args.workload == "search":
        from search import SearchWorkload

        return SearchWorkload(mc, args.seed, args.search_k, args.search_iters, args.search_restarts)
    if args.workload == "spectral":
        from spectral import SpectralWorkload

        return SpectralWorkload(mc, args.seed)
    from session import CliWorkload

    return CliWorkload(mc, args.seed)


def measure(wl, args) -> tuple:
    """Run whole passes for --seconds of operation time and report the metrics.

    Every pass runs the same slots (the same kind and size of operation, on
    fresh inputs for spectral), so each slot is timed once a pass and keeps
    its best latency. The timing metrics are taken over those best latencies:
    a shared host runs fixed work up to half again as slow for seconds or
    minutes at a time, and the best of several passes spread over the run
    measures the program rather than its neighbours.
    """
    q = TAIL_PERCENTILE[wl.name]
    tally = Tally()
    busy = 0.0
    passes = 0
    deadline = time.monotonic() + WALL_LIMIT_S
    while busy < args.seconds or passes < wl.min_passes:
        busy += run_pass(wl, passes, tally, deadline=deadline)
        passes += 1
        if time.monotonic() > deadline:
            break
    summary = wl.summary()
    if wl.name == "cli":
        peak_kb = summary["child_peak_kb"]
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    best = list(tally.best.values())
    metrics = {
        "ops_per_s": len(best) / sum(best),
        "op_p50_ms": median(best) * 1e3,
        "op_tail_ms": percentile(best, q) * 1e3,
        "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
        "cert_upper_mean": summary["cert_upper_mean"],
        "peak_rss_mb": peak_kb / 1024.0,
    }
    details = {"passes": passes, "busy_s": busy, "slots": len(best), "tail": {"percentile": q, "n": len(best)},
               "all_ops": {"ops_per_s": tally.attempted / busy, "op_p50_ms": median(tally.latencies) * 1e3},
               "best_ms": {str(slot): seconds * 1e3 for slot, seconds in sorted(tally.best.items())}}
    return tally, metrics, summary, details


def measure_traced(wl, mc, args) -> tuple:
    if wl.name == "cli":
        wl.in_process = True
    passes = range(TRACE_PASSES[wl.name])
    tally = Tally()
    run_op(wl, wl.prepare(0)[0], tally)  # warm-up, so neither side pays first-call costs
    tracer = Tracer()
    plain_busy = traced_busy = 0.0
    for p in passes:
        plain_busy += run_pass(wl, p, tally)
        tracer.install(mc)
        wl.tracer = tracer
        try:
            traced_busy += run_pass(wl, p, tally, tracer)
        finally:
            tracer.uninstall()
            wl.tracer = None

    busy = tracer.busy_s()
    metrics = {}
    for name in TIMED_FUNCTIONS:
        metrics[f"{name}.calls"] = tracer.calls[name]
        metrics[f"{name}.s"] = busy[name]
    metrics["states.BipartiteState.marginal.calls"] = tracer.calls["states.BipartiteState.marginal"]
    searches = tracer.calls["entanglement.decomposition_search"]
    metrics["entanglement.evals_per_cert"] = tracer.calls["entanglement.evaluate"] / searches if searches else 0.0
    metrics["entanglement.search_win_ratio"] = wl.search_win_ratio(tracer) if hasattr(wl, "search_win_ratio") else 0.0
    metrics["cli.import_s"] = median(child_seconds(IMPORT_CLI_CODE, SETUP_SAMPLES))
    for cmd in CLI_COMMANDS:
        metrics[f"cli.main.{cmd}.s"] = busy[f"cli.main.{cmd}"]
    for layer, seconds in tracer.self_s().items():
        metrics[f"self_s.{layer}"] = seconds
    metrics["trace_overhead_ratio"] = traced_busy / plain_busy
    spans_path = OUT / f"trace-{wl.name}-seed{args.seed}.json.gz"
    tracer.write(spans_path)
    details = {"passes": len(passes), "untraced_s": plain_busy, "traced_s": traced_busy, "spans": str(spans_path)}
    return tally, metrics, wl.summary(), details


# ---------------------------------------------------------------------------
# entry points


def run_one(args) -> int:
    try:
        mc = load_package()
    except MissingPackage as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    wl = make_workload(mc, args)
    if args.trace:
        tally, metrics, summary, details = measure_traced(wl, mc, args)
        units = per_layer_units()
    else:
        setup = child_seconds(SETUP_CODE, SETUP_SAMPLES)
        tally, metrics, summary, details = measure(wl, args)
        metrics["setup_s"] = median(setup)
        details["setup_samples_s"] = setup
        units = END_TO_END
    correct = tally.unexpected == 0
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    env = environment(args.seed)
    record = dict(result, workload=wl.name, trace=args.trace, seconds=args.seconds, env=env,
                  details=details, summary=summary, failures=tally.failures)
    write_json(OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json", record)

    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace} attempted={tally.attempted} "
          f"failed={tally.failed} fail_ratio={tally.failed / tally.attempted:.6g} correct={correct}")
    for name, unit in units.items():
        extra = ""
        if name == "op_tail_ms":
            extra = f"  (p{details['tail']['percentile']:g} of n={details['tail']['n']})"
        print(f"  {name:40s} {metrics[name]:.6g} {unit}{extra}")
    for row in summary.get("panel", []):
        print(f"  panel {row['state']:22s} mu={row['mu']:.6f} lower={row['lower']:.6f} upper={row['upper']:.6f}")
    for failure in tally.failures[:10]:
        print(f"  {'known defect' if failure['known_defect'] else 'FAILED'}: {'; '.join(failure['problems'])}")
    print("  env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


def run_all(args) -> int:
    """Run every workload, each in its own process, and print one table."""
    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--search-k", str(args.search_k), "--search-iters", str(args.search_iters),
               "--search-restarts", str(args.search_restarts)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
        if not lines:
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined, sort_keys=True))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="operation time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--search-k", type=int, default=8, help="components per decomposition")
    parser.add_argument("--search-iters", type=int, default=400, help="iterations per search restart")
    parser.add_argument("--search-restarts", type=int, default=1, help="search restarts per certificate")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
