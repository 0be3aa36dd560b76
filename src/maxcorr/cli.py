"""Command line front end.

Every subcommand prints one JSON report to stdout. Subcommands only compute:
each returns its inputs, seed, results, warnings and whether a property was
violated, and main alone times the run, builds the report, encodes it and
sets the exit code. Reports are deterministic for identical (input, flags,
seed) triples once the "timing" block is stripped; nothing else in the
report depends on the clock or the machine.

Exit codes: 0 success, 1 property violation (a mathematical invariant failed
on the given input), 2 input error (unreadable, unparsable, or invalid data).
The MAXCORR_TOL environment variable overrides the oracle agreement
tolerance; reports record the override under tolerances.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from collections.abc import Iterator
from dataclasses import asdict

import numpy as np

from .correlation import mu_classical, mu_schmidt, mu_variational
from .defaults import (
    AGREEMENT_TOL,
    COMPONENTS,
    HERMITICITY_TOL,
    PSD_TOL,
    RANK_TOL,
    RECONSTRUCTION_TOL,
    RESTARTS,
    SEARCH_ITERS,
    TRACE_TOL,
    TRIALS,
)
from .entanglement import (
    _isotropic_noise,
    _twirl_noise,
    bell_fidelity,
    bracket,
    lambda_bounds,
    mu_ent_upper,
    ppt_check,
    random_povm_decomposition,
    twirl_clifford_average,
    twirl_exact,
    Decomposition,
)
from .errors import (
    MaxcorrError,
    ParseError,
    RangeError,
    UnknownSuiteError,
    ValidationError,
)
from .states import (
    BipartiteState,
    ClassicalJoint,
    apply_local,
    classical_bsc,
    isotropic,
    random_channel,
    random_density,
    random_product,
    random_pure,
    tensor_bipartite,
    validate,
)

MAX_DIM = 4


# ---------------------------------------------------------------------------
# file formats


def _json_default(obj):
    """Encoder hook of _to_json: numpy arrays and scalars become lists and Python numbers,
    and complex values (Python or numpy, scalar or array) become [re, im] pairs."""
    if isinstance(obj, complex) or (isinstance(obj, np.ndarray) and np.iscomplexobj(obj)):
        return np.stack([np.real(obj), np.imag(obj)], axis=-1).tolist()
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _to_json(obj) -> str:
    """The one JSON encoding of reports and state files: indent 2, sorted keys."""
    return json.dumps(obj, indent=2, sort_keys=True, default=_json_default)


def state_payload(state: BipartiteState) -> dict:
    return {"dims": [state.d_a, state.d_b], "matrix": state.rho}


def write_state_file(path: str, state: BipartiteState) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_to_json(state_payload(state)) + "\n")


def read_state_file(path: str) -> BipartiteState:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, a huge integer, or nesting too deep
        raise ParseError(f"{path}: not valid UTF-8 JSON ({exc})") from exc
    if not isinstance(data, dict) or "dims" not in data or "matrix" not in data:
        raise ParseError(f"{path}: expected an object with 'dims' and 'matrix'")
    dims = data["dims"]
    if (
        not isinstance(dims, list)
        or len(dims) != 2
        or not all(type(d) is int and 1 <= d <= MAX_DIM for d in dims)  # rejects bool too
    ):
        raise ParseError(f"{path}: 'dims' must be two integers in [1, {MAX_DIM}]")
    n = dims[0] * dims[1]
    matrix = data["matrix"]
    if not isinstance(matrix, list) or len(matrix) != n:
        raise ParseError(f"{path}: 'matrix' must have {n} rows")
    rho = np.zeros((n, n), dtype=np.complex128)
    for i, row in enumerate(matrix):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"{path}: row {i} must have {n} entries")
        for j, cell in enumerate(row):
            if (
                not isinstance(cell, list)
                or len(cell) != 2
                or not all(type(v) in (int, float) for v in cell)
            ):
                raise ParseError(f"{path}: entry ({i}, {j}) must be a [re, im] pair")
            try:
                rho[i, j] = complex(cell[0], cell[1])
            except OverflowError as exc:
                raise ParseError(f"{path}: entry ({i}, {j}) is out of float range") from exc
    try:
        state = BipartiteState(dims[0], dims[1], rho)
    except MaxcorrError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    diag = validate(state)
    if not diag.ok:
        raise ValidationError(f"{path}: " + "; ".join(diag.failures))
    return state


def write_joint_csv(path: str, joint: ClassicalJoint) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in joint.probs:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")


def read_joint_csv(path: str) -> ClassicalJoint:
    with open(path, "rb") as fh:
        if not any(line.split(b"#", 1)[0].strip() for line in fh):  # loadtxt would warn and return a (0, 1) table
            raise ParseError(f"{path}: empty table")
    try:
        table = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    except ValueError as exc:
        raise ParseError(f"{path}: not a rectangular CSV of numbers ({exc})") from exc
    try:
        return ClassicalJoint(table)
    except MaxcorrError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _file_inputs(path: str) -> dict:
    with open(path, "rb") as fh:
        return {"path": path, "digest": "sha256:" + hashlib.sha256(fh.read()).hexdigest()}


# ---------------------------------------------------------------------------
# report plumbing


def _agreement_tol() -> tuple:
    raw = os.environ.get("MAXCORR_TOL")
    if raw is None:
        return AGREEMENT_TOL, "default"
    try:
        val = float(raw)
    except ValueError as exc:
        raise ParseError(f"MAXCORR_TOL={raw!r} is not a number") from exc
    if not 0.0 < val < 1.0:
        raise RangeError(f"MAXCORR_TOL must lie in (0, 1), got {val!r}")
    return val, "env:MAXCORR_TOL"


def _tolerances() -> dict:
    tol, source = _agreement_tol()
    return {
        "agreement_tol": tol,
        "agreement_tol_source": source,
        "hermiticity_tol": HERMITICITY_TOL,
        "psd_tol": PSD_TOL,
        "rank_tol": RANK_TOL,
        "reconstruction_tol": RECONSTRUCTION_TOL,
        "trace_tol": TRACE_TOL,
    }


# ---------------------------------------------------------------------------
# subcommands: each returns (inputs, seed, results, warnings, violation)


def cmd_mu(args) -> tuple:
    state = read_state_file(args.state)
    report = mu_schmidt(state, witness=args.witness)
    warnings = list(report.warnings)
    results = {
        "mu": report.mu,
        "schmidt": report.schmidt,
        "lambda1_deviation": report.lambda1_deviation,
        "marginal_ranks": report.marginal_ranks,
    }
    if report.witness is not None:
        results["witness"] = asdict(report.witness)
    violation = bool(report.warnings)
    if args.oracle:
        tol, _ = _agreement_tol()
        oracle = mu_variational(state, restarts=args.restarts, seed=args.seed)
        low, high = report.mu - max(tol, 1e-4), report.mu + tol
        agrees = low <= oracle.value <= high
        results["oracle"] = {
            "value": oracle.value,
            "gap": oracle.value - report.mu,
            "converged": oracle.converged,
            "agrees": agrees,
        }
        if not oracle.converged:
            warnings.append("oracle did not converge; its value is still a feasible lower estimate")
        if not agrees:
            warnings.append(
                f"oracle value {oracle.value!r} outside [{low!r}, {high!r}]"
            )
            violation = True
    return _file_inputs(args.state), args.seed if args.oracle else None, results, warnings, violation


def cmd_mu_classical(args) -> tuple:
    joint = read_joint_csv(args.table)
    report = mu_classical(joint)
    results = {
        "mu": report.mu,
        "singular_values": report.schmidt,
        "lambda1_deviation": report.lambda1_deviation,
        "support_shape": report.marginal_ranks,
    }
    return _file_inputs(args.table), None, results, report.warnings, bool(report.warnings)


def cmd_ment(args) -> tuple:
    # By Caratheodory a decomposition prunes to at most n^2 <= MAX_DIM**4 of its own
    # components (unit-trace hermitian n x n matrices span n^2 - 1 real dimensions)
    # without raising its worst mu, so a larger k only costs memory.
    if not 1 <= args.k <= MAX_DIM**4:
        raise RangeError(f"k must lie in [1, {MAX_DIM**4}], got {args.k!r}")
    state = read_state_file(args.state)
    b = bracket(state, k=args.k, restarts=args.restarts, iters=args.iters, seed=args.seed)
    results = {
        "mu": mu_schmidt(state).mu,
        "lower_bound": b.lower,
        "upper_bound": b.upper,
        "decomposition": {
            "size": len(b.decomposition.components),
            "weights": b.decomposition.weights,
            "component_mu": b.component_mu,
            "residual": b.decomposition.residual(),
        },
    }
    if (state.d_a, state.d_b) == (2, 2):
        results["bell_fidelity"] = bell_fidelity(state)
        results["ppt"] = asdict(ppt_check(state))
        delta = _isotropic_noise(state)
        if delta is not None:
            results["isotropic"] = asdict(lambda_bounds(delta)) if delta <= 1.0 else {"epsilon": delta}
    warnings = []
    if b.upper < b.lower - 1e-8:
        warnings.append(f"certified bounds crossed: upper {b.upper!r} below lower {b.lower!r}")
    return _file_inputs(args.state), args.seed, results, warnings, bool(warnings)


def cmd_iso_bounds(args) -> tuple:
    return {"epsilon": args.epsilon}, None, asdict(lambda_bounds(args.epsilon)), [], False


def cmd_twirl(args) -> tuple:
    state = read_state_file(args.state)
    tw = twirl_exact(state)
    cliff = twirl_clifford_average(state)
    gap = np.max(np.abs(tw.rho - cliff.rho))
    delta = _twirl_noise(state)
    warnings = []
    violation = False
    if gap > 1e-10:
        warnings.append(f"closed form and Clifford average disagree by {gap:.3e}")
        violation = True
    results = {
        "epsilon": delta,
        "bell_fidelity_in": bell_fidelity(state),
        "bell_fidelity_out": bell_fidelity(tw),
        "clifford_average_gap": gap,
        "state": state_payload(tw),
    }
    return _file_inputs(args.state), None, results, warnings, violation


def cmd_ppt(args) -> tuple:
    state = read_state_file(args.state)
    return _file_inputs(args.state), None, asdict(ppt_check(state)), [], False


def cmd_gen(args) -> tuple:
    if args.kind == "random":
        _check_dims(args.da, args.db)
        state = random_density(args.da, args.db, rank=args.rank, seed=args.seed)
        write_state_file(args.output, state)
        inputs = {"kind": "random", "d_a": args.da, "d_b": args.db, "rank": args.rank}
        return inputs, args.seed, _file_inputs(args.output), [], False
    if args.kind == "isotropic":
        write_state_file(args.output, isotropic(args.epsilon))
    else:
        write_joint_csv(args.output, classical_bsc(args.epsilon))
    return {"kind": args.kind, "epsilon": args.epsilon}, None, _file_inputs(args.output), [], False


# ---------------------------------------------------------------------------
# property suites


def _check_dims(d_a: int, d_b: int) -> None:
    if not (1 <= d_a <= MAX_DIM and 1 <= d_b <= MAX_DIM):
        raise RangeError(f"dimensions must lie in [1, {MAX_DIM}], got {d_a}x{d_b}")


def _parse_dims(text: str) -> tuple:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ParseError(f"dims must look like '2x2', got {text!r}")
    try:
        d_a, d_b = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ParseError(f"dims must look like '2x2', got {text!r}") from exc
    _check_dims(d_a, d_b)
    return d_a, d_b


def _trial_seeds(seed: int, count: int) -> Iterator[int]:
    rng = np.random.default_rng(seed)
    return (int(rng.integers(0, 2**63 - 1)) for _ in range(count))


def _trial_suite(per_trial, key: str):
    """A suite calling per_trial(t, s, d_a, d_b) on each seeded trial, which returns a
    margin (key "worst_margin": min reported, violated below 0) or a gap
    (key "worst_gap": max reported, violated above 1e-7), keeping only the running worst and count."""

    def run(trials: int, seed: int, dims: tuple) -> tuple:
        pick, violated = (min, lambda v: v < 0.0) if key == "worst_margin" else (max, lambda v: v > 1e-7)
        worst, violations = None, 0
        for t, s in enumerate(_trial_seeds(seed, trials)):
            v = per_trial(t, s, *dims)
            worst, violations = v if worst is None else pick(worst, v), violations + violated(v)
        return {"trials": trials, key: worst}, violations

    return run


def _dpi_margin(t: int, s: int, d_a: int, d_b: int) -> float:
    n = d_a * d_b
    state = random_density(d_a, d_b, rank=(t % n) + 1, seed=s)
    side = "A" if t % 2 == 0 else "B"
    d_in = d_a if side == "A" else d_b
    d_out = 2 + (t % 2)
    ch = random_channel(d_in, d_out, kraus_rank=(t % 3) + 1 + (d_in - 1) // d_out, seed=s + 1, side=side)
    before = mu_schmidt(state).mu
    after = mu_schmidt(apply_local(state, ch)).mu
    return before + 1e-7 - after


def _tensor_gap(t: int, s: int, d_a: int, d_b: int) -> float:
    n = d_a * d_b
    r = random_density(d_a, d_b, rank=(t % n) + 1, seed=s)
    q = random_density(d_a, d_b, rank=((t + 1) % n) + 1, seed=s + 1)
    return abs(
        mu_schmidt(tensor_bipartite(r, q)).mu
        - max(mu_schmidt(r).mu, mu_schmidt(q).mu)
    )


def _suite_extremes(trials: int, seed: int, dims: tuple) -> tuple:
    d_a, d_b = dims
    seeds = _trial_seeds(seed, trials)
    violations = 0
    worst_product = 0.0
    worst_pure = 1.0
    pure_mu = 1.0 if min(d_a, d_b) > 1 else 0.0
    for t, s in enumerate(seeds):
        if t % 2 == 0:
            mu = mu_schmidt(random_product(d_a, d_b, seed=s)).mu
            worst_product = max(worst_product, mu)
            if mu > 1e-8:
                violations += 1
        else:
            # A pure state is maximally correlated unless a side of dimension 1 makes it a product.
            mu = mu_schmidt(random_pure(d_a, d_b, seed=s)).mu
            worst_pure = min(worst_pure, mu)
            if abs(mu - pure_mu) > 1e-8:
                violations += 1
    return (
        {
            "trials": trials,
            "worst_product_mu": worst_product,
            "worst_pure_mu": worst_pure,
        },
        violations,
    )


def _suite_semicontinuity(trials: int, seed: int, dims: tuple) -> tuple:
    violations = 0
    values = {}
    for n in (2, 10, 100, 10**4):
        p = np.array([[1.0 - 1.0 / n, 0.0], [0.0, 1.0 / n]])
        mu = mu_classical(ClassicalJoint(p)).mu
        values[str(n)] = mu
        if abs(mu - 1.0) > 1e-9:
            violations += 1
    limit = mu_classical(ClassicalJoint(np.array([[1.0, 0.0], [0.0, 0.0]]))).mu
    if abs(limit) > 1e-9:
        violations += 1
    return {"mu_along_sequence": values, "mu_at_limit": limit}, violations


def _ment_dpi_margin(t: int, s: int, d_a: int, d_b: int) -> float:
    n = d_a * d_b
    state = random_density(d_a, d_b, rank=(t % n) + 1, seed=s)
    dec = random_povm_decomposition(state, k=4, seed=s + 2)
    side = "A" if t % 2 == 0 else "B"
    d_in = d_a if side == "A" else d_b
    ch = random_channel(d_in, 2, kraus_rank=2, seed=s + 1, side=side)
    pushed = Decomposition(
        target=apply_local(state, ch),
        weights=dec.weights,
        components=tuple(apply_local(c, ch) for c in dec.components),
    )
    return mu_ent_upper(dec) + 1e-7 - mu_ent_upper(pushed)


def _ment_tensor_gap(t: int, s: int, d_a: int, d_b: int) -> float:
    n = d_a * d_b
    r = random_density(d_a, d_b, rank=(t % n) + 1, seed=s)
    q = random_density(d_a, d_b, rank=((t + 2) % n) + 1, seed=s + 1)
    dr = random_povm_decomposition(r, k=3, seed=s + 2)
    dq = random_povm_decomposition(q, k=3, seed=s + 3)
    prod = Decomposition(
        target=tensor_bipartite(r, q),
        weights=np.outer(dr.weights, dq.weights).reshape(-1),
        components=tuple(
            tensor_bipartite(cr, cq) for cr in dr.components for cq in dq.components
        ),
    )
    return abs(mu_ent_upper(prod) - max(mu_ent_upper(dr), mu_ent_upper(dq)))


SUITES = {
    "dpi": _trial_suite(_dpi_margin, "worst_margin"),
    "tensor": _trial_suite(_tensor_gap, "worst_gap"),
    "extremes": _suite_extremes,
    "semicontinuity": _suite_semicontinuity,
    "ment-dpi": _trial_suite(_ment_dpi_margin, "worst_margin"),
    "ment-tensor": _trial_suite(_ment_tensor_gap, "worst_gap"),
}


def cmd_suite(args) -> tuple:
    if args.name not in SUITES:
        raise UnknownSuiteError(
            f"unknown suite {args.name!r}; available: {', '.join(SUITES)}"
        )
    dims = _parse_dims(args.dims)
    if args.trials < 1:
        raise RangeError(f"trials must be positive, got {args.trials!r}")
    results, violations = SUITES[args.name](args.trials, args.seed, dims)
    results["violations"] = violations
    warnings = []
    if violations:
        warnings.append(f"{violations} trial(s) violated the property")
    inputs = {"name": args.name, "dims": dims, "trials": args.trials}
    return inputs, args.seed, results, warnings, bool(violations)


# ---------------------------------------------------------------------------
# parser


def _seed(text: str) -> int:
    """A --seed value: numpy's generators take non-negative integers only."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxcorr",
        description=(
            "Maximal correlation of bipartite quantum states and classical joint "
            "distributions, with certified bounds on maximal entanglement."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mu", help="maximal correlation of a bipartite state")
    p.add_argument("state", help="state file (JSON)")
    p.add_argument("--witness", action="store_true", help="include the maximizing observable pair")
    p.add_argument("--oracle", action="store_true", help="cross-check with the variational oracle")
    p.add_argument("--restarts", type=int, default=RESTARTS, help="oracle restarts")
    p.add_argument("--seed", type=_seed, default=0, help="oracle seed")
    p.set_defaults(func=cmd_mu)

    p = sub.add_parser("mu-classical", help="maximal correlation of a joint table")
    p.add_argument("table", help="joint probability table (CSV)")
    p.set_defaults(func=cmd_mu_classical)

    p = sub.add_parser("ment", help="certified maximal-entanglement bounds")
    p.add_argument("state", help="state file (JSON)")
    p.add_argument("--k", type=int, default=COMPONENTS, help="components in the search")
    p.add_argument("--restarts", type=int, default=RESTARTS, help="search restarts")
    p.add_argument("--iters", type=int, default=SEARCH_ITERS, help="proposals evaluated per search restart, two per step")
    p.add_argument("--seed", type=_seed, default=0, help="search seed")
    p.set_defaults(func=cmd_ment)

    p = sub.add_parser("iso-bounds", help="certified bracket for the noisy Bell family")
    p.add_argument("--epsilon", type=float, required=True, help="noise parameter in [0, 1]")
    p.set_defaults(func=cmd_iso_bounds)

    p = sub.add_parser("twirl", help="closed-form twirl of a two-qubit state")
    p.add_argument("state", help="state file (JSON)")
    p.set_defaults(func=cmd_twirl)

    p = sub.add_parser("ppt", help="partial transpose eigenvalue check")
    p.add_argument("state", help="state file (JSON)")
    p.set_defaults(func=cmd_ppt)

    p = sub.add_parser("gen", help="write example inputs")
    gen_sub = p.add_subparsers(dest="kind", required=True)

    g = gen_sub.add_parser("isotropic", help="noisy Bell state file")
    g.add_argument("epsilon", type=float, help="noise parameter in [0, 1]")
    g.add_argument("-o", "--output", required=True, help="output path (JSON)")
    g.set_defaults(func=cmd_gen)

    g = gen_sub.add_parser("bsc", help="binary symmetric channel joint table")
    g.add_argument("epsilon", type=float, help="flip probability in [0, 1]")
    g.add_argument("-o", "--output", required=True, help="output path (CSV)")
    g.set_defaults(func=cmd_gen)

    g = gen_sub.add_parser("random", help="seeded random state file")
    g.add_argument("--da", type=int, default=2, help="dimension of side A")
    g.add_argument("--db", type=int, default=2, help="dimension of side B")
    g.add_argument("--rank", type=int, default=None, help="rank (default full)")
    g.add_argument("--seed", type=_seed, default=0, help="seed")
    g.add_argument("-o", "--output", required=True, help="output path (JSON)")
    g.set_defaults(func=cmd_gen)

    p = sub.add_parser("suite", help="run a randomized property suite")
    p.add_argument("name", help="one of: " + ", ".join(SUITES))
    p.add_argument("--trials", type=int, default=TRIALS, help="trial count")
    p.add_argument("--seed", type=_seed, default=0, help="base seed")
    p.add_argument("--dims", default="2x2", help="dimensions, e.g. 2x3")
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        inputs, seed, results, warnings, violation = args.func(args)
        text = _to_json(
            {
                "command": args.command,
                "inputs": inputs,
                "seed": seed,
                "tolerances": _tolerances(),
                "results": results,
                "warnings": warnings,
                "timing": {"wall_time_s": time.monotonic() - started},
            }
        )
    except (OSError, MaxcorrError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text)
    return 1 if violation else 0


if __name__ == "__main__":
    sys.exit(main())
