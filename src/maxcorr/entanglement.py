"""Certified bounds on maximal entanglement.

Maximal entanglement of a bipartite state is the smallest worst-component
maximal correlation over all convex decompositions of the state. Exact values
are out of reach in general, so everything here produces certified bounds:

* any explicit decomposition certifies an upper bound (mu_ent_upper);
* Bell fidelity certifies a lower bound for two qubits
  (fidelity_mu_lower_bound applied inside lambda_bounds);
* for the noisy Bell family the two meet the known bracket
  [max(0, 1 - 3 eps / 2), 1 - eps], collapsing to [0, 0] once the state
  turns separable at eps >= 2/3, where the closed-form product ensemble
  gives an explicit decomposition into at most four pure product states.

decomposition_search is a heuristic: it parametrizes decompositions by POVMs
(so every iterate reconstructs the target identically) and locally minimizes
the worst component correlation, after trying the trivial decomposition and
the closed-form product ensemble, which handles every separable two-qubit
target exactly. Whatever it returns is a valid decomposition, so its bound is
certified even when the search is far from optimal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .defaults import (
    COMPONENTS,
    RANK_TOL,
    RECONSTRUCTION_TOL,
    RESTARTS,
    SEARCH_ITERS,
)
from .errors import (
    DimensionMismatchError,
    InvalidDecompositionError,
    RangeError,
)
from .states import BipartiteState, _bell_vector, _noisy_bell, isotropic, validate

__all__ = [
    "Decomposition",
    "IsotropicBounds",
    "PptReport",
    "QuasiConvexityReport",
    "mu_ent_upper",
    "bell_fidelity",
    "fidelity_mu_lower_bound",
    "single_qubit_cliffords",
    "twirl_exact",
    "twirl_clifford_average",
    "separable_iso_decomposition",
    "lambda_bounds",
    "ppt_check",
    "random_povm_decomposition",
    "decomposition_search",
    "quasi_convexity_check",
]

_WEIGHT_FLOOR = 1e-12


@dataclass(frozen=True)
class Decomposition:
    """Convex mixture of states meant to rebuild a target state."""

    target: BipartiteState
    weights: np.ndarray
    components: tuple

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        comps = tuple(self.components)
        if w.size != len(comps) or w.size == 0:
            raise InvalidDecompositionError(
                f"{w.size} weights for {len(comps)} components"
            )
        if np.min(w) < -1e-12:
            raise InvalidDecompositionError(f"negative weight {np.min(w):.3e}")
        if abs(w.sum() - 1.0) > 1e-10:
            raise InvalidDecompositionError(f"weights sum to {w.sum()!r}")
        for c in comps:
            if (c.d_a, c.d_b) != (self.target.d_a, self.target.d_b):
                raise DimensionMismatchError(
                    "component dimensions differ from the target"
                )
        object.__setattr__(self, "weights", np.clip(w, 0.0, None))
        object.__setattr__(self, "components", comps)

    def residual(self) -> float:
        """Largest entrywise gap between the mixture and its target."""
        acc = np.zeros_like(self.target.rho)
        for w, c in zip(self.weights, self.components):
            acc += w * c.rho
        return float(np.max(np.abs(acc - self.target.rho)))


@dataclass(frozen=True)
class IsotropicBounds:
    """Certified maximal-entanglement bracket for the noisy Bell family."""

    epsilon: float
    lower: float
    upper: float
    separable: bool


@dataclass(frozen=True)
class PptReport:
    """Positive-partial-transpose verdict."""

    min_eigenvalue: float
    is_ppt: bool


@dataclass(frozen=True)
class QuasiConvexityReport:
    """Merged-mixture bound compared against the worst individual bound."""

    individual_bounds: tuple
    merged_bound: float
    ok: bool
    merged: Decomposition


def mu_ent_upper(
    decomposition: Decomposition,
    rank_tol: float = RANK_TOL,
    reconstruction_tol: float = RECONSTRUCTION_TOL,
) -> float:
    """Certified upper bound: worst component maximal correlation.

    Raises InvalidDecompositionError unless the mixture rebuilds its target
    entrywise within reconstruction_tol and every component is a valid state.
    """
    return float(np.max(_component_mus(decomposition, rank_tol, reconstruction_tol)))


def _component_mus(decomposition: Decomposition, rank_tol: float, reconstruction_tol: float) -> np.ndarray:
    """Maximal correlation of every component of a validated decomposition (see mu_ent_upper)."""
    res = decomposition.residual()
    if res > reconstruction_tol:
        raise InvalidDecompositionError(
            f"mixture misses its target by {res:.3e} (tol {reconstruction_tol:.1e})"
        )
    for i, c in enumerate(decomposition.components):
        diag = validate(c)
        if not diag.ok:
            raise InvalidDecompositionError(
                f"component {i} is not a valid state: {'; '.join(diag.failures)}"
            )
    rhos = np.stack([c.rho for c in decomposition.components])
    target = decomposition.target
    return linalg.mu_stack(rhos, target.d_a, target.d_b, rank_tol)


def bell_fidelity(state: BipartiteState) -> float:
    """Overlap of a two-qubit state with the maximally entangled state."""
    if (state.d_a, state.d_b) != (2, 2):
        raise DimensionMismatchError("Bell fidelity needs a two-qubit state")
    v = _bell_vector()
    return float(np.real(v.conj() @ state.rho @ v))


def fidelity_mu_lower_bound(state: BipartiteState) -> float:
    """Certified lower bound max(0, 2F - 1) on the maximal correlation.

    Measuring both sides in the computational basis turns Bell fidelity F
    into a classical joint whose correlation is at least 2F - 1, and the
    measurement never increases maximal correlation. The bound is tight on
    the noisy Bell family.
    """
    return max(0.0, 2.0 * bell_fidelity(state) - 1.0)


def single_qubit_cliffords() -> tuple:
    """The 24 single-qubit Clifford rotations (up to phase), as 2x2 unitaries.

    Generated by breadth-first closure of the Hadamard and phase gates with
    phase-normalized deduplication, so the order is deterministic.
    """
    h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)
    s = np.array([[1.0, 0.0], [0.0, 1.0j]], dtype=np.complex128)

    def key(u: np.ndarray) -> bytes:
        flat = u.reshape(-1)
        first = flat[np.argmax(np.abs(flat) > 0.4)]
        v = np.round(u / (first / abs(first)), 9) + 0.0
        return v.tobytes()

    found = [np.eye(2, dtype=np.complex128)]
    seen = {key(found[0])}
    queue = [found[0]]
    while queue:
        m = queue.pop(0)
        for g in (h, s):
            nm = g @ m
            k = key(nm)
            if k not in seen:
                seen.add(k)
                found.append(nm)
                queue.append(nm)
    assert len(found) == 24
    return tuple(found)


def _twirl_noise(state: BipartiteState) -> float:
    """Noise delta = 4 (1 - F) / 3 of the noisy Bell state the twirl lands on."""
    return 4.0 * (1.0 - bell_fidelity(state)) / 3.0


def _isotropic_noise(state: BipartiteState) -> float | None:
    """Noise delta of the noisy Bell state a two-qubit state equals entrywise within 1e-9, else None."""
    if (state.d_a, state.d_b) != (2, 2):
        return None
    delta = _twirl_noise(state)
    return delta if np.max(np.abs(state.rho - _noisy_bell(delta).rho)) < 1e-9 else None


def twirl_exact(state: BipartiteState) -> BipartiteState:
    """Average of (U (x) U*) rho (U (x) U*)^dag over Haar-random U, in closed form.

    The twirl depends on the input only through its Bell fidelity F and
    lands on the noisy Bell family at noise delta = 4 (1 - F) / 3. States
    with F < 1/4 give delta > 1; the output matrix is assembled directly
    since it remains a valid state for delta up to 4/3.
    """
    return _noisy_bell(_twirl_noise(state))


def twirl_clifford_average(state: BipartiteState) -> BipartiteState:
    """Average of (C (x) C*) rho (C (x) C*)^dag over the 24 Clifford rotations.

    Agrees with twirl_exact to numerical precision because the Clifford
    group averages degree-2 polynomials exactly like the Haar measure.
    """
    if (state.d_a, state.d_b) != (2, 2):
        raise DimensionMismatchError("Clifford twirl needs a two-qubit state")
    acc = np.zeros((4, 4), dtype=np.complex128)
    for c in single_qubit_cliffords():
        u = np.kron(c, c.conj())
        acc += u @ state.rho @ u.conj().T
    return BipartiteState(2, 2, linalg.hermitian_part(acc / 24.0))


def separable_iso_decomposition(epsilon: float) -> Decomposition:
    """Explicit product decomposition of the noisy Bell state at eps >= 2/3.

    This is the closed-form product ensemble of isotropic(eps): at most four
    pure product states, so it certifies an upper bound of zero.
    """
    if not (2.0 / 3.0 - 1e-12 <= epsilon <= 1.0):
        raise RangeError(f"explicit product decomposition needs eps in [2/3, 1], got {epsilon!r}")
    return _product_ensemble_candidate(isotropic(epsilon))


def lambda_bounds(epsilon: float) -> IsotropicBounds:
    """Certified maximal-entanglement bracket for the noisy Bell family.

    Below the separability threshold 2/3 the bracket is
    [max(0, 1 - 3 eps / 2), 1 - eps]: the lower end comes from the Bell
    fidelity bound surviving every decomposition, the upper end from the
    trivial decomposition. At and above 2/3 the explicit product
    decomposition collapses the bracket to [0, 0].
    """
    if not 0.0 <= epsilon <= 1.0:
        raise RangeError(f"epsilon must lie in [0, 1], got {epsilon!r}")
    separable = epsilon >= 2.0 / 3.0
    if separable:
        return IsotropicBounds(epsilon=epsilon, lower=0.0, upper=0.0, separable=True)
    return IsotropicBounds(
        epsilon=epsilon,
        lower=max(0.0, 1.0 - 1.5 * epsilon),
        upper=1.0 - epsilon,
        separable=False,
    )


def ppt_check(state: BipartiteState) -> PptReport:
    """Smallest eigenvalue of the partial transpose and the PPT verdict."""
    pt = linalg.partial_transpose(state.rho, state.d_a, state.d_b, "B")
    w = np.linalg.eigvalsh(linalg.hermitian_part(pt))
    min_eig = float(w[0])
    return PptReport(min_eigenvalue=min_eig, is_ppt=min_eig >= -1e-10)


def _trivial_decomposition(target: BipartiteState) -> Decomposition:
    return Decomposition(target=target, weights=np.array([1.0]), components=(target,))


_SPIN_FLIP = np.kron(
    np.array([[0.0, -1j], [1j, 0.0]]), np.array([[0.0, -1j], [1j, 0.0]])
).real


def _takagi_symmetric(t: np.ndarray, cut_rel: float = 1e-9):
    """Factor a complex symmetric matrix as U diag(lam) U^T.

    Uses the real symmetric embedding [[Re t, Im t], [Im t, -Re t]], whose
    eigenvectors (u; v) at eigenvalue lam > 0 give columns u + iv of a
    unitary U. Eigenvalues below cut_rel (relative) are treated as zero and
    their columns replaced by an orthonormal completion, which leaves the
    factorization exact because zero factors drop out of U diag(lam) U^T.
    Returns (lam descending, U).
    """
    r = t.shape[0]
    w, q = np.linalg.eigh(linalg.hermitian_part(np.block([[t.real, t.imag], [t.imag, -t.real]])))
    cut = cut_rel * max(1.0, float(np.max(np.abs(w))))
    cols = []
    lams = []
    for idx in range(2 * r - 1, -1, -1):
        if w[idx] <= cut:
            break
        cols.append(q[:r, idx] + 1j * q[r:, idx])
        lams.append(float(w[idx]))
    u_pos = np.stack(cols, axis=1) if cols else np.zeros((r, 0), dtype=complex)
    kept = u_pos.shape[1]
    if kept < r:
        basis = np.linalg.svd(u_pos)[0] if kept else np.eye(r, dtype=complex)
        u = np.hstack([u_pos, basis[:, kept:]])
    else:
        u = u_pos
    return np.array(lams + [0.0] * (r - kept)), u


def _product_ensemble_candidate(target: BipartiteState) -> Decomposition | None:
    """Closed-form decomposition of a separable two-qubit state into products.

    A pure two-qubit state is a product exactly when its spin-flip overlap
    vanishes. Starting from the eigenvector ensemble of the target, a unitary
    recombination diagonalizes the symmetric matrix of mutual spin-flip
    overlaps; when the leading diagonal value is at most the sum of the rest,
    phases closing that polygon followed by a balanced orthogonal mix drive
    every overlap to zero, giving an ensemble of (numerically exact) product
    vectors. Returns None when the polygon cannot close, which is precisely
    the entangled case, or when the assembled mixture fails to rebuild the
    target tightly.
    """
    if (target.d_a, target.d_b) != (2, 2):
        return None
    w, v = np.linalg.eigh(linalg.hermitian_part(target.rho))
    ensemble = v * np.sqrt(np.clip(w, 0.0, None))
    overlap = ensemble.T @ _SPIN_FLIP @ ensemble
    overlap = (overlap + overlap.T) / 2.0
    lam, u = _takagi_symmetric(overlap)
    if np.max(np.abs(overlap - u @ np.diag(lam) @ u.T)) > 1e-10:
        return None
    if lam[0] > lam[1] + lam[2] + lam[3] + 1e-8:
        return None
    recombined = ensemble @ u.conj()
    side_1, side_2, side_3 = lam[0], lam[1], lam[2] + lam[3]
    if side_1 <= 0.0:
        theta = np.zeros(4)
    else:
        if side_2 <= 0.0:
            return None
        cos_beta = (side_1 * side_1 + side_2 * side_2 - side_3 * side_3) / (
            2.0 * side_1 * side_2
        )
        phi_2 = np.pi - np.arccos(np.clip(cos_beta, -1.0, 1.0))
        partial = side_1 + side_2 * np.exp(1j * phi_2)
        phi_3 = float(np.angle(-partial)) if abs(partial) > 0.0 else 0.0
        theta = np.array([0.0, phi_2, phi_3, phi_3]) / 2.0
    phased = recombined * np.exp(1j * theta)[None, :]
    mix = np.array(
        [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]],
        dtype=np.float64,
    ) / 2.0
    columns = phased @ mix.T
    weights = []
    comps = []
    for i in range(4):
        left, sing, right = np.linalg.svd(columns[:, i].reshape(2, 2))
        weight = float(sing[0] ** 2)
        if weight <= _WEIGHT_FLOOR:
            continue
        a = left[:, 0]
        b = right[0, :]
        comps.append(np.kron(np.outer(a, a.conj()), np.outer(b, b.conj())))
        weights.append(weight)
    if not comps:
        return None
    wts = np.array(weights)
    dec = Decomposition(
        target=target,
        weights=wts / wts.sum(),
        components=tuple(BipartiteState(2, 2, c) for c in comps),
    )
    if dec.residual() > 1e-10:
        return None
    return dec


class _PovmObjective:
    """Decompositions parametrized by POVMs, evaluated by worst correlation.

    Unconstrained blocks B_i map to POVM elements
    E_i = S^{-1/2} B_i^dag B_i S^{-1/2} with S = sum_j B_j^dag B_j, which sum
    to the identity on the support of the target by construction, so every
    parameter point yields p_i = tr(rho E_i) and components
    sqrt(rho) E_i sqrt(rho) / p_i that rebuild the target identically.

    evaluate stacks the k blocks: S, the E_i, p_i and components come from
    batched products, S^{-1/2} and every component correlation from linalg's
    stacked kernels (three batched eigh calls and one batched SVD in all).
    Components with p_i at or below _WEIGHT_FLOOR are dropped; with
    kept=True the indices of the blocks that remain come as a fourth value.
    """

    def __init__(self, target: BipartiteState, k: int, rank_tol: float):
        self.target = target
        self.k = k
        self.rank_tol = rank_tol
        self.sqrt_rho = linalg.psd_sqrt(linalg.hermitian_part(target.rho))

    def evaluate(self, blocks: list, kept: bool = False):
        b = np.stack(blocks)
        s = (b.conj().swapaxes(-1, -2) @ b).sum(axis=0)
        c = b @ linalg.pinv_sqrt_stack(s[None], self.rank_tol)[0]
        raw = linalg.hermitian_part(self.sqrt_rho @ (c.conj().swapaxes(-1, -2) @ c) @ self.sqrt_rho)
        p = np.real(np.trace(raw, axis1=1, axis2=2))
        keep = p > _WEIGHT_FLOOR
        comps = raw[keep] / p[keep, None, None]
        out = p[keep], comps, linalg.mu_stack(comps, self.target.d_a, self.target.d_b, self.rank_tol)
        return out + (np.flatnonzero(keep),) if kept else out

    def decomposition(self, blocks: list) -> Decomposition:
        weights, comps, _ = self.evaluate(blocks)
        weights = weights / weights.sum()
        states = tuple(BipartiteState(self.target.d_a, self.target.d_b, c) for c in comps)
        return Decomposition(target=self.target, weights=weights, components=states)


def _random_block(rng: np.random.Generator, n: int) -> np.ndarray:
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(n)


def _soft_worst(mus: np.ndarray, temp: float) -> float:
    m = float(np.max(mus))
    return m + temp * float(np.log(np.sum(np.exp((mus - m) / temp))))


def _search_once(
    objective: _PovmObjective,
    iters: int,
    rng: np.random.Generator,
) -> Decomposition:
    n, k = objective.target.dim, objective.k
    blocks = [_random_block(rng, n) for _ in range(k)]
    _, _, mus, kept = objective.evaluate(blocks, kept=True)
    temp0, temp1 = 0.1, 0.005
    step = 0.3
    stale = 0
    for t in range(iters):
        temp = temp0 * (temp1 / temp0) ** (t / max(iters - 1, 1))
        current = _soft_worst(mus, temp)
        if rng.random() < 0.5 and mus.size:
            i = int(kept[np.argmax(mus)])
        else:
            i = int(rng.integers(k))
        trial = [b for b in blocks]
        trial[i] = blocks[i] + step * _random_block(rng, n)
        _, _, mus_trial, kept_trial = objective.evaluate(trial, kept=True)
        if mus_trial.size and _soft_worst(mus_trial, temp) < current:
            blocks = trial
            mus, kept = mus_trial, kept_trial
            step = min(step * 1.3, 2.0)
            stale = 0
        else:
            step = max(step * 0.85, 1e-3)
            stale += 1
            if stale >= 60:
                # Kick a stuck search: replace the worst block outright.
                j = int(kept[np.argmax(mus)])
                fresh = [b for b in blocks]
                fresh[j] = _random_block(rng, n)
                _, _, mus_fresh, kept_fresh = objective.evaluate(fresh, kept=True)
                if mus_fresh.size and _soft_worst(mus_fresh, temp) < current:
                    blocks = fresh
                    mus, kept = mus_fresh, kept_fresh
                step = 0.3
                stale = 0
    return objective.decomposition(blocks)


def random_povm_decomposition(
    target: BipartiteState, k: int = 4, seed: int = 0, rank_tol: float = RANK_TOL
) -> Decomposition:
    """A valid random decomposition with no optimization; a baseline certificate."""
    if k < 1:
        raise RangeError(f"k must be positive, got {k!r}")
    objective = _PovmObjective(target, k, rank_tol)
    rng = np.random.default_rng(seed)
    return objective.decomposition([_random_block(rng, target.dim) for _ in range(k)])


def decomposition_search(
    target: BipartiteState,
    k: int = COMPONENTS,
    restarts: int = RESTARTS,
    iters: int = SEARCH_ITERS,
    seed: int = 0,
    rank_tol: float = RANK_TOL,
) -> Decomposition:
    """Heuristic search for a decomposition with small worst-component correlation.

    Two structured candidates are tried first: the trivial one-component
    decomposition, and the closed-form product ensemble for two-qubit
    targets whose spin-flip spectrum permits one (every separable one).
    Random starts of a local derivative-free descent (block perturbations
    with adaptive step, accepted only on improvement, on a soft-max of the
    component correlations whose temperature anneals toward the true worst
    value) then run, but only while the best certified bound stays above a
    floor that further local search cannot meaningfully beat. The result is
    always a valid decomposition, so the bound it certifies holds no matter
    how well the search did.
    """
    if k < 1:
        raise RangeError(f"k must be positive, got {k!r}")
    if restarts < 0 or iters < 0:
        raise RangeError("restarts and iters must be nonnegative")
    best = _trivial_decomposition(target)
    best_value = mu_ent_upper(best, rank_tol=rank_tol)
    candidate = _product_ensemble_candidate(target)
    if candidate is not None:
        value = mu_ent_upper(candidate, rank_tol=rank_tol)
        if value < best_value:
            best, best_value = candidate, value
    floor = 1e-8
    if best_value > floor and restarts > 0:
        objective = _PovmObjective(target, k, rank_tol)
        rng = np.random.default_rng(seed)
        for _ in range(restarts):
            candidate = _search_once(objective, iters, rng)
            value = mu_ent_upper(candidate, rank_tol=rank_tol)
            if value < best_value:
                best, best_value = candidate, value
            if best_value <= floor:
                break
    return best


def quasi_convexity_check(
    states: list,
    weights: list,
    k: int = COMPONENTS,
    restarts: int = RESTARTS,
    iters: int = SEARCH_ITERS,
    seed: int = 0,
    rank_tol: float = RANK_TOL,
) -> QuasiConvexityReport:
    """Check that mixing never pushes the certified bound above the worst part.

    Runs the decomposition search on each state, merges the found
    decompositions into one decomposition of the mixture, and compares the
    merged certified bound against the largest individual one.
    """
    if len(states) != len(weights) or not states:
        raise RangeError("need equally many states and weights, at least one")
    dims = (states[0].d_a, states[0].d_b)
    for s in states:
        if (s.d_a, s.d_b) != dims:
            raise DimensionMismatchError("all states must share one dimension pair")
    w = np.asarray(weights, dtype=np.float64)
    if np.min(w) < 0.0 or abs(w.sum() - 1.0) > 1e-10:
        raise RangeError("weights must be nonnegative and sum to 1")

    decs = [
        decomposition_search(s, k=k, restarts=restarts, iters=iters, seed=seed + 7 * i, rank_tol=rank_tol)
        for i, s in enumerate(states)
    ]
    individual = tuple(mu_ent_upper(d, rank_tol=rank_tol) for d in decs)

    mixed = BipartiteState(
        dims[0], dims[1], sum(wi * s.rho for wi, s in zip(w, states))
    )
    merged_weights = np.concatenate([wi * d.weights for wi, d in zip(w, decs)])
    merged_comps = tuple(c for d in decs for c in d.components)
    keep = merged_weights > _WEIGHT_FLOOR
    merged = Decomposition(
        target=mixed,
        weights=merged_weights[keep] / merged_weights[keep].sum(),
        components=tuple(c for c, kflag in zip(merged_comps, keep) if kflag),
    )
    merged_bound = mu_ent_upper(merged, rank_tol=rank_tol)
    return QuasiConvexityReport(
        individual_bounds=individual,
        merged_bound=merged_bound,
        ok=merged_bound <= max(individual) + 1e-8,
        merged=merged,
    )
