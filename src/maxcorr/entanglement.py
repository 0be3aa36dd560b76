"""Certified bounds on maximal entanglement.

Maximal entanglement of a bipartite state is the smallest worst-component
maximal correlation over all convex decompositions of the state. Exact values
are out of reach in general, so everything here produces certified bounds:

* any explicit decomposition certifies an upper bound (mu_ent_upper);
* Bell fidelity certifies a lower bound for two qubits
  (fidelity_mu_lower_bound; lambda_bounds gives its noisy Bell value
  1 - 3 eps / 2 in closed form);
* for the noisy Bell family the two meet the known bracket
  [max(0, 1 - 3 eps / 2), 1 - eps], collapsing to [0, 0] once the state
  turns separable at eps >= 2/3, where the closed-form product ensemble
  gives an explicit decomposition into at most four pure product states.

bracket is the one place that assembles these sources into lower <= mu_ent <=
upper. Its upper end is a heuristic search over decompositions parametrized
by POVMs (every iterate rebuilds the target identically), after the trivial
decomposition and the closed-form product ensemble, which handles every
separable two-qubit target exactly. Its decomposition is always valid, so the
bound holds even when the search is far from optimal.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .defaults import COMPONENTS, RECONSTRUCTION_TOL, RESTARTS, SEARCH_ITERS
from .errors import (
    DimensionMismatchError,
    InvalidDecompositionError,
    RangeError,
)
from .states import BipartiteState, _bell_vector, _noisy_bell, isotropic, validate


_WEIGHT_FLOOR = 1e-12
_FLOOR = 1e-8
"""Certified bound at or below which bracket starts no further restart."""
_CLOSED = 1e-9
"""Width at or below which bracket counts as closed and starts no further restart."""
_TAKAGI_CUT = 1e-9
"""Relative eigenvalue below which _takagi_symmetric treats a Takagi value as zero."""


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
        if not np.all(np.isfinite(w)):
            raise InvalidDecompositionError("weights must be finite")
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
class Bracket:
    """Certified lower <= mu_ent <= upper; upper is the worst component_mu of the decomposition."""

    lower: float
    upper: float
    decomposition: Decomposition
    component_mu: np.ndarray


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


def mu_ent_upper(decomposition: Decomposition) -> float:
    """Certified upper bound: worst component maximal correlation.

    Raises InvalidDecompositionError unless the mixture rebuilds its target
    entrywise within RECONSTRUCTION_TOL and every component is a valid state.
    """
    return float(np.max(_component_mus(decomposition)))


def _component_mus(decomposition: Decomposition) -> np.ndarray:
    """Maximal correlation of every component of a validated decomposition (see mu_ent_upper)."""
    res = decomposition.residual()
    if res > RECONSTRUCTION_TOL:
        raise InvalidDecompositionError(
            f"mixture misses its target by {res:.3e} (tol {RECONSTRUCTION_TOL:.1e})"
        )
    for i, c in enumerate(decomposition.components):
        diag = validate(c)
        if not diag.ok:
            raise InvalidDecompositionError(
                f"component {i} is not a valid state: {'; '.join(diag.failures)}"
            )
    rhos = np.stack([c.rho for c in decomposition.components])
    target = decomposition.target
    return linalg.mu_stack(rhos, target.d_a, target.d_b)


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
    """The 24 single-qubit Clifford rotations (up to phase), as complex128 2x2 unitaries.

    Each Pauli I, X, Y, Z (Pauli-major) times each of the six H/S products I,
    H, S, HS, SH, HSH, one for every permutation of the Pauli axes.
    """
    h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)
    s = np.diag([1.0, 1.0j])
    eye = np.eye(2, dtype=np.complex128)
    x, z = eye[::-1], np.diag([1.0, -1.0]).astype(np.complex128)
    paulis = (eye, x, 1j * x @ z, z)
    axes = (eye, h, s, h @ s, s @ h, h @ s @ h)
    return tuple(p @ a for p in paulis for a in axes)


def _twirl_noise(state: BipartiteState) -> float:
    """Noise delta = 4 (1 - F) / 3 of the noisy Bell state the twirl lands on.

    delta is clamped at 0: a Bell state whose fidelity rounds just above 1 is noiseless.
    """
    return max(4.0 * (1.0 - bell_fidelity(state)) / 3.0, 0.0)


def _isotropic_noise(state: BipartiteState) -> float | None:
    """Noise delta of the noisy Bell state a two-qubit state equals entrywise within 1e-9, else None."""
    if (state.d_a, state.d_b) != (2, 2):
        return None
    delta = _twirl_noise(state)
    return delta if np.max(np.abs(state.rho - _noisy_bell(delta).rho)) < 1e-9 else None


def twirl_exact(state: BipartiteState) -> BipartiteState:
    """Average of (U (x) U*) rho (U (x) U*)^dag over Haar-random U, in closed form.

    The twirl depends on the input only through its Bell fidelity F and
    lands on the noisy Bell family at noise delta = 4 (1 - F) / 3, clamped
    at 0. States with F < 1/4 give delta > 1; the output matrix is assembled
    directly since it remains a valid state for delta up to 4/3.
    """
    return _noisy_bell(_twirl_noise(state))


def twirl_clifford_average(state: BipartiteState) -> BipartiteState:
    """Average of (C (x) C*) rho (C (x) C*)^dag over the 24 Clifford rotations.

    One sum over the stacked (24, 4, 4) C (x) C*. Agrees with twirl_exact to
    numerical precision because the Clifford group averages degree-2
    polynomials exactly like the Haar measure.
    """
    if (state.d_a, state.d_b) != (2, 2):
        raise DimensionMismatchError("Clifford twirl needs a two-qubit state")
    c = np.array(single_qubit_cliffords())
    u = np.einsum("nab,ncd->nacbd", c, c.conj()).reshape(24, 4, 4)
    acc = (u @ state.rho @ u.conj().swapaxes(-1, -2)).sum(axis=0)
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
    return PptReport(min_eigenvalue=min_eig, is_ppt=min_eig >= linalg.psd_floor(w))


_SPIN_FLIP = np.kron(
    np.array([[0.0, -1j], [1j, 0.0]]), np.array([[0.0, -1j], [1j, 0.0]])
).real


def _takagi_symmetric(t: np.ndarray):
    """Factor a complex symmetric matrix as U diag(lam) U^T.

    Uses the real symmetric embedding [[Re t, Im t], [Im t, -Re t]], whose
    eigenvectors (u; v) at eigenvalue lam > 0 give columns u + iv of a
    unitary U. Eigenvalues below _TAKAGI_CUT (relative) are treated as zero and
    their columns replaced by an orthonormal completion, which leaves the
    factorization exact because zero factors drop out of U diag(lam) U^T.
    Returns (lam descending, U).
    """
    r = t.shape[0]
    w, q = np.linalg.eigh(linalg.hermitian_part(np.block([[t.real, t.imag], [t.imag, -t.real]])))
    cut = _TAKAGI_CUT * max(1.0, float(np.max(np.abs(w))))
    kept = int(np.count_nonzero(w > cut))  # w ascends, so the kept values are its last ones
    u = q[:r, ::-1][:, :kept] + 1j * q[r:, ::-1][:, :kept]
    if kept < r:
        basis = np.linalg.svd(u)[0] if kept else np.eye(r, dtype=complex)
        u = np.hstack([u, basis[:, kept:]])
    return np.concatenate([w[::-1][:kept], np.zeros(r - kept)]), u


def _product_ensemble_candidate(target: BipartiteState) -> Decomposition | None:
    """Closed-form decomposition of a separable two-qubit state into products.

    A pure two-qubit state is a product exactly when its spin-flip overlap
    vanishes. Starting from the eigenvector ensemble of the target, a unitary
    recombination diagonalizes the symmetric matrix of mutual spin-flip
    overlaps; when the leading diagonal value is at most the sum of the rest,
    phases closing that polygon followed by the balanced orthogonal mix
    kron(H2, H2) / 2 drive every overlap to zero, giving four (numerically
    exact) product vectors a (x) b, split by one batched 2x2 SVD; those of
    weight above _WEIGHT_FLOOR become the components |a><a| (x) |b><b|.
    Returns None when the polygon cannot close, which is precisely the
    entangled case, or when the mixture misses the target by over 1e-10.
    """
    if (target.d_a, target.d_b) != (2, 2):
        return None
    w, v = np.linalg.eigh(linalg.hermitian_part(target.rho))
    # Round-off eigenvalues would give columns whose spin-flip overlaps sit at _TAKAGI_CUT.
    ensemble = v * np.sqrt(np.where(w > linalg.support_cut(w), w, 0.0))
    overlap = ensemble.T @ _SPIN_FLIP @ ensemble
    overlap = (overlap + overlap.T) / 2.0
    lam, u = _takagi_symmetric(overlap)
    if np.max(np.abs(overlap - u @ np.diag(lam) @ u.T)) > 1e-10:
        return None
    if lam[0] > lam[1] + lam[2] + lam[3] + 1e-8:
        return None
    recombined = ensemble @ u.conj()
    a, b, c = lam[0], lam[1], lam[2] + lam[3]  # the polygon's sides
    if a <= 0.0:
        theta = np.zeros(4)
    else:
        if b <= 0.0:
            return None
        # The angle between sides a and b has sine 4 area / 2ab (Heron) and cosine
        # (a^2 + b^2 - c^2) / 2ab; arccos of a cosine that rounds to 1 is off by ~1e-8.
        area4 = math.sqrt(max((a + b + c) * (b + c - a) * (a + c - b) * (a + b - c), 0.0))
        phi_2 = np.pi - math.atan2(area4, a * a + b * b - c * c)
        partial = a + b * np.exp(1j * phi_2)
        phi_3 = float(np.angle(-partial)) if abs(partial) > 0.0 else 0.0
        theta = np.array([0.0, phi_2, phi_3, phi_3]) / 2.0
    phased = recombined * np.exp(1j * theta)[None, :]
    h2 = np.array([[1.0, 1.0], [1.0, -1.0]])
    mix = np.kron(h2, h2) / 2.0  # symmetric and orthogonal
    columns = phased @ mix
    left, sing, right = np.linalg.svd(columns.T.reshape(4, 2, 2))
    keep = sing[:, 0] ** 2 > _WEIGHT_FLOOR
    if not keep.any():
        return None
    a, b = left[keep, :, 0], right[keep, 0, :]
    projectors = np.einsum("ni,nj,nk,nl->nikjl", a, a.conj(), b, b.conj()).reshape(-1, 4, 4)
    weights = sing[keep, 0] ** 2
    dec = Decomposition(
        target=target,
        weights=weights / weights.sum(),
        components=tuple(BipartiteState(2, 2, p) for p in projectors),
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

    evaluate scores a stack of trials at once: an (m, k, n, n) array holds m
    parameter points of k blocks each. One evaluate makes three LAPACK calls,
    each batched over the whole stack: eigh of the m matrices S (for S^{-1/2}),
    then, in mu_stack, eigh of the 2mk marginals of the components (two calls
    when d_a != d_b) and the SVD of their mk realigned forms. Everything else
    is batched products and elementwise work. Each trial gets the same bits as
    it would evaluated alone; a one-trial caller passes blocks[None]. Returns
    one (weights, components, mus) tuple per trial, which decomposition turns
    into the Decomposition it scored, with no second evaluate.

    The weights are positive for every block the search draws: a random block
    is almost surely invertible, so its E_i is positive definite. A zero or
    vanishing block (p_i at or below _WEIGHT_FLOOR) raises InvalidDecompositionError.
    """

    def __init__(self, target: BipartiteState, k: int):
        if k < 1:
            raise RangeError(f"k must be positive, got {k!r}")
        self.target = target
        self.k = k
        self.sqrt_rho = linalg.psd_sqrt(linalg.hermitian_part(target.rho))

    def evaluate(self, trials: np.ndarray) -> list:
        b = np.asarray(trials)
        m, k, n, _ = b.shape
        s = (b.conj().swapaxes(-1, -2) @ b).sum(axis=1)
        # Products sharing one right factor per trial run as one (k n, n) x (n, n)
        # product per trial: each entry is the same length-n sum, in k times fewer BLAS calls.
        c = (b.reshape(m, k * n, n) @ linalg.pinv_sqrt_stack(s)).reshape(b.shape)
        raw = self.sqrt_rho @ (c.conj().swapaxes(-1, -2) @ c)
        raw = (raw.reshape(m, k * n, n) @ self.sqrt_rho).reshape(b.shape)
        raw += raw.conj().swapaxes(-1, -2)  # hermitian_part, in place: same bits, no temporaries
        raw /= 2.0
        p = raw.trace(axis1=-2, axis2=-1).real
        if p.min() <= _WEIGHT_FLOOR:
            raise InvalidDecompositionError(f"POVM weight {p.min():.3e} at or below {_WEIGHT_FLOOR}")
        d_a, d_b = self.target.d_a, self.target.d_b
        comps = raw / p[..., None, None]
        mus = linalg.mu_stack(comps.reshape(m * k, n, n), d_a, d_b).reshape(m, k)
        return list(zip(p, comps, mus))

    def decomposition(self, result: tuple) -> Decomposition:
        weights, comps, _ = result
        weights = weights / weights.sum()
        states = tuple(BipartiteState(self.target.d_a, self.target.d_b, c) for c in comps)
        return Decomposition(target=self.target, weights=weights, components=states)


def _random_blocks(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """k blocks (z_0 + i z_1) / sqrt(n) for standard normal z in one draw: block by block, the real parts first."""
    z = rng.standard_normal((k, 2, n, n)) * (1.0 / math.sqrt(n))
    return z.transpose(0, 2, 3, 1).copy().view(np.complex128)[..., 0]


def _soft_worst(mus: np.ndarray, temp: float) -> float:
    """Soft maximum of the component correlations (never empty: the weights sum to 1)."""
    m = float(mus.max())
    return m + temp * math.log(float(np.exp((mus - m) / temp).sum()))


def _soft_worst_rows(rows: list, temp: float) -> list:
    """_soft_worst of each row, bit for bit, in one stacked pass; the rows share one length."""
    rows = np.array(rows)
    top = rows.max(axis=1)
    sums = np.exp((rows - top[:, None]) / temp).sum(axis=1)
    return [m + temp * math.log(x) for m, x in zip(top.tolist(), sums.tolist())]


_PROPOSALS = 2
"""Proposals per search step, scored in one stacked evaluate."""

_STEP_UP, _STEP_DOWN = 1.3**_PROPOSALS, 0.85**_PROPOSALS
"""Step-size factors after a step with and without an accepted proposal: those
of one proposal, compounded over the proposals a step scores."""


def _search_once(objective: _PovmObjective, iters: int, rng: np.random.Generator) -> Decomposition:
    """One restart of a local derivative-free descent from random blocks.

    It minimizes a soft-max of the component mus whose temperature anneals
    toward the true worst value. Each of its ceil(iters / 2) steps draws two
    proposals (the last step one, when iters is odd), each perturbing the worst
    block half the time and a random block otherwise, scores them in one
    stacked evaluate, and accepts the better one only if it improves on the
    current point, whose soft-max is taken in the same pass as theirs; the step
    size adapts per step by the factors of two single proposals. Returns the
    decomposition of the last accepted evaluate result, or of the start's.
    """
    n, k = objective.target.dim, objective.k
    random, integers = rng.random, rng.integers
    blocks = _random_blocks(rng, n, k)
    _, _, mus = accepted = objective.evaluate(blocks[None])[0]
    steps = -(-iters // _PROPOSALS)
    temp0, temp1 = 0.1, 0.005
    step = 0.3
    for t in range(steps):
        temp = temp0 * (temp1 / temp0) ** (t / max(steps - 1, 1))
        worst = int(mus.argmax())
        trials = blocks[None].repeat(min(_PROPOSALS, iters - _PROPOSALS * t), axis=0)
        for trial in trials:
            i = worst if random() < 0.5 else int(integers(k))
            trial[i] += step * _random_blocks(rng, n, 1)[0]
        results = objective.evaluate(trials)
        current, *scores = _soft_worst_rows([mus] + [r[2] for r in results], temp)
        best = scores.index(min(scores))
        if scores[best] < current:
            blocks = trials[best]
            _, _, mus = accepted = results[best]
            step = min(step * _STEP_UP, 2.0)
        else:
            step = max(step * _STEP_DOWN, 1e-3)
    return objective.decomposition(accepted)


def random_povm_decomposition(target: BipartiteState, k: int = 4, seed: int = 0) -> Decomposition:
    """A valid random decomposition with no optimization (the zero-step search); a baseline certificate."""
    return _search_once(_PovmObjective(target, k), 0, np.random.default_rng(seed))


def bracket(
    target: BipartiteState,
    k: int = COMPONENTS,
    restarts: int = RESTARTS,
    iters: int = SEARCH_ITERS,
    seed: int = 0,
) -> Bracket:
    """Certified bracket lower <= mu_ent(target) <= upper.

    lower is fidelity_mu_lower_bound for two qubits and 0.0 otherwise. upper
    comes from a heuristic search for a decomposition with small
    worst-component correlation. Two structured candidates are tried first:
    the trivial one-component decomposition, and the closed-form product
    ensemble for two-qubit targets whose spin-flip spectrum permits one (every
    separable one). Restarts of the descent in _search_once, which states its
    step rule, then run, up to restarts of them, with three stops. None starts
    once the best certified bound is at or below _FLOOR, which local search
    cannot meaningfully beat; or within _CLOSED of lower, where the bracket is
    closed (on |Phi+> the trivial decomposition meets the Bell fidelity
    bound); or on a target _isotropic_noise recognises as noisy Bell. There the
    twirl reduction makes the optimum Clifford copies of one state, and in 200
    restarts (noise 0.05-0.65, 20 seeds each, k=8, iters=400) the best per
    noise stayed 0.005-0.11 above the target's own mu, the trivial
    certificate's value. Each candidate is scored once here (_component_mus,
    which validates it) and the winner keeps its scores. The decomposition is
    always valid, so the bound it certifies holds no matter how well the
    search did.
    """
    objective = _PovmObjective(target, k)
    if restarts < 0 or iters < 0:
        raise RangeError("restarts and iters must be nonnegative")
    rng = np.random.default_rng(seed)
    lower = fidelity_mu_lower_bound(target) if (target.d_a, target.d_b) == (2, 2) else 0.0
    stop = max(_FLOOR, lower + _CLOSED)
    best, best_mus, best_value = None, None, math.inf
    trivial = Decomposition(target=target, weights=np.array([1.0]), components=(target,))
    if _isotropic_noise(target) is not None:
        restarts = 0
    # Restarts are drawn lazily: each starts only while the best bound is above stop.
    restarted = (_search_once(objective, iters, rng) for _ in range(restarts) if best_value > stop)
    for candidate in filter(None, itertools.chain([trivial, _product_ensemble_candidate(target)], restarted)):
        mus = _component_mus(candidate)
        value = float(np.max(mus))
        if value < best_value:
            best, best_mus, best_value = candidate, mus, value
    return Bracket(lower=lower, upper=best_value, decomposition=best, component_mu=best_mus)


def decomposition_search(
    target: BipartiteState,
    k: int = COMPONENTS,
    restarts: int = RESTARTS,
    iters: int = SEARCH_ITERS,
    seed: int = 0,
) -> Decomposition:
    """The decomposition that certifies bracket's upper end (same arguments, bits and errors)."""
    return bracket(target, k=k, restarts=restarts, iters=iters, seed=seed).decomposition
