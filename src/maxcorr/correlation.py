"""Maximal correlation of bipartite states and classical joint distributions.

The quantity computed here is the largest correlation coefficient
|E[f g]| achievable by local observables with zero mean and unit second
moment on each side. For a bipartite density operator it equals the second
operator Schmidt coefficient of the marginal-normalized form

    rho_tilde = (I (x) rho_B^{-1/2}) rho (rho_A^{-1/2} (x) I),

whose leading coefficient is always 1; for a classical joint table it is the
second singular value of the correspondingly normalized table. A variational
alternating-ascent oracle solves the defining optimization directly, each
half-step one of two folded linear maps and no SVD anywhere in it, and so
cross-checks the spectral route independently.

Each entry point takes, checks and diagonalizes both marginals exactly once
(_Spectra) and derives ranks, (pseudo-inverse) square roots, the folded maps
and the hermitian witness from those eigenpairs. The witness scores exactly one
ObservablePair and builds the hermitian ceiling only when a closed-form bound,
taken side by side and no further once one side rules the ceiling out, says it
may come within 1e-8 of mu, so never on a generic mixed state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .defaults import LAMBDA1_WARN_TOL, ORACLE_ITERS, RESTARTS
from .errors import DegenerateMarginalError, RangeError
from .states import BipartiteState, ClassicalJoint


_DEGENERACY_TOL = 1e-10
_ZERO_DIRECTION = 1e-14
_CONVERGENCE_TOL = 1e-12
"""The oracle stops once one full ascent step moves the objective by less than this."""


@dataclass(frozen=True)
class ObservablePair:
    """Local observables X on A and Y on B achieving some correlation value.

    Feasibility means tr(rho_A X) = tr(rho_B Y) = 0 and
    tr(rho_A X X^dag) = tr(rho_B Y Y^dag) = 1; objective is |tr(rho X (x) Y^dag)|.
    """

    x: np.ndarray
    y: np.ndarray
    mean_x: complex
    mean_y: complex
    second_moment_x: float
    second_moment_y: float
    objective: float
    hermitian: bool = False
    second_multiplicity: int = 1


@dataclass(frozen=True)
class CorrelationReport:
    """Outcome of a maximal-correlation computation."""

    mu: float
    schmidt: np.ndarray
    lambda1_deviation: float
    marginal_ranks: tuple
    witness: ObservablePair | None = None
    warnings: tuple = ()


@dataclass(frozen=True)
class VariationalResult:
    """Best value found by the alternating-ascent oracle."""

    value: float
    witness: ObservablePair | None
    converged: bool
    iterations: int


class _Spectra:
    """A state's two marginals, checked and diagonalized once, and what derives from them.

    Both marginals and the realigned normalized form come off one (d_a, d_b, d_a, d_b)
    view of rho by partial_trace's and realign's arithmetic, without their checks
    (BipartiteState's suffice). Both marginals are checked hermitian (linalg.hermitian_eig),
    then both positive semidefinite, each against the floor times the dimension it traces
    out (linalg.check_psd), so every entry point raises the same error on the same input
    and measures whatever validate accepts. The normalized form is built on first use:
    the oracle reads only the eigenpairs and never pays for it.
    """

    def __init__(self, state: BipartiteState):
        self.state, self._normalized = state, None
        rho4 = state.rho.reshape(state.d_a, state.d_b, state.d_a, state.d_b)
        self.rho_a, self.rho_b = linalg._trace_out(rho4, "B"), linalg._trace_out(rho4, "A")
        self.eig_a, self.eig_b = linalg.hermitian_eig(self.rho_a), linalg.hermitian_eig(self.rho_b)
        linalg.check_psd(self.eig_a[0], state.d_b)
        linalg.check_psd(self.eig_b[0], state.d_a)

    @property
    def normalized(self) -> tuple:
        """(marginal ranks, rho_A^{-1/2}, rho_B^{-1/2}, realigned normalized form)."""
        if self._normalized is None:
            (w_a, v_a), (w_b, v_b), (d_a, d_b) = self.eig_a, self.eig_b, (self.state.d_a, self.state.d_b)
            f_a, f_b = linalg.pinv_sqrt_weights(w_a), linalg.pinv_sqrt_weights(w_b)
            inv_a, inv_b = linalg.from_eig(f_a, v_a), linalg.from_eig(f_b, v_b)
            tilde = linalg.normalized_form(self.state.rho, inv_a, inv_b, d_a, d_b)
            realigned = tilde.reshape(d_a, d_b, d_a, d_b).swapaxes(1, 2).reshape(d_a * d_a, d_b * d_b)
            ranks = (int(np.count_nonzero(f_a)), int(np.count_nonzero(f_b)))
            self._normalized = ranks, inv_a, inv_b, realigned
        return self._normalized


def mu_schmidt(state: BipartiteState, witness: bool = False) -> CorrelationReport:
    """Maximal correlation via the operator Schmidt spectrum.

    Realigns the marginal-normalized form of the state and reads the second
    singular value. The leading value equals 1 up to numerical error for any
    valid state; its deviation is reported and warned about beyond 1e-6.
    When witness is true the maximizing observable pair is attached, None when mu vanishes.

    One eigendecomposition per marginal (_Spectra: both checked hermitian,
    then both positive semidefinite) gives the ranks, the normalized form and
    the witness.
    """
    spectra = _Spectra(state)
    ranks, _, _, realigned = spectra.normalized
    schmidt = linalg.singular_values(realigned)
    mu = float(schmidt[1]) if schmidt.size > 1 else 0.0
    dev = float(abs(schmidt[0] - 1.0))

    warnings = []
    if dev > LAMBDA1_WARN_TOL:
        warnings.append(
            f"leading Schmidt coefficient off by {dev:.3e}; "
            "the input may not be a valid normalized state"
        )
    pair = _witness(state, spectra) if witness else None
    return CorrelationReport(
        mu=mu,
        schmidt=schmidt,
        lambda1_deviation=dev,
        marginal_ranks=ranks,
        witness=pair,
        warnings=tuple(warnings),
    )


def mu_classical(joint: ClassicalJoint) -> CorrelationReport:
    """Maximal correlation of a joint probability table.

    Restricts to the support (drops zero-probability rows and columns),
    normalizes by the marginals, and reads the second singular value. For
    2x2 supports the value is cross-checked against |det| of the normalized
    table, which it must equal because the leading singular value is 1.
    """
    p = joint.probs
    row = p.sum(axis=1)
    col = p.sum(axis=0)
    p = p[row > 0.0, :][:, col > 0.0]
    if p.size == 0:
        raise DegenerateMarginalError("joint table has empty support")
    row = p.sum(axis=1)
    col = p.sum(axis=0)
    if np.min(row) <= 0.0 or np.min(col) <= 0.0:
        raise DegenerateMarginalError("marginal vanishes after support restriction")

    tilde = p / np.sqrt(np.outer(row, col))
    sv = np.linalg.svd(tilde, compute_uv=False)
    mu = float(sv[1]) if sv.size > 1 else 0.0
    dev = float(abs(sv[0] - 1.0))

    warnings = []
    if dev > LAMBDA1_WARN_TOL:
        warnings.append(f"leading singular value off by {dev:.3e}")
    if tilde.shape == (2, 2):
        det_gap = abs(abs(np.linalg.det(tilde)) - mu)
        if det_gap > 1e-10:
            warnings.append(f"2x2 determinant cross-check off by {det_gap:.3e}")
    return CorrelationReport(
        mu=mu,
        schmidt=sv,
        lambda1_deviation=dev,
        marginal_ranks=(p.shape[0], p.shape[1]),
        witness=None,
        warnings=tuple(warnings),
    )


def _center_normalize(op: np.ndarray, marginal: np.ndarray) -> np.ndarray | None:
    """Project out the identity component and scale to unit weighted norm; None if nothing is left."""
    centered = op - np.vdot(marginal, op) * linalg.eye(marginal.shape[0])  # tr(M O) = vdot(M, O), M hermitian
    norm = math.sqrt(max(np.vdot(centered, marginal @ centered).real, 0.0))  # tr(M C C^dag) = vdot(C, M C)
    if norm < _ZERO_DIRECTION:
        return None
    return centered / norm


def _folded_maps(state: BipartiteState, sp: _Spectra) -> tuple:
    """The oracle's half-steps as matrices on row-major vec, and the weights that normalize them.

    to_x @ vec(Y) is vec of rho_A^+ tr_B((I (x) Y^dag) rho)^dag less its
    tr(rho_A .) I component, and to_y @ vec(X) is vec of rho_B^+ tr_A((X (x) I) rho)
    centered likewise; weight_a = sqrt(rho_A) (x) I, so ||weight_a @ vec(X)||^2 =
    tr(rho_A X X^dag). Each marginal's eigenpairs in sp give its pseudo-inverse
    and its square root. Returns (to_x, weight_a, to_y, weight_b).
    """
    rho4 = state.rho.reshape(state.d_a, state.d_b, state.d_a, state.d_b)
    out = []
    for rho_m, (w, v), spec, operand in (
        (sp.rho_a, sp.eig_a, "pm,qkmj->pqkj", rho4.conj()),
        (sp.rho_b, sp.eig_b, "pj,kjim->pmik", rho4),
    ):
        d = rho_m.shape[0]
        keep = w > linalg.support_cut(w)
        pinv = linalg.from_eig(np.where(keep, 1.0 / np.where(keep, w, 1.0), 0.0), v)
        step = np.einsum(spec, pinv, operand).reshape(d * d, -1)
        step[:: d + 1] -= rho_m.T.reshape(-1) @ step  # tr(rho Z) = vec(rho^T) . vec(Z), off the rows where vec(I) is 1
        weight = linalg.sqrt_from_eig(w, v)[:, None, :, None] * linalg.eye(d)[None, :, None, :]
        out += [step, weight.reshape(d * d, d * d)]
    return tuple(out)


def _half_step(to: np.ndarray, weight: np.ndarray, v: np.ndarray):
    """One ascent half-step on vec: the folded map, scaled to unit weighted norm; (None, 0.0) if it vanishes."""
    u = to @ v
    z = weight @ u
    norm = math.sqrt(np.vdot(z, z).real)
    if norm < _ZERO_DIRECTION:
        return None, 0.0
    return u / norm, norm


def _objective(state: BipartiteState, x: np.ndarray, y: np.ndarray) -> complex:
    """tr(rho (X (x) Y^dag)) = sum rho[i, j, k, l] X[k, i] Y[j, l]^*: one matrix-vector product on rho's 4-index
    form, the transpose, reshape and dot that np.tensordot(rho4, x, axes=([2, 0], [0, 1])) runs, without its wrapper."""
    d_a, d_b = state.d_a, state.d_b
    m = state.rho.reshape(d_a, d_b, d_a, d_b).transpose(1, 3, 2, 0).reshape(d_b * d_b, d_a * d_a)
    return complex(np.vdot(y, np.dot(m, x.reshape(d_a * d_a, 1)).reshape(d_b, d_b)))


def _hermitian(*ops: np.ndarray) -> bool:
    """Whether every operator lies within 1e-8 of its adjoint."""
    return all(float(np.max(np.abs(z - z.conj().T))) < 1e-8 for z in ops)


def _pair_stats(state: BipartiteState, sp: _Spectra, x, y, hermitian: bool, mult: int = 1) -> ObservablePair:
    """The pair's moments and objective, by the vdot forms of _center_normalize; hermitian is _hermitian(x, y)."""
    mean_x, mean_y = complex(np.vdot(sp.rho_a, x)), complex(np.vdot(sp.rho_b, y))
    m2_x, m2_y = float(np.vdot(x, sp.rho_a @ x).real), float(np.vdot(y, sp.rho_b @ y).real)
    return ObservablePair(x, y, mean_x, mean_y, m2_x, m2_y, abs(_objective(state, x, y)), hermitian, mult)


def mu_variational(
    state: BipartiteState,
    restarts: int = RESTARTS,
    seed: int = 0,
) -> VariationalResult:
    """Maximal correlation by direct alternating ascent on the defining problem.

    Each half-step is solved exactly: with Y fixed, the optimal X is the
    centered, unit-normalized direction (in the rho_A-weighted inner product
    <X1, X2> = tr(rho_A X2 X1^dag)) of the partial contraction
    tr_B((I (x) Y^dag) rho) pulled back through the rho_A pseudo-inverse, and
    symmetrically for Y. All of that is linear, so a half-step is one product
    with a folded matrix (_folded_maps) and the weighted norm
    ||(sqrt(rho_A) (x) I) vec(X)||: still the defining ascent, with nothing
    from the Schmidt route. The objective is monotone along the iteration, so
    the best value over restarts is reported together with the achieving
    feasible pair; when no restart meets _CONVERGENCE_TOL the best feasible
    value found is still returned, flagged as unconverged.

    The marginals are taken and checked as in mu_schmidt (_Spectra: both
    hermitian, then both positive semidefinite). A side of dimension 1 has no
    feasible observable: the value is then 0.0, converged in 0 iterations,
    with no witness, as mu_schmidt's mu = 0.
    """
    if restarts < 1:
        raise RangeError("restarts must be positive")
    sp = _Spectra(state)
    if min(state.d_a, state.d_b) == 1:
        return VariationalResult(value=0.0, witness=None, converged=True, iterations=0)
    to_x, weight_a, to_y, weight_b = _folded_maps(state, sp)
    rng = np.random.default_rng(seed)
    best_value, best_pair, best_converged, best_iters = -1.0, None, False, 0

    for _ in range(restarts):
        y, x = _random_observable(sp.rho_b, rng).reshape(-1), np.zeros(state.d_a * state.d_a)
        value, prev, converged, used = 0.0, -1.0, False, 0
        for it in range(ORACLE_ITERS):
            used = it + 1
            x_dir, _ = _half_step(to_x, weight_a, y)
            y_dir, value = (None, 0.0) if x_dir is None else _half_step(to_y, weight_b, x_dir)
            if y_dir is None:
                converged = True
                break
            x, y = x_dir, y_dir
            if abs(value - prev) < _CONVERGENCE_TOL:
                converged = True
                break
            prev = value
        if value > best_value:
            best_value = value
            best_pair = (x.reshape(state.d_a, state.d_a), y.reshape(state.d_b, state.d_b))
            best_converged = converged
            best_iters = used

    if best_value <= 0.0:
        # No usable ascent direction anywhere: the state is (numerically) a
        # product state and every feasible pair scores zero. Return a basic
        # feasible pair built from any centered direction.
        best_pair = (_random_observable(sp.rho_a, rng), _random_observable(sp.rho_b, rng))
        best_converged, best_iters = True, 0
    pair = _pair_stats(state, sp, *best_pair, _hermitian(*best_pair))
    return VariationalResult(value=pair.objective, witness=pair, converged=best_converged, iterations=best_iters)


def _random_observable(marginal: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A random complex Gaussian observable, centered and normalized against marginal."""
    d = marginal.shape[0]
    for _ in range(16):
        op = _center_normalize(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)), marginal)
        if op is not None:
            return op
    raise RangeError("marginal admits no zero-mean unit-variance observable")


def extract_witness(state: BipartiteState) -> ObservablePair:
    """Observable pair achieving the maximal correlation.

    The known leading Schmidt pair (sqrt of each marginal) is projected out
    of the realigned normalized form; the top singular pair of the deflated
    operator then maps back through the marginal pseudo-inverse square roots
    to a feasible pair whose objective equals the second Schmidt coefficient
    exactly, independent of spectral degeneracies. When the second
    coefficient is degenerate, any maximizer is returned and its multiplicity
    recorded. A pair that is not hermitian is replaced by the maximizer of the
    hermitian ceiling, the largest objective of any feasible hermitian pair (a
    closed form from the same spectra), when the ceiling is within 1e-8 of the
    objective; that pair is read off the ceiling's own singular vectors. The
    ceiling is built only when a closed-form bound from the deflated pair says
    it may come that close, so never on a generic mixed state.

    The marginals are diagonalized once (_Spectra, checked as in mu_schmidt) for
    the roots and the ceiling; mu_schmidt(witness=True) passes its own _Spectra.
    """
    if (pair := _witness(state, _Spectra(state))) is None:
        raise RangeError("witness is undefined when the maximal correlation vanishes")
    return pair


def _witness(state: BipartiteState, sp: _Spectra) -> ObservablePair | None:
    """extract_witness on spectra already taken, or None when mu vanishes: Y's phase (_objective), |raw|
    and the rotated pair's hermiticity choose the deflated pair or the ceiling's; only that one is scored.

    The ceiling is built only if every bound _ceiling_bounds yields, side A's and then both sides', passes
    b + 1e-12 >= |raw| - 1e-8; side B is not computed once side A fails. Whitened in <X, Z>_A =
    tr(rho_A X Z^dag), a unit a = alpha u0 + a_perp (u0 the deflated top vector, x) has |a^dag D b| <= mu |alpha|
    |beta| + s1 sqrt((1 - |alpha|^2)(1 - |beta|^2)) <= sqrt(mu^2 - (mu^2 - s1^2)(1 - |alpha|^2)), s1 = s[1]. A
    hermitian a has 1 - |alpha|^2 = min_c ||x - c a||^2 >= eta_A(x) = sum k_ij |t_ij|^2 - |sum k_ij t_ij t_ji|,
    the squared distance from {e^{i phi} x} to the hermitian matrices (zero mean dropped): t = V^dag x V in rho_A's
    eigenbasis, a_i its eigenvalues clipped at 0, k_ij = a_i a_j / (a_i + a_j) (0 if both are 0). Likewise on B.
    """
    _, inv_a, inv_b, realigned = sp.normalized
    w = linalg.sqrt_from_eig(*sp.eig_a).reshape(-1)
    z = linalg.sqrt_from_eig(*sp.eig_b).reshape(-1).conj()
    w, z = w / np.linalg.norm(w), z / np.linalg.norm(z)
    deflated = realigned - w[:, None] * (w.conj() @ realigned)
    deflated = deflated - (deflated @ z)[:, None] * z.conj()

    u, s, vh = np.linalg.svd(deflated, full_matrices=False)
    if s[0] < 1e-12:
        return None
    mult = int(np.sum(s >= s[0] - _DEGENERACY_TOL))
    x = _center_normalize(inv_a @ u[:, 0].reshape(state.d_a, state.d_a).conj().T, sp.rho_a)
    y = _center_normalize(inv_b @ vh[0, :].reshape(state.d_b, state.d_b), sp.rho_b)

    # Rotate Y's phase so the raw objective is real positive.
    raw = _objective(state, x, y)
    if abs(raw) > 0.0:
        y = y * np.exp(1j * np.angle(raw))

    if not (hermitian := _hermitian(x, y)) and all(b + 1e-12 >= abs(raw) - 1e-8 for b in _ceiling_bounds(sp, x, y, s)):
        ceiling, hx, hy = _hermitian_ceiling(state, sp)
        if ceiling >= abs(raw) - 1e-8:
            hx, hy = _center_normalize(hx, sp.rho_a), _center_normalize(hy, sp.rho_b)
            if hx is not None and hy is not None:
                x, y, hermitian = hx, hy, _hermitian(hx, hy)
    return _pair_stats(state, sp, x, y, hermitian, mult)


def _ceiling_bounds(sp: _Spectra, x: np.ndarray, y: np.ndarray, s: np.ndarray):
    """Yield sqrt(mu^2 - (mu^2 - s1^2) eta) at eta = eta_A(x), then max(eta_A(x), eta_B(y)): each is at least
    _hermitian_ceiling for _witness's (x, y, s), and they do not increase, so a gate may stop at the first to fail."""
    eta, mu, s1 = 0.0, float(s[0]), float(s[1]) if s.size > 1 else 0.0
    for op, (w, v) in ((x, sp.eig_a), (y, sp.eig_b)):
        a = np.maximum(w, 0.0)
        t = v.conj().T @ op @ v
        kt = a[:, None] * a / np.maximum(a[:, None] + a, 1e-300) * t  # 0 where a_i = a_j = 0
        eta = max(eta, float(np.vdot(t, kt).real - abs((kt * t.T).sum())))
        yield math.sqrt(max(mu * mu - (mu * mu - s1 * s1) * eta, 0.0))


def _pair_sums(w: np.ndarray):
    """Eigenbasis entries (i, j) on the support, w_i + w_j > support_cut, and w_i + w_j there (1 elsewhere)."""
    denom = w[:, None] + w[None, :]
    keep = denom > linalg.support_cut(w)
    return keep, np.where(keep, denom, 1.0)


def _hermitian_basis(d: int) -> np.ndarray:
    """Columns vec(E^T) for the orthonormal basis E_ij of the d x d hermitian matrices.

    E_ii = e_ii, E_ij = (e_ij + e_ji)/sqrt(2) for i < j, i(e_ij - e_ji)/sqrt(2) for i > j.
    """
    e = np.eye(d * d).reshape(d * d, d, d)
    i, j = np.divmod(np.arange(d * d), d)
    sym = (e + e.transpose(0, 2, 1)) / np.where(i == j, 2.0, np.sqrt(2.0))[:, None, None]
    basis = np.where((i <= j)[:, None, None], sym, 1j * (e - e.transpose(0, 2, 1)) / np.sqrt(2.0))
    return basis.transpose(0, 2, 1).reshape(d * d, d * d).T


def _hermitian_ceiling(state: BipartiteState, sp: _Spectra) -> tuple:
    """Largest objective of any feasible hermitian pair and a pair (X, Y) reaching it.

    For hermitian X, tr(rho_A X^2) = <X, (rho_A X + X rho_A)/2>, which weighs
    eigenbasis entry (i, j) by (a_i + a_j)/2. So the realigned state, rotated
    into both marginal eigenbases, scaled by sqrt(2 / (a_i + a_j)) on the
    support (and likewise on B) and taken in orthonormal hermitian coordinates,
    is a real matrix whose unit spheres are the normalized observables. Its top
    singular pair is the identity on each side with value 1 (Cauchy-Schwarz),
    so the zero-mean maximum is its second singular value, and the second
    singular vectors mapped back through the factors are a maximizing pair. It
    is feasible up to rounding, except that when 1 is a repeated singular
    value (pure states) it may mix with the identity: center and normalize it.
    """
    factors = []
    for w, v in (sp.eig_a, sp.eig_b):
        keep, safe = _pair_sums(w)
        scale = np.where(keep, np.sqrt(2.0 / safe), 0.0).reshape(-1)
        rotate = (v.conj()[:, None, :, None] * v[None, :, None, :]).reshape(w.size**2, w.size**2)
        factors.append((rotate * scale) @ _hermitian_basis(w.size))
    m = factors[0].T @ linalg.realign(state.rho, state.d_a, state.d_b) @ factors[1]
    u, s, vh = np.linalg.svd(m.real, full_matrices=False)
    x = (factors[0] @ u[:, 1]).reshape(state.d_a, state.d_a).T
    y = (factors[1] @ vh[1]).reshape(state.d_b, state.d_b).T
    return float(s[1]), x, y
