"""Bipartite states, classical joints, local channels, and seeded ensembles.

Carrier types are thin frozen dataclasses over numpy arrays. Construction
checks shapes and finiteness only; physical validity (hermiticity, trace,
positivity) is reported by validate() as structured diagnostics so that
imperfect inputs can be inspected rather than rejected outright.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .defaults import HERMITICITY_TOL, PROB_SUM_TOL, TRACE_PRESERVATION_TOL, TRACE_TOL
from .errors import DimensionMismatchError, RangeError


@dataclass(frozen=True)
class BipartiteState:
    """A density operator on H_A (x) H_B with the A index packed first."""

    d_a: int
    d_b: int
    rho: np.ndarray

    def __post_init__(self) -> None:
        if self.d_a < 1 or self.d_b < 1:
            raise DimensionMismatchError(
                f"dimensions must be positive, got ({self.d_a}, {self.d_b})"
            )
        rho = np.ascontiguousarray(np.asarray(self.rho, dtype=np.complex128))
        n = self.d_a * self.d_b
        if rho.shape != (n, n):
            raise DimensionMismatchError(
                f"state on ({self.d_a}, {self.d_b}) needs a {n} x {n} matrix, "
                f"got shape {rho.shape}"
            )
        if not np.all(np.isfinite(rho.view(np.float64))):
            raise RangeError("state matrix contains non-finite entries")
        object.__setattr__(self, "rho", rho)

    @property
    def dim(self) -> int:
        return self.d_a * self.d_b

    def marginal(self, side: str) -> np.ndarray:
        """Reduced operator on the named side."""
        other = "B" if side == "A" else "A"
        if side not in ("A", "B"):
            raise DimensionMismatchError(f"side must be 'A' or 'B', got {side!r}")
        return linalg.partial_trace(self.rho, self.d_a, self.d_b, other)


@dataclass(frozen=True)
class ClassicalJoint:
    """A joint probability table p(a, b) with nonnegative entries summing to 1."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        p = np.ascontiguousarray(np.asarray(self.probs, dtype=np.float64))
        if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] < 1:
            raise DimensionMismatchError(f"joint table must be 2-D, got shape {p.shape}")
        if not np.all(np.isfinite(p)):
            raise RangeError("joint table contains non-finite entries")
        if np.min(p) < 0.0:
            raise RangeError(f"joint table has negative entry {np.min(p):.3e}")
        total = float(p.sum())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise RangeError(f"joint table sums to {total!r}, not 1")
        object.__setattr__(self, "probs", p)

    @property
    def rows(self) -> int:
        return self.probs.shape[0]

    @property
    def cols(self) -> int:
        return self.probs.shape[1]


@dataclass(frozen=True)
class LocalChannel:
    """A CPTP map acting on one side of a bipartite state, given by Kraus blocks."""

    side: str
    kraus: tuple

    def __post_init__(self) -> None:
        if self.side not in ("A", "B"):
            raise DimensionMismatchError(f"side must be 'A' or 'B', got {self.side!r}")
        ks = tuple(np.ascontiguousarray(np.asarray(k, dtype=np.complex128)) for k in self.kraus)
        if not ks:
            raise RangeError("channel needs at least one Kraus block")
        shape = ks[0].shape
        if len(shape) != 2:
            raise DimensionMismatchError("Kraus blocks must be matrices")
        for k in ks:
            if k.shape != shape:
                raise DimensionMismatchError("Kraus blocks must share one shape")
            if not np.all(np.isfinite(k.view(np.float64))):
                raise RangeError("Kraus blocks contain non-finite entries")
        comp = sum(k.conj().T @ k for k in ks)
        dev = np.max(np.abs(comp - np.eye(shape[1])))
        if dev > TRACE_PRESERVATION_TOL:
            raise RangeError(f"Kraus blocks violate trace preservation by {dev:.3e}")
        object.__setattr__(self, "kraus", ks)

    @property
    def d_in(self) -> int:
        return self.kraus[0].shape[1]

    @property
    def d_out(self) -> int:
        return self.kraus[0].shape[0]


@dataclass(frozen=True)
class StateDiagnostics:
    """Validity report for a BipartiteState."""

    hermiticity_deviation: float
    trace_deviation: float
    min_eigenvalue: float
    marginal_ranks: tuple
    failures: tuple = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.failures


def validate(state: BipartiteState) -> StateDiagnostics:
    """Check hermiticity, normalization, and positivity; never raises.

    Entries near the float limit overflow to inf and NaN, where eigvalsh may fail; every check fails on NaN.
    """
    rho = state.rho
    with np.errstate(over="ignore", invalid="ignore"):
        herm_dev = float(np.max(np.abs(rho - rho.conj().T)))
        trace_dev = float(abs(rho.trace() - 1.0))
        spectra = []
        for m in (rho, state.marginal("A"), state.marginal("B")):
            try:
                spectra.append(np.linalg.eigvalsh(linalg.hermitian_part(m)))
            except np.linalg.LinAlgError:  # an overflowed hermitian part: a NaN spectrum fails every check
                spectra.append(np.full(len(m), np.nan))
        w, *marginals = spectra
        min_eig, floor = float(w[0]), linalg.psd_floor(w)
        ranks = [int(np.count_nonzero(x > linalg.support_cut(x))) for x in marginals]

    failures = []
    if not herm_dev <= HERMITICITY_TOL:
        failures.append(f"hermiticity: deviation {herm_dev:.3e} exceeds {HERMITICITY_TOL:.1e}")
    if not trace_dev <= TRACE_TOL:
        failures.append(f"normalization: trace off by {trace_dev:.3e} (tol {TRACE_TOL:.1e})")
    if not min_eig >= floor:
        failures.append(f"positivity: eigenvalue {min_eig:.3e} below {floor:.1e}")
    return StateDiagnostics(
        hermiticity_deviation=herm_dev,
        trace_deviation=trace_dev,
        min_eigenvalue=min_eig,
        marginal_ranks=tuple(ranks),
        failures=tuple(failures),
    )


def _bell_vector() -> np.ndarray:
    v = np.zeros(4, dtype=np.complex128)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return v


def bell_projector() -> np.ndarray:
    """Projector onto (|00> + |11>)/sqrt(2)."""
    v = _bell_vector()
    return np.outer(v, v.conj())


def _noisy_bell(delta: float) -> BipartiteState:
    """(1 - delta) |psi><psi| + delta I/4 without a range check.

    The matrix stays a valid state for delta up to 4/3, where the Bell twirl
    of a state with Bell fidelity 0 lands.
    """
    rho = (1.0 - delta) * bell_projector() + delta * np.eye(4, dtype=np.complex128) / 4.0
    return BipartiteState(2, 2, rho)


def isotropic(epsilon: float) -> BipartiteState:
    """Two-qubit mixture (1 - eps) |psi><psi| + eps I/4 of a Bell state with noise."""
    if not 0.0 <= epsilon <= 1.0:
        raise RangeError(f"epsilon must lie in [0, 1], got {epsilon!r}")
    return _noisy_bell(epsilon)


def classical_bsc(epsilon: float) -> ClassicalJoint:
    """Joint table of a uniform bit through a binary symmetric channel."""
    if not 0.0 <= epsilon <= 1.0:
        raise RangeError(f"epsilon must lie in [0, 1], got {epsilon!r}")
    same = (1.0 - epsilon) / 2.0
    diff = epsilon / 2.0
    return ClassicalJoint(np.array([[same, diff], [diff, same]]))


def embed_classical(p: ClassicalJoint) -> BipartiteState:
    """Diagonal bipartite state with <ab| rho |ab> = p(a, b)."""
    rho = np.diag(p.probs.reshape(-1).astype(np.complex128))
    return BipartiteState(p.rows, p.cols, rho)


def measure_computational(state: BipartiteState) -> ClassicalJoint:
    """Joint outcome table of computational-basis measurements on both sides."""
    diag = np.real(np.diagonal(state.rho)).copy()
    diag = np.clip(diag, 0.0, None)
    total = diag.sum()
    if total <= 0.0:
        raise RangeError("state has no diagonal weight to measure")
    return ClassicalJoint((diag / total).reshape(state.d_a, state.d_b))


def tensor_bipartite(r: BipartiteState, s: BipartiteState) -> BipartiteState:
    """Tensor two bipartite states, regrouping as (A A') vs (B B')."""
    big = np.kron(r.rho, s.rho)
    a1, b1, a2, b2 = r.d_a, r.d_b, s.d_a, s.d_b
    m8 = big.reshape(a1, b1, a2, b2, a1, b1, a2, b2)
    out = m8.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(a1 * a2 * b1 * b2, -1)
    return BipartiteState(a1 * a2, b1 * b2, out)


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def random_density(d_a: int, d_b: int, rank: int | None = None, seed: int = 0) -> BipartiteState:
    """Seeded random density operator GG^dag / tr(GG^dag) with G Ginibre."""
    n = d_a * d_b
    if rank is None:
        rank = n
    if not 1 <= rank <= n:
        raise RangeError(f"rank must lie in [1, {n}], got {rank!r}")
    g = _ginibre(np.random.default_rng(seed), n, rank)
    rho = g @ g.conj().T
    rho /= rho.trace()
    return BipartiteState(d_a, d_b, linalg.hermitian_part(rho))


def random_pure(d_a: int, d_b: int, seed: int = 0) -> BipartiteState:
    """Seeded Haar-random pure state."""
    v = _ginibre(np.random.default_rng(seed), d_a * d_b, 1)[:, 0]
    v /= np.linalg.norm(v)
    return BipartiteState(d_a, d_b, np.outer(v, v.conj()))


def random_product(d_a: int, d_b: int, seed: int = 0) -> BipartiteState:
    """Seeded product of two independent full-rank single-side densities."""
    rng = np.random.default_rng(seed)
    parts = []
    for d in (d_a, d_b):
        g = _ginibre(rng, d, d)
        m = g @ g.conj().T
        m /= m.trace()
        parts.append(linalg.hermitian_part(m))
    return BipartiteState(d_a, d_b, np.kron(parts[0], parts[1]))


def random_channel(
    d_in: int, d_out: int, kraus_rank: int, seed: int = 0, side: str = "A"
) -> LocalChannel:
    """Seeded random channel from QR of a (d_out * kraus_rank) x d_in Ginibre matrix.

    The orthonormal columns slice into kraus_rank blocks of d_out rows, so
    sum_k K_k^dag K_k = I exactly up to QR roundoff.
    """
    if d_in < 1 or d_out < 1 or kraus_rank < 1:
        raise RangeError("d_in, d_out, kraus_rank must be positive")
    if d_out * kraus_rank < d_in:
        raise RangeError(
            f"d_out * kraus_rank = {d_out * kraus_rank} cannot carry d_in = {d_in}"
        )
    g = _ginibre(np.random.default_rng(seed), d_out * kraus_rank, d_in)
    q, _ = np.linalg.qr(g)
    blocks = tuple(q[k * d_out : (k + 1) * d_out, :] for k in range(kraus_rank))
    return LocalChannel(side=side, kraus=blocks)


def apply_local(state: BipartiteState, channel: LocalChannel) -> BipartiteState:
    """Push a state through a channel on one side; output is symmetrized."""
    d_in = state.d_a if channel.side == "A" else state.d_b
    if channel.d_in != d_in:
        raise DimensionMismatchError(
            f"channel expects d_in = {channel.d_in}, state has d_{channel.side.lower()} = {d_in}"
        )
    if channel.side == "A":
        ops = [np.kron(k, np.eye(state.d_b)) for k in channel.kraus]
        d_a, d_b = channel.d_out, state.d_b
    else:
        ops = [np.kron(np.eye(state.d_a), k) for k in channel.kraus]
        d_a, d_b = state.d_a, channel.d_out
    out = sum(op @ state.rho @ op.conj().T for op in ops)
    return BipartiteState(d_a, d_b, linalg.hermitian_part(out))
