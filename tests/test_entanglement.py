from dataclasses import fields

import numpy as np
import pytest

import maxcorr as mc
from maxcorr import entanglement
from maxcorr.defaults import PSD_TOL
from maxcorr.errors import (
    InvalidDecompositionError,
    RangeError,
)
from test_correlation import haar_unitary


def product_mixture(seed, terms=4):
    """Seeded separable two-qubit state: a known mixture of pure products."""
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(terms))
    rho = np.zeros((4, 4), dtype=complex)
    for w in weights:
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        v = np.kron(a, b)
        rho += w * np.outer(v, v.conj())
    return mc.BipartiteState(2, 2, (rho + rho.conj().T) / 2.0)


def noisy_bell(delta):
    """(1 - delta) |Phi+><Phi+| + delta I/4 for delta in [0, 4/3], through public API.

    Past delta = 1 the family leaves isotropic's range; there it is the Bell
    twirl of a mixture of I/4 and (I - |Phi+><Phi+|)/3 with Bell fidelity
    1 - 3 delta / 4.
    """
    if delta <= 1.0:
        return mc.isotropic(delta)
    t = 3.0 * (delta - 1.0)
    rho = (1.0 - t) * np.eye(4) / 4.0 + t * (np.eye(4) - mc.bell_projector()) / 3.0
    return mc.twirl_exact(mc.BipartiteState(2, 2, rho))


def test_trivial_decomposition_bound_is_mu():
    st = mc.isotropic(0.4)
    dec = mc.Decomposition(target=st, weights=np.array([1.0]), components=(st,))
    assert abs(mc.mu_ent_upper(dec) - 0.6) < 1e-10


def test_decomposition_weight_checks():
    st = mc.isotropic(0.5)
    with pytest.raises(InvalidDecompositionError):
        mc.Decomposition(target=st, weights=np.array([0.7, 0.7]), components=(st, st))
    with pytest.raises(InvalidDecompositionError):
        mc.Decomposition(target=st, weights=np.array([]), components=())


@pytest.mark.parametrize("weights", [[np.nan], [0.5, np.nan]])
def test_decomposition_rejects_nonfinite_weights(weights):
    # NaN passes every < and > weight check, and its NaN residual passes mu_ent_upper's check,
    # so a Bell target would be certified at 0 by product components.
    comps = tuple(mc.random_product(2, 2, seed=s) for s in range(len(weights)))
    with pytest.raises(InvalidDecompositionError):
        mc.Decomposition(target=mc.isotropic(0.0), weights=np.array(weights), components=comps)


def test_mu_ent_upper_rejects_wrong_mixture():
    # mixture rebuilds a different state than the declared target
    dec = mc.Decomposition(
        target=mc.isotropic(0.2),
        weights=np.array([1.0]),
        components=(mc.isotropic(0.9),),
    )
    with pytest.raises(InvalidDecompositionError):
        mc.mu_ent_upper(dec)


def test_bell_fidelity_on_family():
    for eps in (0.0, 0.3, 0.6, 1.0):
        f = mc.bell_fidelity(mc.isotropic(eps))
        assert abs(f - (1.0 - 0.75 * eps)) < 1e-12


def test_fidelity_lower_bound_on_family():
    for eps in (0.0, 0.2, 0.5, 0.7, 1.0):
        lb = mc.fidelity_mu_lower_bound(mc.isotropic(eps))
        assert abs(lb - max(0.0, 1.0 - 1.5 * eps)) < 1e-12


def test_fidelity_lower_bound_never_exceeds_mu():
    for seed in range(25):
        st = mc.random_density(2, 2, seed=seed)
        lb = mc.fidelity_mu_lower_bound(st)
        assert lb <= mc.mu_schmidt(st).mu + 1e-8


def test_clifford_set_is_a_group_of_24():
    group = mc.single_qubit_cliffords()
    assert len(group) == 24

    def key(u):
        for val in u.reshape(-1):
            if abs(val) > 0.4:
                phased = u / (val / abs(val))
                break
        rounded = np.round(phased, 9) + 0.0
        return rounded.tobytes()

    keys = {key(u) for u in group}
    assert len(keys) == 24
    # closure under multiplication
    for a in group[:6]:
        for b in group[:6]:
            assert key(a @ b) in keys
    assert any(np.max(np.abs(u - np.eye(2))) < 1e-12 for u in group)


def _same_up_to_phase(u, v):
    """|tr(U^dag V)| = 2 within 1e-12: the 2x2 unitaries U and V differ by a phase alone."""
    return abs(abs(np.trace(u.conj().T @ v)) - 2.0) <= 1e-12


def _hs_closure():
    """Reference group: breadth-first closure of H and S, keeping one element per phase class."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    s = np.diag([1.0, 1.0j])
    found = [np.eye(2, dtype=complex)]
    for m in found:
        for nm in (h @ m, s @ m):
            if not any(_same_up_to_phase(f, nm) for f in found):
                found.append(nm)
    return found


def test_written_down_cliffords_are_the_hs_closure():
    group = mc.single_qubit_cliffords()
    assert all(u.dtype == np.complex128 for u in group)
    assert all(np.max(np.abs(u.conj().T @ u - np.eye(2))) <= 1e-15 for u in group)

    def matches(u, pool):
        return [i for i, v in enumerate(pool) if _same_up_to_phase(v, u)]

    closure = _hs_closure()
    assert len(closure) == 24
    assert sorted(i for u in group for i in matches(u, closure)) == list(range(24))
    assert sorted(i for u in closure for i in matches(u, group)) == list(range(24))
    assert all(len(matches(a @ b, group)) == 1 for a in group for b in group)


def test_twirl_agrees_with_clifford_average():
    for seed in range(10):
        st = mc.random_density(2, 2, seed=200 + seed)
        exact = mc.twirl_exact(st)
        avg = mc.twirl_clifford_average(st)
        assert np.max(np.abs(exact.rho - avg.rho)) < 1e-10


def test_twirl_fixes_the_isotropic_family():
    for eps in (0.0, 0.4, 0.8):
        st = mc.isotropic(eps)
        assert np.max(np.abs(mc.twirl_exact(st).rho - st.rho)) < 1e-12


def test_twirl_preserves_bell_fidelity():
    for seed in range(6):
        st = mc.random_density(2, 2, seed=seed)
        assert abs(mc.bell_fidelity(st) - mc.bell_fidelity(mc.twirl_exact(st))) < 1e-12


@pytest.mark.parametrize("eps", [2.0 / 3.0, 0.75, 0.9, 1.0])
def test_separable_construction_on_family(eps):
    dec = mc.separable_iso_decomposition(eps)
    assert dec.residual() < 1e-10
    assert mc.mu_ent_upper(dec) < 1e-8
    for c in dec.components:
        assert mc.validate(c).ok


@pytest.mark.parametrize("eps", [0.0, 0.5, 2.0 / 3.0 - 1e-6, 1.2])
def test_separable_construction_domain(eps):
    with pytest.raises(RangeError):
        mc.separable_iso_decomposition(eps)


def test_lambda_bounds_brackets():
    b = mc.lambda_bounds(0.4)
    assert abs(b.lower - 0.4) < 1e-12
    assert abs(b.upper - 0.6) < 1e-12
    assert not b.separable
    b = mc.lambda_bounds(0.8)
    assert b.lower == 0.0 and b.upper == 0.0 and b.separable
    with pytest.raises(RangeError):
        mc.lambda_bounds(1.5)


def test_ppt_family_eigenvalue():
    for eps in (0.0, 0.25, 0.5, 2.0 / 3.0, 0.9):
        rep = mc.ppt_check(mc.isotropic(eps))
        assert abs(rep.min_eigenvalue - (3.0 * eps - 2.0) / 4.0) < 1e-12
        assert rep.is_ppt == (eps >= 2.0 / 3.0 - 1e-9)


def test_ppt_verdict_cuts_at_the_psd_tolerance():
    """isotropic(eps) has partial-transpose minimum (3 eps - 2)/4; the verdict flips at -PSD_TOL."""
    for factor, want in ((-0.5, True), (-2.0, False)):
        rep = mc.ppt_check(mc.isotropic((2.0 + 4.0 * factor * PSD_TOL) / 3.0))
        assert abs(rep.min_eigenvalue - factor * PSD_TOL) < 1e-12
        assert rep.is_ppt is want


def test_ppt_accepts_separables():
    for seed in range(6):
        rep = mc.ppt_check(product_mixture(seed))
        assert rep.is_ppt


def test_search_resolves_separable_mixtures_without_restarts():
    """The structured candidates alone should nail separable two-qubit states."""
    targets = [product_mixture(300 + seed) for seed in range(6)]
    targets += [noisy_bell(delta) for delta in (2.0 / 3.0, 0.9, 1.05, 4.0 / 3.0)]
    for seed, st in enumerate(targets):
        dec = mc.decomposition_search(st, k=8, restarts=0, seed=seed)
        assert mc.mu_ent_upper(dec) < 1e-8
        assert dec.residual() < 1e-8


def test_product_ensemble_rejects_entangled_pure_states():
    for seed in range(20):
        assert entanglement._product_ensemble_candidate(mc.random_pure(2, 2, seed=seed)) is None


@pytest.mark.parametrize(
    "target",
    [product_mixture(400 + seed, terms) for terms in range(1, 5) for seed in range(3)]
    + [mc.isotropic(eps) for eps in (2.0 / 3.0, 0.7, 0.8, 1.0)],
)
def test_product_ensemble_returns_at_most_four_pure_products(target):
    dec = entanglement._product_ensemble_candidate(target)
    assert dec is not None and len(dec.components) <= 4
    for c in dec.components:
        assert mc.validate(c).ok and mc.validate(c).marginal_ranks == (1, 1)
        assert mc.mu_schmidt(c).mu <= 1e-12
    assert np.all(dec.weights > entanglement._WEIGHT_FLOOR)
    assert abs(dec.weights.sum() - 1.0) <= 1e-12
    assert dec.residual() <= 1e-10


def test_search_stops_restarting_at_the_floor(monkeypatch):
    """A 2x3 separable mixture has mu > 0, so one restart runs; it returns the
    target's own product decomposition, bound ~0, and no further restart starts."""
    rng = np.random.default_rng(5)
    comps = []
    for _ in range(3):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
        comps.append(mc.BipartiteState(2, 3, np.outer(v, v.conj())))
    weights = np.array([0.5, 0.3, 0.2])
    st = mc.BipartiteState(2, 3, sum(w * c.rho for w, c in zip(weights, comps)))
    own = entanglement.Decomposition(target=st, weights=weights, components=tuple(comps))
    calls = []

    def search_once(objective, iters, rng):
        calls.append(iters)
        return own

    monkeypatch.setattr(entanglement, "_search_once", search_once)
    assert mc.mu_schmidt(st).mu > 1e-8
    dec = mc.decomposition_search(st, k=4, restarts=5, iters=10, seed=0)
    assert len(calls) == 1
    assert dec is own and mc.mu_ent_upper(dec) <= 1e-8
    with pytest.raises(RangeError):
        mc.random_povm_decomposition(st, k=0)


def test_search_stops_restarting_once_the_bracket_closes(monkeypatch):
    """On |Phi+> the trivial decomposition meets the Bell fidelity bound, so no restart starts."""
    calls = []
    monkeypatch.setattr(entanglement, "_search_once", lambda *args: calls.append(args))
    b = mc.bracket(mc.isotropic(0.0), restarts=8)
    assert calls == []
    assert len(b.decomposition.components) == 1
    assert b.lower <= b.upper <= b.lower + 1e-9


def rotated_isotropic(eps, seed):
    """(U (x) V) isotropic(eps) (U (x) V)^dag for seeded Haar U and V: the same bracket, not recognised."""
    rng = np.random.default_rng(seed)
    u = np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
    return mc.BipartiteState(2, 2, u @ mc.isotropic(eps).rho @ u.conj().T)


@pytest.mark.parametrize("eps", [0.05, 0.3, 0.5, 0.6])
def test_search_starts_no_restart_on_a_noisy_bell_target(monkeypatch, eps):
    """The trivial certificate stands on a recognised noisy Bell target; a rotated copy still searches."""
    calls = []
    search_once = entanglement._search_once
    monkeypatch.setattr(entanglement, "_search_once", lambda *args: calls.append(args) or search_once(*args))
    st = mc.isotropic(eps)
    b = mc.bracket(st, restarts=8)
    assert calls == []
    assert len(b.decomposition.components) == 1
    assert b.upper == mc.mu_schmidt(st).mu
    mc.bracket(rotated_isotropic(eps, seed=3), k=4, restarts=8, iters=4)
    assert len(calls) >= 1


def test_search_never_beats_certified_lower_bound():
    """mu_ent is local-unitary invariant, so a rotated copy, on which the search runs, keeps the family bracket."""
    for seed, eps in enumerate((0.2, 0.4, 0.6)):
        rotated = rotated_isotropic(eps, seed=seed)
        assert entanglement._isotropic_noise(rotated) is None
        for st in (mc.isotropic(eps), rotated):
            dec = mc.decomposition_search(st, k=4, restarts=2, iters=120, seed=1)
            bound = mc.mu_ent_upper(dec)
            assert bound >= 1.0 - 1.5 * eps - 1e-6
            assert bound <= mc.mu_schmidt(st).mu + 1e-10


BRACKET_TARGETS = {
    "random-2x2": lambda: mc.random_density(2, 2, seed=11),
    "random-2x3": lambda: mc.random_density(2, 3, seed=12),
    "random-3x3": lambda: mc.random_density(3, 3, seed=13),
    "isotropic-0.7": lambda: mc.isotropic(0.7),  # certified by the product ensemble
    "pure-2x2": lambda: mc.random_pure(2, 2, seed=14),
}


@pytest.mark.parametrize("name", sorted(BRACKET_TARGETS))
def test_bracket_holds_the_search_certificate_and_its_scores(name):
    st = BRACKET_TARGETS[name]()
    budget = {"k": 4, "restarts": 1, "iters": 40, "seed": 2}
    b = mc.bracket(st, **budget)
    dec = mc.decomposition_search(st, **budget)
    assert np.array_equal(b.decomposition.weights, dec.weights)
    assert len(b.decomposition.components) == len(dec.components)
    for got, want in zip(b.decomposition.components, dec.components):
        assert np.array_equal(got.rho, want.rho)
    assert b.upper == mc.mu_ent_upper(b.decomposition)
    assert np.array_equal(b.component_mu, entanglement._component_mus(b.decomposition))
    assert b.lower == (mc.fidelity_mu_lower_bound(st) if (st.d_a, st.d_b) == (2, 2) else 0.0)


def test_bracket_record_has_four_fields():
    assert [f.name for f in fields(mc.Bracket)] == ["lower", "upper", "decomposition", "component_mu"]


@pytest.mark.parametrize("budget", [{"k": 0}, {"restarts": -1}, {"iters": -1}], ids=["k", "restarts", "iters"])
def test_bracket_budget_domain(budget):
    with pytest.raises(RangeError):
        mc.bracket(mc.isotropic(0.5), **budget)


def test_search_output_is_always_a_valid_certificate():
    for seed in range(4):
        st = mc.random_density(2, 2, seed=400 + seed)
        dec = mc.decomposition_search(st, k=4, restarts=1, iters=60, seed=seed)
        assert dec.residual() < 1e-8
        for c in dec.components:
            assert mc.validate(c).ok


def test_search_budget_domain():
    st = mc.isotropic(0.5)
    with pytest.raises(RangeError):
        mc.decomposition_search(st, k=0)
    with pytest.raises(RangeError):
        mc.decomposition_search(st, restarts=-1)


def test_random_povm_decomposition_reproducible_and_valid():
    st = mc.random_density(2, 3, seed=17)
    a = mc.random_povm_decomposition(st, k=5, seed=3)
    b = mc.random_povm_decomposition(st, k=5, seed=3)
    assert np.array_equal(a.weights, b.weights)
    assert a.residual() < 1e-10
    assert len(a.components) <= 5
    assert mc.mu_ent_upper(a) <= 1.0 + 1e-12


def test_search_trajectory_is_pinned():
    """Bounds the seeded search certified with two proposals per step.

    A kernel change that moves the search path by even one accept decision
    shows up here. On the 3x3 target the trivial decomposition wins, so the
    restart's own bound is pinned as well.
    """
    st = mc.random_density(2, 2, seed=1)
    dec = mc.decomposition_search(st, k=8, restarts=1, iters=400, seed=0)
    assert abs(mc.mu_ent_upper(dec) - 0.6510994231609218) < 1e-12
    st = mc.random_density(3, 3, seed=0)
    dec = mc.decomposition_search(st, k=8, restarts=1, iters=200, seed=0)
    assert abs(mc.mu_ent_upper(dec) - 0.45925460155704856) < 1e-12
    objective = entanglement._PovmObjective(st, 8)
    restart = entanglement._search_once(objective, 200, np.random.default_rng(0))
    assert abs(mc.mu_ent_upper(restart) - 0.5888505619248653) < 1e-12


@pytest.mark.parametrize("scale", [0.0, 1e-9])
def test_evaluate_rejects_a_block_at_or_below_the_weight_floor(scale):
    st = mc.random_density(2, 3, seed=8)
    rng = np.random.default_rng(4)
    blocks = entanglement._random_blocks(rng, 6, 3)
    blocks[1] *= scale
    objective = entanglement._PovmObjective(st, 3)
    with pytest.raises(InvalidDecompositionError, match="at or below"):
        objective.evaluate(blocks[None])


@pytest.mark.parametrize("n", range(1, 17))
def test_one_draw_of_k_blocks_reads_the_stream_of_k_single_block_draws(n):
    """The search's start draws k blocks at once and each perturbation one: both read one stream
    layout, block by block with its real parts first, so either gives the same bits."""
    for k in range(1, 9):
        together = entanglement._random_blocks(np.random.default_rng(k), n, k)
        rng = np.random.default_rng(k)
        single = [entanglement._random_blocks(rng, n, 1)[0] for _ in range(k)]
        assert together.shape == (k, n, n)
        assert together.tobytes() == np.stack(single).tobytes()
        z = np.random.default_rng(k).standard_normal((k, 2, n, n)) * (1.0 / np.sqrt(n))
        assert np.array_equal(together, z[:, 0] + 1j * z[:, 1])


@pytest.mark.parametrize(
    "d_a, d_b, rank", [(2, 2, None), (2, 3, None), (3, 2, None), (3, 3, None), (4, 4, None), (3, 3, 4)]
)
def test_stacked_evaluate_gives_each_trial_its_own_bits(d_a, d_b, rank):
    st = mc.random_density(d_a, d_b, rank=rank, seed=10 * d_a + d_b)
    objective = entanglement._PovmObjective(st, 5)
    rng = np.random.default_rng(6)
    trials = np.stack([entanglement._random_blocks(rng, st.dim, 5) for _ in range(3)])
    stacked = objective.evaluate(trials)
    assert len(stacked) == 3
    for j, got in enumerate(stacked):
        alone = objective.evaluate(trials[j : j + 1])
        assert len(alone) == 1
        for a, b in zip(got, alone[0]):
            assert a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("k", [1, 8])
@pytest.mark.parametrize("d_a, d_b", [(d_a, d_b) for d_a in range(1, 5) for d_b in range(1, 5)])
def test_evaluate_scores_each_component_with_mu_schmidts_bits(d_a, d_b, k):
    """evaluate gives each component mu_schmidt's mu exactly, so a search score is the mu it certifies."""
    st = mc.random_density(d_a, d_b, seed=10 * d_a + d_b)
    objective = entanglement._PovmObjective(st, k)
    rng = np.random.default_rng(k)
    trials = np.stack([entanglement._random_blocks(rng, st.dim, k) for _ in range(2)])
    results = objective.evaluate(trials)
    assert [len(r[2]) for r in results] == [k, k]
    for _, comps, mus in results:
        assert mus.tolist() == [mc.mu_schmidt(mc.BipartiteState(d_a, d_b, c)).mu for c in comps]


class WorstBlockObjective:
    """Stands in for _PovmObjective: block 1 always has the worst component."""

    def __init__(self, target, k):
        self.target, self.k = target, k
        self.start, self.touched = None, []

    def evaluate(self, trials):
        if self.start is None:
            self.start = trials[0].copy()
        out = []
        for blocks in trials:
            self.touched += [i for i, (a, b) in enumerate(zip(blocks, self.start)) if not np.array_equal(a, b)]
            out.append((None, None, np.where(np.arange(self.k) == 1, 0.9, 0.1)))
        return out

    def decomposition(self, result):
        return None


def test_search_perturbs_the_worst_block():
    # Every proposal ties the current value and is rejected, so each one differs
    # from the start in the block it perturbed: half the time the worst, else a random one.
    objective = WorstBlockObjective(mc.random_density(2, 2, seed=0), 4)
    entanglement._search_once(objective, 200, np.random.default_rng(0))
    counts = np.bincount(objective.touched, minlength=4)
    assert counts[1] > 3 * counts[0]


class CountingObjective(entanglement._PovmObjective):
    """_PovmObjective that records how many trials each evaluate call scored."""

    def __init__(self, target, k):
        super().__init__(target, k)
        self.sizes = []

    def evaluate(self, trials):
        self.sizes.append(len(trials))
        return super().evaluate(trials)


@pytest.mark.parametrize("iters", [1, 2, 5, 6])
def test_search_evaluates_exactly_iters_proposals(iters):
    # The first call scores the starting blocks; an odd budget gives the last step one proposal.
    # The certificate is built from an accepted result, so no call rescores the final blocks.
    objective = CountingObjective(mc.random_density(2, 2, seed=3), 4)
    entanglement._search_once(objective, iters, np.random.default_rng(0))
    assert objective.sizes[0] == 1
    assert sum(objective.sizes[1:]) == iters
    assert len(objective.sizes) == 1 + -(-iters // 2)


@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("d_a, d_b", [(d_a, d_b) for d_a in range(1, 5) for d_b in range(1, 5)])
def test_random_povm_decomposition_is_the_zero_step_search(d_a, d_b, k):
    st = mc.random_density(d_a, d_b, seed=10 * d_a + d_b)
    got = mc.random_povm_decomposition(st, k=k, seed=k)
    want = entanglement._search_once(entanglement._PovmObjective(st, k), 0, np.random.default_rng(k))
    assert np.array_equal(got.weights, want.weights)
    assert len(got.components) == len(want.components)
    for a, b in zip(got.components, want.components):
        assert np.array_equal(a.rho, b.rho)


def test_search_bounds_do_not_regress():
    """Mean certified bound over ten random two-qubit states at the default budget.

    0.6922213744852401 is the mean the search certified with one proposal per
    iteration, each scored by its own evaluate; two proposals per step must do
    no worse on average.
    """
    bounds = [
        mc.mu_ent_upper(mc.decomposition_search(mc.random_density(2, 2, seed=s), k=8, restarts=1, seed=s))
        for s in range(10)
    ]
    assert np.mean(bounds) <= 0.6922213744852401
