import numpy as np
import pytest

import maxcorr as mc
from maxcorr import entanglement
from maxcorr.defaults import RANK_TOL
from maxcorr.errors import (
    DimensionMismatchError,
    InvalidDecompositionError,
    RangeError,
)


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


def test_search_never_beats_certified_lower_bound():
    for eps in (0.2, 0.4, 0.6):
        st = mc.isotropic(eps)
        dec = mc.decomposition_search(st, k=4, restarts=2, iters=120, seed=1)
        bound = mc.mu_ent_upper(dec)
        assert bound >= 1.0 - 1.5 * eps - 1e-6
        assert bound <= mc.mu_schmidt(st).mu + 1e-10


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


def test_quasi_convexity_of_the_certified_bound():
    states = [product_mixture(21), mc.isotropic(0.5), mc.random_density(2, 2, seed=5)]
    weights = [0.3, 0.4, 0.3]
    rep = mc.quasi_convexity_check(states, weights, k=4, restarts=1, iters=80, seed=2)
    assert rep.ok
    assert rep.merged_bound <= max(rep.individual_bounds) + 1e-8
    assert rep.merged.residual() < 1e-8


def test_quasi_convexity_input_checks():
    with pytest.raises(RangeError):
        mc.quasi_convexity_check([], [])
    with pytest.raises(DimensionMismatchError):
        mc.quasi_convexity_check(
            [mc.isotropic(0.5), mc.random_density(2, 3, seed=0)], [0.5, 0.5]
        )
    with pytest.raises(RangeError):
        mc.quasi_convexity_check([mc.isotropic(0.5)], [0.9])


def test_search_trajectory_is_pinned():
    """Bounds the seeded search certified with the per-component implementation.

    A kernel change that moves the search path by even one accept decision
    shows up here. On the 3x3 target the trivial decomposition wins, so the
    restart's own bound is pinned as well.
    """
    st = mc.random_density(2, 2, seed=1)
    dec = mc.decomposition_search(st, k=8, restarts=1, iters=400, seed=0)
    assert abs(mc.mu_ent_upper(dec) - 0.6659579660490843) < 1e-12
    st = mc.random_density(3, 3, seed=0)
    dec = mc.decomposition_search(st, k=8, restarts=1, iters=200, seed=0)
    assert abs(mc.mu_ent_upper(dec) - 0.45925460155704856) < 1e-12
    objective = entanglement._PovmObjective(st, 8, RANK_TOL)
    restart = entanglement._search_once(objective, 200, np.random.default_rng(0))
    assert abs(mc.mu_ent_upper(restart) - 0.5844134345406811) < 1e-12


def test_evaluate_drops_components_at_or_below_the_weight_floor():
    st = mc.random_density(2, 3, seed=8)
    rng = np.random.default_rng(4)
    full = [entanglement._random_block(rng, 6) for _ in range(3)]
    blocks = [full[0], np.zeros((6, 6), dtype=complex), full[1], 1e-9 * full[2], full[2]]
    objective = entanglement._PovmObjective(st, len(blocks), RANK_TOL)
    weights, comps, mus = objective.evaluate(blocks)
    assert weights.shape == (3,) and comps.shape == (3, 6, 6) and mus.shape == (3,)
    assert np.min(weights) > entanglement._WEIGHT_FLOOR
    assert abs(weights.sum() - 1.0) < 1e-10
    for c, mu in zip(comps, mus):
        assert abs(mu - mc.mu_schmidt(mc.BipartiteState(2, 3, c)).mu) < 1e-9


def test_worst_component_maps_to_its_block_past_a_dropped_one():
    st = mc.random_density(2, 2, seed=3)
    rng = np.random.default_rng(2)
    full = [entanglement._random_block(rng, 4) for _ in range(4)]
    blocks = full[:1] + [np.zeros((4, 4), dtype=complex)] + full[1:]
    objective = entanglement._PovmObjective(st, len(blocks), RANK_TOL)
    weights, comps, mus, kept = objective.evaluate(blocks, kept=True)
    assert kept.tolist() == [0, 2, 3, 4]
    # The zero block adds nothing to S, so the other blocks give the same components in order.
    dense = entanglement._PovmObjective(st, len(full), RANK_TOL).evaluate(full)
    assert np.array_equal(mus, dense[2]) and np.array_equal(comps, dense[1])
    # _search_once perturbs and kicks blocks[kept[argmax(mus)]]; argmax(mus) alone points one block early here.
    worst = int(kept[np.argmax(mus)])
    assert blocks[worst] is full[int(np.argmax(dense[2]))]
    assert worst != int(np.argmax(mus))


class DroppingObjective:
    """Stands in for _PovmObjective: block 0 is always dropped, block 1 has the worst component."""

    def __init__(self, target, k):
        self.target, self.k = target, k
        self.start, self.touched = None, []

    def evaluate(self, blocks, kept=False):
        if self.start is None:
            self.start = blocks
        self.touched += [i for i, (a, b) in enumerate(zip(blocks, self.start)) if a is not b]
        idx = np.arange(1, self.k)
        return None, None, np.where(idx == 1, 0.9, 0.1), idx

    def decomposition(self, blocks):
        return None


def test_search_perturbs_the_worst_kept_block():
    # Every trial ties the current value and is rejected, so each one differs
    # from the start in the block it perturbed: half the time the worst, else a random one.
    objective = DroppingObjective(mc.random_density(2, 2, seed=0), 4)
    entanglement._search_once(objective, 200, np.random.default_rng(0))
    counts = np.bincount(objective.touched, minlength=4)
    assert counts[1] > 3 * counts[0]
