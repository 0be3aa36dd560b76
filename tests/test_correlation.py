import numpy as np
import pytest

import maxcorr as mc
from maxcorr import correlation, linalg
from maxcorr.defaults import RANK_TOL
from maxcorr.errors import NegativeEigenvalueError, NotHermitianError, RangeError


def haar_unitary(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("eps", [0.0, 0.1, 0.25, 0.5, 0.75, 1.0])
def test_isotropic_family_value(eps):
    rep = mc.mu_schmidt(mc.isotropic(eps))
    assert abs(rep.mu - (1.0 - eps)) < 1e-8
    assert rep.lambda1_deviation < 1e-10
    assert rep.warnings == ()


@pytest.mark.parametrize("eps", [0.0, 0.1, 0.3, 0.5])
def test_binary_symmetric_family_value(eps):
    rep = mc.mu_classical(mc.classical_bsc(eps))
    assert abs(rep.mu - (1.0 - 2.0 * eps)) < 1e-10


def test_classical_two_by_two_frozen_value():
    """Hand-checkable table: mu = |det(normalized)| = 0.10 / sqrt(0.06)."""
    joint = mc.ClassicalJoint(np.array([[0.3, 0.2], [0.1, 0.4]]))
    rep = mc.mu_classical(joint)
    assert abs(rep.mu - 0.4082482904638631) < 1e-12
    assert rep.warnings == ()


def test_classical_embedding_matches_table():
    for eps in (0.05, 0.2, 0.45):
        joint = mc.classical_bsc(eps)
        direct = mc.mu_classical(joint).mu
        embedded = mc.mu_schmidt(mc.embed_classical(joint)).mu
        assert abs(direct - embedded) < 1e-10


def test_classical_support_restriction():
    # a zero row and column must not poison the normalization
    p = np.array([[0.5, 0.0, 0.2], [0.0, 0.0, 0.0], [0.1, 0.0, 0.2]])
    rep = mc.mu_classical(mc.ClassicalJoint(p))
    assert rep.marginal_ranks == (2, 2)
    assert 0.0 <= rep.mu <= 1.0


def test_classical_point_mass_has_no_correlation():
    rep = mc.mu_classical(mc.ClassicalJoint(np.array([[1.0, 0.0], [0.0, 0.0]])))
    assert rep.mu == 0.0


def test_measured_isotropic_matches_classical_formula():
    for eps in (0.1, 0.4, 0.8):
        rep = mc.mu_classical(mc.measure_computational(mc.isotropic(eps)))
        assert abs(rep.mu - (1.0 - eps)) < 1e-12


def test_product_states_have_zero_correlation():
    for seed in range(10):
        st = mc.random_product(2, 3, seed=seed)
        assert mc.mu_schmidt(st).mu < 1e-10


def test_pure_entangled_states_saturate():
    for seed in range(10):
        st = mc.random_pure(2, 2, seed=seed)
        assert mc.mu_schmidt(st).mu > 1.0 - 1e-10


def test_local_unitary_invariance():
    """mu is unchanged by local basis rotations on either side."""
    rng = np.random.default_rng(31)
    st = mc.random_density(3, 2, seed=6)
    base = mc.mu_schmidt(st).mu
    for _ in range(6):
        u = np.kron(haar_unitary(rng, 3), haar_unitary(rng, 2))
        rotated = mc.BipartiteState(3, 2, u @ st.rho @ u.conj().T)
        assert abs(mc.mu_schmidt(rotated).mu - base) < 1e-10


def test_realigned_leading_value_is_one():
    for seed in range(12):
        st = mc.random_density(2, 4, seed=seed)
        rep = mc.mu_schmidt(st)
        assert rep.lambda1_deviation < 1e-10


def test_witness_is_feasible_and_achieves_mu():
    for seed in range(12):
        da, db = [(2, 2), (2, 3), (3, 3), (4, 2)][seed % 4]
        st = mc.random_density(da, db, seed=seed)
        rep = mc.mu_schmidt(st, witness=True)
        w = rep.witness
        assert abs(w.mean_x) < 1e-10
        assert abs(w.mean_y) < 1e-10
        assert abs(w.second_moment_x - 1.0) < 1e-10
        assert abs(w.second_moment_y - 1.0) < 1e-10
        assert abs(w.objective - rep.mu) < 1e-9, f"seed {seed}"


def test_witness_degeneracy_reported_on_bell():
    w = mc.extract_witness(mc.BipartiteState(2, 2, mc.bell_projector()))
    assert w.second_multiplicity == 3
    assert w.hermitian
    assert abs(w.objective - 1.0) < 1e-10


def test_witness_hermitian_on_isotropic():
    w = mc.extract_witness(mc.isotropic(0.4))
    assert w.hermitian
    assert abs(w.objective - 0.6) < 1e-10


def test_witness_undefined_at_zero_correlation():
    with pytest.raises(RangeError):
        mc.extract_witness(mc.random_product(2, 2, seed=1))


def test_variational_oracle_matches_spectral_value():
    for seed in range(8):
        da, db = [(2, 2), (2, 3), (3, 2), (3, 3)][seed % 4]
        st = mc.random_density(da, db, seed=50 + seed)
        mu = mc.mu_schmidt(st).mu
        res = mc.mu_variational(st, restarts=4, seed=seed)
        assert res.value <= mu + 1e-6
        assert res.value >= mu - 1e-4
        # the oracle's pair must itself be feasible
        assert abs(res.witness.mean_x) < 1e-8
        assert abs(res.witness.second_moment_x - 1.0) < 1e-8


def test_variational_on_product_state_returns_zero():
    res = mc.mu_variational(mc.random_product(2, 2, seed=9), restarts=2, seed=0)
    assert res.value < 1e-9
    assert res.converged


def test_variational_rejects_bad_budgets():
    st = mc.isotropic(0.5)
    with pytest.raises(RangeError):
        mc.mu_variational(st, restarts=0)
    with pytest.raises(RangeError):
        mc.mu_variational(st, iters=0)


def test_normalized_operator_of_product_is_sqrt_product():
    st = mc.random_product(2, 2, seed=2)
    a = st.marginal("A")
    b = st.marginal("B")
    from maxcorr.linalg import psd_sqrt

    want = np.kron(psd_sqrt(a), psd_sqrt(b))
    got = mc.normalized_operator(st)
    assert np.max(np.abs(got - want)) < 1e-10


E01 = np.array([[0.0, 1.0], [0.0, 0.0]])


def test_mu_schmidt_rejects_nonhermitian_marginal():
    rho = mc.isotropic(0.3).rho + 1e-6 * np.kron(E01, np.eye(2) / 2.0)
    with pytest.raises(NotHermitianError):
        mc.mu_schmidt(mc.BipartiteState(2, 2, rho))


def test_mu_schmidt_rejects_negative_marginal_eigenvalue():
    rho = np.diag([1.1, 0.0, 0.0, -0.1]).astype(complex)
    with pytest.raises(NegativeEigenvalueError):
        mc.mu_schmidt(mc.BipartiteState(2, 2, rho))


def test_marginal_checks_keep_their_order():
    """A negative eigenvalue on A and a non-hermitian B: mu_schmidt checks both
    sides for hermiticity before positivity, extract_witness finishes A first."""
    rho = np.diag([1.1, 0.0, 0.0, -0.1]) + 1e-6 * np.kron(np.eye(2), E01)
    st = mc.BipartiteState(2, 2, rho)
    with pytest.raises(NotHermitianError):
        mc.mu_schmidt(st)
    with pytest.raises(NegativeEigenvalueError):
        mc.extract_witness(st)


def hermitian_ceiling(st):
    """correlation._hermitian_ceiling on freshly taken marginal spectra."""
    rho_a, rho_b = st.marginal("A"), st.marginal("B")
    eig_a, eig_b = linalg.hermitian_eig(rho_a), linalg.hermitian_eig(rho_b)
    spectra = correlation._Spectra(st, rho_a, eig_a, rho_b, eig_b, RANK_TOL)
    return correlation._hermitian_ceiling(st, spectra, RANK_TOL)


def with_marginal_ratio(st, ratio):
    """st pulled back so that rho_A has spectrum proportional to (1, ..., 1, ratio)."""
    rho_a = st.marginal("A")
    w, v = np.linalg.eigh(rho_a)
    target = np.ones(st.d_a)
    target[-1] = ratio
    m = np.diag(np.sqrt(target / target.sum())) @ (v / np.sqrt(w)) @ v.conj().T
    k = np.kron(m, np.eye(st.d_b))
    rho = k @ st.rho @ k.conj().T
    return mc.BipartiteState(st.d_a, st.d_b, (rho + rho.conj().T) / 2.0)


def gate_panel(d_a, d_b):
    """(state, mixed) over every rank and two seeds, a pure state and two near-cutoff marginals."""
    panel = [
        (mc.random_density(d_a, d_b, rank=r, seed=s), r > 1)
        for r in range(1, d_a * d_b + 1)
        for s in range(2)
    ]
    panel.append((mc.random_pure(d_a, d_b, seed=5), False))
    for ratio in (1e-9, 3e-10):
        panel.append((with_marginal_ratio(mc.random_density(d_a, d_b, seed=7), ratio), False))
    return panel


def witness_fields(p):
    return (p.x.tobytes(), p.y.tobytes(), p.mean_x, p.mean_y, p.second_moment_x,
            p.second_moment_y, p.objective, p.hermitian, p.second_multiplicity)


@pytest.mark.parametrize("d_a", [2, 3, 4])
@pytest.mark.parametrize("d_b", [2, 3, 4])
def test_hermitian_ceiling_gate_is_sound(d_a, d_b, monkeypatch):
    """The refinement never beats the ceiling, so skipping it never changes a witness."""
    refine, ran = correlation._hermitian_refinement, []

    def spy(*args, **kwargs):
        ran.append(refine(*args, **kwargs))
        return ran[-1]

    monkeypatch.setattr(correlation, "_hermitian_refinement", spy)
    checked = 0
    for st, mixed in gate_panel(d_a, d_b):
        ran.clear()
        gated = mc.extract_witness(st)
        skipped = not gated.hermitian and not ran
        with monkeypatch.context() as m:
            m.setattr(correlation, "_CEILING_MARGIN", np.inf)
            forced = mc.extract_witness(st)
        if not ran or ran[-1] is None:
            continue
        ceiling = hermitian_ceiling(st)
        assert ran[-1].objective <= ceiling + 1e-12
        if skipped:
            assert witness_fields(gated) == witness_fields(forced)
        if mixed:
            assert abs(ran[-1].objective - ceiling) < 1e-9
        checked += 1
    assert checked >= d_a * d_b
