import itertools
from pathlib import Path

import numpy as np
import pytest

import maxcorr as mc
from maxcorr import correlation, linalg
from maxcorr.cli import main, read_state_file, write_state_file
from maxcorr.defaults import PSD_TOL, RANK_TOL
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


@pytest.mark.parametrize("d_a,d_b", [(1, 1), (1, 2), (2, 1), (1, 4), (4, 1)])
def test_variational_on_a_side_of_dimension_one_has_no_feasible_pair(d_a, d_b):
    st = mc.random_density(d_a, d_b, seed=1)
    res = mc.mu_variational(st, restarts=2, seed=0)
    assert (res.value, res.converged, res.iterations, res.witness) == (0.0, True, 0, None)
    assert mc.mu_schmidt(st).mu == 0.0


@pytest.mark.parametrize("d_a,d_b", [(d_a, d_b) for d_a in range(1, 5) for d_b in range(1, 5)])
def test_objective_matches_the_kron_form(d_a, d_b):
    rng = np.random.default_rng(10 * d_a + d_b)
    st = mc.random_density(d_a, d_b, seed=d_a * d_b)
    for _ in range(4):
        x = rng.standard_normal((d_a, d_a)) + 1j * rng.standard_normal((d_a, d_a))
        y = rng.standard_normal((d_b, d_b)) + 1j * rng.standard_normal((d_b, d_b))
        want = (st.rho @ np.kron(x, y.conj().T)).trace()
        assert abs(correlation._objective(st, x, y) - want) < 1e-14


def tensordot_objective(st, x, y):
    """The contraction _objective runs, written as np.tensordot over rho's 4-index form."""
    rho4 = st.rho.reshape(st.d_a, st.d_b, st.d_a, st.d_b)
    return complex(np.vdot(y, np.tensordot(rho4, x, axes=([2, 0], [0, 1]))))


@pytest.mark.parametrize("d_a,d_b", [(d_a, d_b) for d_a in range(1, 5) for d_b in range(1, 5)])
def test_objective_is_the_tensordot_contraction_bit_for_bit(d_a, d_b):
    n = d_a * d_b
    rng = np.random.default_rng(n)
    for rank, seed in itertools.product(sorted({1, min(2, n), max(n // 2, 1), n}), range(3)):
        st = mc.random_density(d_a, d_b, rank=rank, seed=seed)
        w = mc.mu_schmidt(st, witness=True).witness
        x = rng.standard_normal((d_a, d_a)) + 1j * rng.standard_normal((d_a, d_a))
        y = rng.standard_normal((d_b, d_b)) + 1j * rng.standard_normal((d_b, d_b))
        for pair in [(x, y)] + ([] if w is None else [(w.x, w.y)]):
            assert correlation._objective(st, *pair) == tensordot_objective(st, *pair)


def test_variational_rejects_bad_budgets():
    st = mc.isotropic(0.5)
    with pytest.raises(RangeError):
        mc.mu_variational(st, restarts=0)


def test_oracle_builds_no_normalized_form(monkeypatch):
    def unused(*args):
        raise AssertionError("the oracle reads only the marginal eigenpairs")

    monkeypatch.setattr(linalg, "normalized_form", unused)
    monkeypatch.setattr(linalg, "realign", unused)
    assert abs(mc.mu_variational(mc.isotropic(0.4), restarts=2).value - 0.6) < 1e-9


ORACLE_DIMS = [(d_a, d_b) for d_a in range(1, 5) for d_b in range(1, 5)]


@pytest.mark.parametrize("d_a,d_b", ORACLE_DIMS)
def test_spectra_match_the_reference_helpers_bit_for_bit(d_a, d_b):
    """_Spectra reads its marginals, eigenpairs and realigned normalized form off one unchecked view of rho;
    each equals the checked helpers' result exactly, on exactly hermitian states and on one off by rounding."""
    n = d_a * d_b
    states = [mc.random_density(d_a, d_b, rank=r, seed=r) for r in range(1, n + 1)]
    states += [mc.random_pure(d_a, d_b, seed=1), mc.random_product(d_a, d_b, seed=1)]
    g = np.random.default_rng(n).standard_normal((2, n, n))
    states.append(mc.BipartiteState(d_a, d_b, states[-1].rho + 1e-13 * (g[0] + 1j * g[1])))
    for st in states:
        sp = correlation._Spectra(st)
        for side, m, (w, v) in (("A", sp.rho_a, sp.eig_a), ("B", sp.rho_b, sp.eig_b)):
            assert np.array_equal(m, st.marginal(side))
            w_ref, v_ref = np.linalg.eigh(linalg.hermitian_part(m))
            assert np.array_equal(w, w_ref[::-1]) and np.array_equal(v, v_ref[:, ::-1])
        _, inv_a, inv_b, realigned = sp.normalized
        want = linalg.realign(linalg.normalized_form(st.rho, inv_a, inv_b, d_a, d_b), d_a, d_b)
        assert np.array_equal(realigned, want)


@pytest.mark.parametrize("d_a,d_b", ORACLE_DIMS)
def test_folded_maps_are_contraction_pinv_and_centering(d_a, d_b):
    """to_x and to_y equal the half-steps written out: contract, pull back, center;
    the weights give the marginal-weighted norms."""
    rng = np.random.default_rng(10 * d_a + d_b)
    for rank in range(1, d_a * d_b + 1):
        st = mc.random_density(d_a, d_b, rank=rank, seed=rank)
        rho4 = st.rho.reshape(d_a, d_b, d_a, d_b)
        rho_a, rho_b = st.marginal("A"), st.marginal("B")
        to_x, weight_a, to_y, weight_b = correlation._folded_maps(st, correlation._Spectra(st))
        assert to_x.shape == (d_a * d_a, d_b * d_b) and to_y.shape == (d_b * d_b, d_a * d_a)
        pinv_a = np.linalg.pinv(rho_a, rcond=RANK_TOL, hermitian=True)
        pinv_b = np.linalg.pinv(rho_b, rcond=RANK_TOL, hermitian=True)
        y = rng.standard_normal((d_b, d_b)) + 1j * rng.standard_normal((d_b, d_b))
        x = rng.standard_normal((d_a, d_a)) + 1j * rng.standard_normal((d_a, d_a))
        raw_x = pinv_a @ np.einsum("ikmj,kj->im", rho4, y.conj()).conj().T
        raw_y = pinv_b @ np.einsum("ik,kjim->jm", x, rho4)
        want_x = raw_x - np.trace(rho_a @ raw_x) * np.eye(d_a)
        want_y = raw_y - np.trace(rho_b @ raw_y) * np.eye(d_b)
        for got, want in ((to_x @ y.reshape(-1), want_x), (to_y @ x.reshape(-1), want_y)):
            assert np.max(np.abs(got - want.reshape(-1))) < 1e-13 * max(1.0, np.max(np.abs(want)))
        for weight, rho_m, z in ((weight_a, rho_a, x), (weight_b, rho_b, y)):
            want = np.trace(rho_m @ z @ z.conj().T).real
            assert abs(np.linalg.norm(weight @ z.reshape(-1)) ** 2 - want) < 1e-13 * max(1.0, want)


# mu_variational(state, restarts=2, seed=i) on the i-th panel state, as
# recorded when each half-step was a contraction followed by a pull-back and
# a centering: (family, d_a, d_b, rank or noise, value, iterations, converged).
# Each state is drawn with seed 100 + i.
ORACLE_PANEL = [
    ("random", 2, 2, 1, 1.0000000000000002, 2, True),
    ("random", 2, 2, 4, 0.7708421591698211, 17, True),
    ("random", 2, 3, 2, 0.9941144622121187, 181, True),
    ("random", 2, 3, 6, 0.6659983203526216, 23, True),
    ("random", 3, 2, 3, 0.8596949676906942, 22, True),
    ("random", 3, 3, 2, 0.9999999999991832, 32, True),
    ("random", 3, 3, 9, 0.5821535328477198, 21, True),
    ("random", 2, 4, 8, 0.5968568892973241, 57, True),
    ("random", 4, 2, 5, 0.7458622452670871, 24, True),
    ("random", 3, 4, 12, 0.5250252978967836, 47, True),
    ("random", 4, 3, 4, 0.807224827144251, 92, True),
    ("random", 4, 4, 7, 0.6372495531107517, 48, True),
    ("random", 4, 4, 16, 0.45282444872250927, 35, True),
    ("isotropic", 2, 2, 0.3, 0.7, 2, True),
    ("pure", 3, 3, None, 1.0, 2, True),
    ("product", 2, 3, None, 3.86438613920068e-17, 0, True),
]


def oracle_panel_state(i, family, d_a, d_b, extra):
    seed = 100 + i
    if family == "random":
        return mc.random_density(d_a, d_b, rank=extra, seed=seed)
    if family == "isotropic":
        return mc.isotropic(extra)
    if family == "pure":
        return mc.random_pure(d_a, d_b, seed=seed)
    return mc.random_product(d_a, d_b, seed=seed)


def test_oracle_keeps_its_recorded_values_and_iterations():
    for i, (family, d_a, d_b, extra, value, iterations, converged) in enumerate(ORACLE_PANEL):
        res = mc.mu_variational(oracle_panel_state(i, family, d_a, d_b, extra), restarts=2, seed=i)
        assert abs(res.value - value) < 1e-14, i
        assert (res.iterations, res.converged) == (iterations, converged), i


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
    """A negative eigenvalue on A and a non-hermitian B: mu_schmidt and
    extract_witness both check both sides for hermiticity before positivity."""
    rho = np.diag([1.1, 0.0, 0.0, -0.1]) + 1e-6 * np.kron(np.eye(2), E01)
    st = mc.BipartiteState(2, 2, rho)
    with pytest.raises(NotHermitianError):
        mc.mu_schmidt(st)
    with pytest.raises(NotHermitianError):
        mc.extract_witness(st)


def at_the_positivity_floor(d_neg, d_other, factor, side):
    """Eigenvalue -factor * PSD_TOL on each |0>|j> (side A, dims d_neg x d_other) or |i>|0> (side B, the mirror),
    a seeded random_density on the remaining block, and trace one: the negative side's marginal sums d_other of
    those eigenvalues."""
    n = d_neg * d_other
    rho = np.zeros((n, n), dtype=complex)
    rho[:d_other, :d_other] = -factor * PSD_TOL * np.eye(d_other)
    rho[d_other:, d_other:] = mc.random_density(d_neg - 1, d_other, seed=3).rho * (1.0 + d_other * factor * PSD_TOL)
    if side == "A":
        return mc.BipartiteState(d_neg, d_other, rho)
    mirrored = rho.reshape(d_neg, d_other, d_neg, d_other).transpose(1, 0, 3, 2).reshape(n, n)
    return mc.BipartiteState(d_other, d_neg, mirrored)


FLOOR_CASES = [(d_n, d_o, side) for d_n in (3, 4) for d_o in range(1, 5) for side in "AB"]


@pytest.mark.parametrize("d_neg, d_other, side", FLOOR_CASES)
def test_a_validated_state_is_always_measured(d_neg, d_other, side, tmp_path, capsys):
    """A marginal sums d_other compressions of rho, so its floor is d_other times the state's: whatever validate
    accepts, every entry point and the mu and ment commands measure."""
    st = at_the_positivity_floor(d_neg, d_other, 0.9, side)
    assert mc.validate(st).ok
    rep = mc.mu_schmidt(st, witness=True)
    if rep.witness is None:
        with pytest.raises(RangeError):
            mc.extract_witness(st)
    else:
        assert mc.extract_witness(st).objective == rep.witness.objective
    assert abs(mc.mu_variational(st, restarts=1).value - rep.mu) < 1e-6
    path = str(tmp_path / "floor.json")
    write_state_file(path, st)
    for argv in (["mu", path], ["ment", path, "--k", "2", "--restarts", "1", "--iters", "4"]):
        assert main(argv) == 0
        capsys.readouterr()


@pytest.mark.parametrize("d_neg, d_other, side", FLOOR_CASES)
def test_below_the_floor_validate_fails_and_every_entry_point_raises(d_neg, d_other, side):
    st = at_the_positivity_floor(d_neg, d_other, 1.1, side)
    assert any(f.startswith("positivity:") for f in mc.validate(st).failures)
    for entry in (mc.mu_schmidt, mc.extract_witness, mc.mu_variational):
        with pytest.raises(NegativeEigenvalueError):
            entry(st)


def hermitian_ceiling(st):
    """correlation._hermitian_ceiling on freshly taken marginal spectra, without its pair."""
    return correlation._hermitian_ceiling(st, correlation._Spectra(st))[0]


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
    """Every rank with two seeds, a pure state and two near-cutoff marginals."""
    panel = [mc.random_density(d_a, d_b, rank=r, seed=s) for r in range(1, d_a * d_b + 1) for s in range(2)]
    panel.append(mc.random_pure(d_a, d_b, seed=5))
    for ratio in (1e-9, 3e-10):
        panel.append(with_marginal_ratio(mc.random_density(d_a, d_b, seed=7), ratio))
    return panel


# extract_witness on gate_panel(d_a, d_b) as recorded while a 400-round
# alternating ascent still produced the hermitian pair: hermitian flags
# ("h" or "c"), second multiplicities and objectives.
PARENT_WITNESSES = {
    (2, 2): (
        "hhcccccchcc",
        (3, 3, 1, 1, 1, 1, 1, 1, 3, 1, 1),
        (0.9999999999999978, 0.9999999999999644, 1.0000000000000002, 1.0000000000000004,
         0.970556619169388, 0.9592120395967193, 0.5297277468388648, 0.7458042853050901,
         1.0000000000000042, 0.5319517308068955, 0.5319517307891863),
    ),
    (2, 3): (
        "hhcccccccccchcc",
        (3, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 3, 1, 1),
        (0.9999999999999889, 0.9999999999999646, 0.9943316462506929, 0.9306933565663864,
         0.8839867651043094, 0.9123697721741335, 0.849915378597274, 0.7023770849409258,
         0.6867143134398241, 0.7213692311924168, 0.501817007575077, 0.7234024809442701,
         0.9999999999999991, 0.5874523221949345, 0.5874523226785209),
    ),
    (2, 4): (
        "hhcccccccccccccchcc",
        (3, 3, 3, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 3, 1, 1),
        (0.9999999999999947, 0.9999999999999871, 0.9999999999999991, 1.0000000000000004,
         0.9840935138273246, 0.9539388721343074, 0.8441335625689429, 0.8787887217238551,
         0.7270125043410642, 0.7613316415209397, 0.7368971557241345, 0.6806106776985631,
         0.5522103445176787, 0.6922689131480395, 0.6249019463044281, 0.6415382741771493,
         0.9999999999999653, 0.7272483824733947, 0.7272483827240892),
    ),
    (3, 2): (
        "hhcccccccccchcc",
        (3, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 3, 1, 1),
        (0.9999999999999578, 0.9999999999999947, 0.9512260619197083, 0.9983412909048743,
         0.9398546501019469, 0.8629046518988804, 0.7193373345607696, 0.6835759560392951,
         0.6190618264946963, 0.7498286264860957, 0.5997731860650531, 0.6289740551986899,
         0.9999999999999959, 0.5679843578558061, 0.5679843578620548),
    ),
    (3, 3): (
        "hhcccccccccccccccchcc",
        (8, 8, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 8, 1, 1),
        (0.9999999999999671, 0.9999999999998602, 1.0, 1.0000000000000004,
         0.9733891178594377, 0.9242556268735784, 0.8403285206019814, 0.7649842787009749,
         0.7295382881197242, 0.8035592623982718, 0.7021465787246967, 0.5839720095108945,
         0.5636645297246311, 0.6355194559131012, 0.5496492303892562, 0.6506162873722284,
         0.45925460155704856, 0.5408126441737027, 0.9999999999997666, 0.441715066845471,
         0.44171506687230666),
    ),
    (3, 4): (
        "hhcccccccccccccccccccccchcc",
        (8, 8, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 8, 1, 1),
        (0.9999999999983444, 0.999999996954527, 0.9978475634503905, 0.999022714855015,
         0.9081329161578957, 0.9308438800629922, 0.8305828119162396, 0.8053581434364336,
         0.7514622083381357, 0.7879620741223932, 0.6640694627545818, 0.7008618626437242,
         0.7155405208220962, 0.6646703457163282, 0.5448433406826206, 0.628618081922252,
         0.5525946471123213, 0.5502206259695482, 0.545223844540949, 0.5858749929735751,
         0.5136956958580117, 0.5844341471590022, 0.5536627854591061, 0.5259507527458702,
         0.9999999999998537, 0.5301775807672867, 0.5301775808034059),
    ),
    (4, 2): (
        "hhcccccccccccccchcc",
        (3, 3, 3, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 3, 1, 1),
        (0.9999999999999893, 0.9999999999993211, 1.0, 1.0000000000000004,
         0.9440949005468866, 0.962715773179299, 0.8425580646516194, 0.8267747463155287,
         0.7448834255582477, 0.7139161272218499, 0.7496142011022457, 0.6058293070613769,
         0.569456312152268, 0.7398669655754613, 0.634910140798294, 0.6490759147543124,
         0.9999999999999576, 0.6707030233611995, 0.6707030234056746),
    ),
    (4, 3): (
        "hhcccccccccccccccccccccchcc",
        (8, 8, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 8, 1, 1),
        (0.9999999999999127, 0.999999999999866, 0.9994475526773632, 0.9981088222313121,
         0.8753341581796585, 0.9329732780576587, 0.7976901370450811, 0.8390558402555026,
         0.7096075657380791, 0.7880640071904013, 0.7203427057913458, 0.697665263920682,
         0.68033901622615, 0.6665068879555598, 0.5916328186939491, 0.6330381072897324,
         0.5743040096291501, 0.5303609056284204, 0.5755686515542571, 0.5567931810421987,
         0.514093122198088, 0.6506993627227822, 0.5762560964598642, 0.5460341661183769,
         0.9999999999081985, 0.5738803811713595, 0.5738803812028249),
    ),
    (4, 4): (
        "hhcccccccccccccccccccccccccccccchcc",
        (15, 15, 3, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 15, 1, 1),
        (0.9999999999992708, 0.9999999999989362, 1.0000000000000002, 1.0000000000000004,
         0.9244825785701166, 0.8855922760915683, 0.8852100777457171, 0.8656355075671709,
         0.709511881373637, 0.7970558920233514, 0.6938486033363521, 0.7270682476640078,
         0.6417251204990277, 0.6973030482106808, 0.6013672419794203, 0.6448422446334894,
         0.5883936232092681, 0.6035150296917223, 0.5403619954369369, 0.598652518705578,
         0.5354782556597247, 0.5687721403792136, 0.526620052420188, 0.5390732023354066,
         0.5181838138737278, 0.5207628332587906, 0.44291132235132524,
         0.44387535932904043, 0.4581978434745587, 0.5051628670210441,
         0.43364253902733046, 0.487988525097097, 0.9999999999990894, 0.4640310244373721,
         0.4640310244728051),
    ),
}


@pytest.mark.parametrize("d_a", [2, 3, 4])
@pytest.mark.parametrize("d_b", [2, 3, 4])
def test_hermitian_ceiling_gate_is_sound(d_a, d_b):
    """The ceiling's own singular pair keeps every recorded flag and multiplicity,
    loses no objective, and is a feasible hermitian pair attaining the ceiling."""
    flags, mults, objectives = PARENT_WITNESSES[d_a, d_b]
    for st, flag, mult, objective in zip(gate_panel(d_a, d_b), flags, mults, objectives, strict=True):
        w = mc.extract_witness(st)
        assert (w.hermitian, w.second_multiplicity) == (flag == "h", mult)
        assert w.objective >= objective - 1e-12
        if w.hermitian:
            assert max(abs(w.mean_x), abs(w.mean_y)) < 1e-12
            assert max(abs(w.second_moment_x - 1.0), abs(w.second_moment_y - 1.0)) < 1e-12
            assert max(np.abs(w.x - w.x.conj().T).max(), np.abs(w.y - w.y.conj().T).max()) < 1e-12
            assert abs(w.objective - hermitian_ceiling(st)) < 1e-12


def counted_ceiling(monkeypatch):
    """Route correlation._hermitian_ceiling through a call counter; returns the list it appends to."""
    calls, ceiling = [], correlation._hermitian_ceiling
    monkeypatch.setattr(correlation, "_hermitian_ceiling", lambda *a: calls.append(a) or ceiling(*a))
    return calls


@pytest.mark.parametrize("d_a", [2, 3, 4])
@pytest.mark.parametrize("d_b", [2, 3, 4])
def test_ceiling_is_never_built_on_full_rank_random_witnesses(monkeypatch, d_a, d_b):
    calls = counted_ceiling(monkeypatch)
    for seed in range(3):
        assert not mc.mu_schmidt(mc.random_density(d_a, d_b, seed=seed), witness=True).witness.hermitian
    assert calls == []


@pytest.mark.parametrize("name", ["pure23", "random33r2"])
def test_ceiling_is_built_where_the_bound_cannot_exclude_it(monkeypatch, name):
    # pure23: the ceiling wins; random33r2 (second multiplicity 2): it is built and loses.
    calls = counted_ceiling(monkeypatch)
    mc.extract_witness(read_state_file(str(Path(__file__).parent / "data" / "golden" / f"{name}.json")))
    assert len(calls) >= 1
