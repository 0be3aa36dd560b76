"""Known-answer soundness corpus: bracket's ends never cross a value known in closed form.

Each case is a state whose maximal entanglement is known exactly, or known to lie in an
interval [lo, hi]. Soundness asks only lower <= hi and upper >= lo (to 1e-9): a bound on the
wrong side of a known value is a false certificate, however loose or tight it is otherwise.
The searches are short (restarts=1, iters=40); the corpus is about soundness, not tightness.
"""

import numpy as np
import pytest

import maxcorr as mc
from maxcorr import linalg

SLACK = 1e-9


def bracket(state):
    return mc.bracket(state, restarts=1, iters=40, seed=0)


def assert_sound(state, lo, hi):
    b = bracket(state)
    assert b.lower <= hi + SLACK
    assert b.upper >= lo - SLACK
    return b


def ket(*amplitudes):
    v = np.array(amplitudes, dtype=complex)
    return v / np.linalg.norm(v)


def projector(v):
    return np.outer(v, v.conj())


def maximally_correlated(d, seed):
    """sum_ij c_ij |ii><jj| for a seeded full-rank density c: every component of any decomposition lies in
    span{|ii>}, and one of them carries coherence, so has two perfectly correlated outcomes and mu 1."""
    c = mc.random_density(d, 1, seed=seed).rho
    rho = np.zeros((d * d, d * d), dtype=complex)
    diag = np.arange(d) * (d + 1)
    rho[np.ix_(diag, diag)] = c
    return mc.BipartiteState(d, d, rho)


def direct_sum(w, r, s):
    """w r + (1 - w) s on (A1 + A2) x (B1 + B2), with r on A1 x B1 and s on A2 x B2.

    It mixes the two blocks, so its value is at most the larger of theirs: two blocks of value 0 give 0.
    """
    d_a, d_b = r.d_a + s.d_a, r.d_b + s.d_b
    rho = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
    for weight, part, a0, b0 in ((w, r, 0, 0), (1.0 - w, s, r.d_a, r.d_b)):
        idx = [(a0 + i) * d_b + b0 + j for i in range(part.d_a) for j in range(part.d_b)]
        rho[np.ix_(idx, idx)] = weight * part.rho
    return mc.BipartiteState(d_a, d_b, rho)


KET00 = mc.BipartiteState(1, 1, np.ones((1, 1)))


def horodecki(a):
    """P. Horodecki's 3x3 family, Phys. Lett. A 232, 333 (1997): PPT and entangled for 0 < a < 1."""
    rho = a * np.eye(9, dtype=complex)
    diag = [0, 4, 8]
    rho[np.ix_(diag, diag)] = a
    rho[6, 6] = rho[8, 8] = (1.0 + a) / 2.0
    rho[6, 8] = rho[8, 6] = np.sqrt(1.0 - a * a) / 2.0
    return mc.BipartiteState(3, 3, rho / (8.0 * a + 1.0))


def tiles_upb_state():
    """(I - sum of the five tiles UPB projectors) / 4 on 3x3: PPT and entangled."""
    e = np.eye(3)
    plus = np.ones(3) / np.sqrt(3.0)
    vectors = [
        np.kron(e[0], e[0] - e[1]),
        np.kron(e[0] - e[1], e[2]),
        np.kron(e[2], e[1] - e[2]),
        np.kron(e[1] - e[2], e[0]),
        np.kron(plus, plus),
    ]
    rho = (np.eye(9) - sum(projector(ket(*v)) for v in vectors)) / 4.0
    return mc.BipartiteState(3, 3, rho)


DIMS = [(d_a, d_b) for d_a in range(1, 5) for d_b in range(1, 5)]


@pytest.mark.parametrize("d_a,d_b", DIMS)
def test_pure_states(d_a, d_b):
    """A pure state has only the trivial decomposition: mu_ent is 1 when entangled, 0 when a side is 1-dim."""
    known = 1.0 if min(d_a, d_b) > 1 else 0.0
    assert_sound(mc.random_pure(d_a, d_b, seed=d_a * 4 + d_b), known, known)


def test_a_coherent_mixture_of_two_bell_states():
    """0.6 Phi+ + 0.4 Psi+ is maximally correlated in the X basis, so mu_ent is 1."""
    phi, psi = ket(1, 0, 0, 1), ket(0, 1, 1, 0)
    assert_sound(mc.BipartiteState(2, 2, 0.6 * projector(phi) + 0.4 * projector(psi)), 1.0, 1.0)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_maximally_correlated_states(d):
    assert_sound(maximally_correlated(d, seed=d), 1.0, 1.0)


@pytest.mark.parametrize("eps", [2.0 / 3.0, 0.8, 1.0])
def test_separable_isotropic_states(eps):
    assert_sound(mc.isotropic(eps), 0.0, 0.0)


@pytest.mark.parametrize("seed", range(3))
def test_separable_two_qubit_mixtures(seed):
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(3))
    rho = sum(w * mc.random_product(2, 2, seed=10 * seed + i).rho for i, w in enumerate(weights))
    assert_sound(mc.BipartiteState(2, 2, rho), 0.0, 0.0)


@pytest.mark.parametrize("d_a,d_b", [(2, 2), (2, 3), (3, 3), (4, 2)])
def test_product_states(d_a, d_b):
    assert_sound(mc.random_product(d_a, d_b, seed=d_a + d_b), 0.0, 0.0)


@pytest.mark.parametrize("rows,cols", [(2, 2), (2, 3), (3, 3)])
def test_embedded_classical_joints(rows, cols):
    """A diagonal state is a mixture of the product states |ab>, so mu_ent is 0."""
    p = np.random.default_rng(rows * cols).dirichlet(np.ones(rows * cols)).reshape(rows, cols)
    assert_sound(mc.embed_classical(mc.ClassicalJoint(p)), 0.0, 0.0)


def test_isotropic_embedded_in_three_by_three():
    """A local isometry changes no component's mu, so iso(0.4) keeps its bracket [1 - 1.5 eps, 1 - eps]."""
    rho = np.zeros((9, 9), dtype=complex)
    keep = [0, 1, 3, 4]  # |00>, |01>, |10>, |11> inside 3x3
    rho[np.ix_(keep, keep)] = mc.isotropic(0.4).rho
    assert_sound(mc.BipartiteState(3, 3, rho), 0.4, 0.6)


def test_tiles_upb_state():
    """PPT yet entangled, so mu_ent > 0: a certified upper bound of 0 would be false."""
    st = tiles_upb_state()
    assert mc.validate(st).ok
    assert mc.ppt_check(st).is_ppt
    assert abs(mc.mu_schmidt(st).mu - 0.6017) < 1e-4
    b = assert_sound(st, 0.0, 1.0)
    assert b.upper > 1e-6


@pytest.mark.parametrize(
    "w,first",
    [(0.7, mc.isotropic(0.8)), (0.6, mc.random_product(2, 2, seed=1))],
    ids=["separable-isotropic", "product"],
)
def test_direct_sum_of_separable_blocks(w, first):
    """A separable two-qubit block beside |00> on 3x3: a mixture of separable states."""
    assert_sound(direct_sum(w, first, KET00), 0.0, 0.0)


def test_direct_sum_of_a_bell_state_and_a_product():
    """0.5 Phi+ + 0.5 |22> lies in span{|ii>} and carries coherence, so mu_ent is 1 (as for maximally_correlated)."""
    assert_sound(direct_sum(0.5, mc.BipartiteState(2, 2, projector(ket(1, 0, 0, 1))), KET00), 1.0, 1.0)


@pytest.mark.parametrize(
    "r,s",
    [
        (mc.isotropic(0.8), mc.isotropic(0.9)),
        (mc.random_product(2, 1, seed=2), mc.random_product(2, 2, seed=3)),
    ],
    ids=["separable-isotropic", "product"],
)
def test_tensor_product_of_separable_states(r, s):
    assert_sound(mc.tensor_bipartite(r, s), 0.0, 0.0)


def test_tensor_product_with_a_bell_state():
    """Every component of Phi+ (x) sigma is Phi+ (x) sigma_i, whose mu is the larger of 1 and mu(sigma_i)."""
    bell = mc.BipartiteState(2, 2, projector(ket(1, 0, 0, 1)))
    assert_sound(mc.tensor_bipartite(bell, mc.random_density(2, 2, seed=0)), 1.0, 1.0)


def test_tensor_product_of_a_noisy_bell_state_and_a_random_state():
    """mu_ent of r (x) s lies between the larger of the factors' values (tracing out a factor is local)
    and the larger of their upper bounds (tensor products of their decompositions)."""
    r, s = mc.isotropic(0.2), mc.random_density(2, 2, seed=0)
    factors = [bracket(r), bracket(s)]
    assert factors[0].lower == pytest.approx(0.7)
    lo, hi = max(b.lower for b in factors), max(b.upper for b in factors)
    assert_sound(mc.tensor_bipartite(r, s), lo, hi)


@pytest.mark.parametrize(
    "a,mu",
    [(0.1, 0.5890249483), (0.3, 0.4576274312), (0.5, 0.3956871918), (0.7, 0.3619953633), (0.9, 0.3442104534)],
)
def test_horodecki_family(a, mu):
    """PPT yet entangled (its realignment has trace norm above 1), so 0 < mu_ent <= mu."""
    st = horodecki(a)
    assert mc.validate(st).ok
    w = np.linalg.eigvalsh(st.rho)
    assert np.count_nonzero(w > linalg.support_cut(w)) == 7
    assert mc.ppt_check(st).is_ppt and mc.ppt_check(st).min_eigenvalue >= -1e-15
    assert np.linalg.svd(linalg.realign(st.rho, 3, 3), compute_uv=False).sum() > 1.0 + 1e-4
    assert abs(mc.mu_schmidt(st).mu - mu) < 1e-9
    b = assert_sound(st, 0.0, mu)
    assert b.upper > 1e-6
