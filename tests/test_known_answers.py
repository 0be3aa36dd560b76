"""Known-answer soundness corpus: bracket's ends never cross a value known in closed form.

Each case is a state whose maximal entanglement is known exactly, or known to lie in an
interval [lo, hi]. Soundness asks only lower <= hi and upper >= lo (to 1e-9): a bound on the
wrong side of a known value is a false certificate, however loose or tight it is otherwise.
The searches are short (restarts=1, iters=40); the corpus is about soundness, not tightness.
"""

import numpy as np
import pytest

import maxcorr as mc

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
