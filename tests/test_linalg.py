import numpy as np
import pytest

from maxcorr import linalg
from maxcorr.defaults import RANK_TOL
from maxcorr.errors import DimensionMismatchError, NotHermitianError, NotSquareError
from maxcorr.states import random_density, random_product, random_pure


def random_psd(rng, d, rank=None):
    k = rank or d
    g = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    m = g @ g.conj().T
    return (m + m.conj().T) / 2.0


def test_hermitian_eig_descending_and_orthonormal():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = random_psd(rng, 4)
        w, v = linalg.hermitian_eig(m)
        assert np.all(np.diff(w) <= 1e-12)
        assert np.max(np.abs(v.conj().T @ v - np.eye(4))) < 1e-12
        rebuilt = (v * w) @ v.conj().T
        assert np.max(np.abs(rebuilt - m)) < 1e-10 * max(1.0, w[0])


def test_hermitian_eig_rejects_nonhermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotHermitianError):
        linalg.hermitian_eig(m)


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(7)
    for _ in range(10):
        m = random_psd(rng, 3)
        s = linalg.psd_sqrt(m)
        assert np.max(np.abs(s @ s - m)) < 1e-10 * max(1.0, np.trace(m).real)


def test_psd_pinv_sqrt_inverts_on_support():
    """On a rank-deficient matrix the pinv sqrt inverts only the support."""
    rng = np.random.default_rng(5)
    m = random_psd(rng, 4, rank=2)
    inv = linalg.psd_pinv_sqrt(m)
    s = linalg.psd_sqrt(m)
    proj = inv @ s  # should be the orthogonal projector onto the support
    assert np.max(np.abs(proj @ proj - proj)) < 1e-10
    assert abs(np.trace(proj).real - 2.0) < 1e-8


def test_partial_trace_of_product_recovers_factors():
    rng = np.random.default_rng(3)
    a = random_psd(rng, 2)
    a /= a.trace()
    b = random_psd(rng, 3)
    b /= b.trace()
    full = np.kron(a, b)
    # tracing out B leaves the A factor and vice versa
    assert np.max(np.abs(linalg.partial_trace(full, 2, 3, "B") - a)) < 1e-12
    assert np.max(np.abs(linalg.partial_trace(full, 2, 3, "A") - b)) < 1e-12


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(9)
    m = random_psd(rng, 6)
    for side in ("A", "B"):
        red = linalg.partial_trace(m, 2, 3, side)
        assert abs(np.trace(red) - np.trace(m)) < 1e-12


@pytest.mark.parametrize("side", ["A", "B"])
def test_partial_transpose_is_involution(side):
    rng = np.random.default_rng(13)
    m = random_psd(rng, 6)
    twice = linalg.partial_transpose(
        linalg.partial_transpose(m, 2, 3, side), 2, 3, side
    )
    assert np.max(np.abs(twice - m)) == 0.0


def test_partial_transpose_on_product():
    rng = np.random.default_rng(17)
    a = random_psd(rng, 2)
    b = random_psd(rng, 2)
    full = np.kron(a, b)
    pt_a = linalg.partial_transpose(full, 2, 2, "A")
    assert np.max(np.abs(pt_a - np.kron(a.T, b))) < 1e-14
    pt_b = linalg.partial_transpose(full, 2, 2, "B")
    assert np.max(np.abs(pt_b - np.kron(a, b.T))) < 1e-14


def test_realign_product_has_rank_one():
    """Realignment of kron(X, Y) is an outer product of vectorizations."""
    rng = np.random.default_rng(21)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    r = linalg.realign(np.kron(x, y), 2, 3)
    sv = np.linalg.svd(r, compute_uv=False)
    assert sv[1] < 1e-12
    assert abs(sv[0] - np.linalg.norm(x) * np.linalg.norm(y)) < 1e-12


def test_realign_bell_singular_values():
    # maximally entangled two-qubit state: all four values equal 1/2
    v = np.zeros(4)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    rho = np.outer(v, v)
    sv = linalg.singular_values(linalg.realign(rho, 2, 2))
    assert np.max(np.abs(sv - 0.5)) < 1e-12


def test_bipartite_helpers_act_per_matrix_on_a_stack():
    rng = np.random.default_rng(29)
    ms = np.stack([random_psd(rng, 6) for _ in range(3)])
    for got, want in [
        (linalg.partial_trace(ms, 2, 3, "A"), [linalg.partial_trace(m, 2, 3, "A") for m in ms]),
        (linalg.partial_trace(ms, 2, 3, "B"), [linalg.partial_trace(m, 2, 3, "B") for m in ms]),
        (linalg.partial_transpose(ms, 2, 3, "A"), [linalg.partial_transpose(m, 2, 3, "A") for m in ms]),
        (linalg.partial_transpose(ms, 2, 3, "B"), [linalg.partial_transpose(m, 2, 3, "B") for m in ms]),
        (linalg.realign(ms, 2, 3), [linalg.realign(m, 2, 3) for m in ms]),
    ]:
        assert np.array_equal(got, np.stack(want))
    with pytest.raises(NotSquareError):
        linalg.realign(ms[:, :, :5], 2, 3)
    with pytest.raises(NotSquareError):
        linalg.partial_trace(ms[None], 2, 3, "A")
    with pytest.raises(DimensionMismatchError):
        linalg.partial_trace(ms, 3, 3, "A")


def test_singular_values_descending():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((5, 3))
    sv = linalg.singular_values(m)
    assert np.all(np.diff(sv) <= 0.0)


def loop_mu(rho, d_a, d_b):
    """Per-matrix maximal correlation built from np.kron, realign and one SVD."""
    pa = linalg.psd_pinv_sqrt(linalg.partial_trace(rho, d_a, d_b, "B"))
    pb = linalg.psd_pinv_sqrt(linalg.partial_trace(rho, d_a, d_b, "A"))
    tilde = np.kron(np.eye(d_a), pb) @ rho @ np.kron(pa, np.eye(d_b))
    s = np.linalg.svd(linalg.realign(tilde, d_a, d_b), compute_uv=False)
    return s[1] if s.size > 1 else 0.0


DIM_PAIRS = [(d_a, d_b) for d_a in range(1, 5) for d_b in range(1, 5)]


@pytest.mark.parametrize("d_a,d_b", DIM_PAIRS)
def test_mu_stack_matches_per_matrix_loop(d_a, d_b):
    n = d_a * d_b
    rhos = np.stack(
        [random_density(d_a, d_b, rank=r, seed=10 * r + s).rho for r in range(1, n + 1) for s in range(2)]
    )
    got = linalg.mu_stack(rhos, d_a, d_b)
    assert got.shape == (2 * n,)
    assert np.max(np.abs(got - [loop_mu(rho, d_a, d_b) for rho in rhos])) < 1e-12


@pytest.mark.parametrize("d_a,d_b", DIM_PAIRS)
def test_mu_stack_extremes(d_a, d_b):
    products = np.stack([random_product(d_a, d_b, seed=s).rho for s in range(3)])
    assert np.max(linalg.mu_stack(products, d_a, d_b)) < 1e-12
    if min(d_a, d_b) > 1:
        pures = np.stack([random_pure(d_a, d_b, seed=s).rho for s in range(3)])
        assert np.max(np.abs(linalg.mu_stack(pures, d_a, d_b) - 1.0)) < 1e-12


@pytest.mark.parametrize("d_a,d_b", DIM_PAIRS)
def test_mu_stack_is_bit_identical_to_mu_schmidt(d_a, d_b):
    """The search's kernel and mu_schmidt share one arithmetic, so a one-component certificate is mu exactly."""
    from maxcorr.correlation import mu_schmidt

    n = d_a * d_b
    states = [random_density(d_a, d_b, rank=r, seed=10 * r + s) for r in range(1, n + 1) for s in range(2)]
    got = linalg.mu_stack(np.stack([st.rho for st in states]), d_a, d_b)
    assert got.tolist() == [mu_schmidt(st).mu for st in states]
    assert [linalg.mu_stack(st.rho[None], d_a, d_b)[0] for st in states] == got.tolist()


def test_mu_stack_of_empty_stack_is_empty():
    for d_a, d_b in ((1, 1), (2, 3), (4, 4)):
        n = d_a * d_b
        assert linalg.mu_stack(np.zeros((0, n, n), dtype=complex), d_a, d_b).shape == (0,)


def test_support_cut_reads_either_sort_order():
    rng = np.random.default_rng(31)
    for shape in ((3,), (1,), (0,), (5, 4), (2, 3, 6)):
        w = np.sort(rng.uniform(-1e-12, 1.0, shape), axis=-1)
        assert np.array_equal(linalg.support_cut(w), linalg.support_cut(w[..., ::-1]))
    assert linalg.support_cut(np.array([1e-3, 0.2, 0.5])).tolist() == [0.5 * RANK_TOL]


@pytest.mark.parametrize("weight,kept", [(3e-10, True), (1e-10, False)])
def test_rank_cliff_is_the_same_for_every_reader(weight, kept):
    """(1 - w)|00><00| + w|Phi+><Phi+| has marginal spectra (1 - w/2, w/2): w/2 is support only above RANK_TOL."""
    from maxcorr.correlation import mu_schmidt
    from maxcorr.states import BipartiteState, bell_projector, validate

    zero = np.zeros((4, 4), dtype=complex)
    zero[0, 0] = 1.0
    st = BipartiteState(2, 2, (1.0 - weight) * zero + weight * bell_projector())
    ranks = (2, 2) if kept else (1, 1)
    rep = mu_schmidt(st)
    assert rep.mu == pytest.approx(1.0 if kept else 0.0, abs=1e-6)
    assert rep.marginal_ranks == ranks
    assert validate(st).marginal_ranks == ranks
    assert linalg.mu_stack(st.rho[None], 2, 2).tolist() == [rep.mu]


def test_pinv_sqrt_stack_matches_checked_version():
    rng = np.random.default_rng(23)
    ms = np.stack([random_psd(rng, 4, rank=r) for r in (1, 2, 3, 4, 4)])
    ms[-1, 1, 0] += 1e-13  # off hermitian within tolerance: both symmetrize it
    got = linalg.pinv_sqrt_stack(ms)
    for m, inv in zip(ms, got):
        assert np.array_equal(inv, linalg.psd_pinv_sqrt(m))


@pytest.mark.parametrize("d_a,d_b", DIM_PAIRS)
def test_mu_schmidt_is_bit_identical_to_kron_loop(d_a, d_b):
    from dataclasses import fields

    from maxcorr.correlation import extract_witness, mu_schmidt

    n = d_a * d_b
    for rank in range(1, n + 1):
        for seed in range(2):
            st = random_density(d_a, d_b, rank=rank, seed=10 * rank + seed)
            rep = mu_schmidt(st)
            assert rep.mu == loop_mu(st.rho, d_a, d_b)
            if seed:
                continue
            if rep.mu < 1e-12:
                assert mu_schmidt(st, witness=True).witness is None
                continue
            got, want = mu_schmidt(st, witness=True).witness, extract_witness(st)
            for f in fields(want):
                assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), f.name
