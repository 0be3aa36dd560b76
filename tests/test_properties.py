"""Property tests of mu, the hermitian ceiling, its closed-form bound and the
variational oracle over every dims pair 2x2-4x4, of mu on product states from
1x1 up, of the data processing inequality and tensor max of mu from 1x1 up, of
mu_classical of a joint table against mu of its embedded state from 1x1 up, of
the certified bracket (on two qubits against the search, and from 1x1 up with
no restart), of certificates under local channels, tensor products and local
unitaries from 1x1 up, of the two-qubit product ensemble and its Takagi
factorization, and of the search's one-pass soft maximum against its
row-by-row reference.

Examples are drawn deterministically (derandomize=True) with a fixed budget,
so every run checks the same states.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import maxcorr as mc
from maxcorr import correlation, entanglement, linalg
from test_correlation import haar_unitary, hermitian_ceiling
from test_entanglement import noisy_bell, product_mixture

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)

dims = st.integers(2, 4)
seeds = st.integers(0, 2**32 - 1)
factor_splits = st.sampled_from([(d1, d2) for d1 in range(1, 5) for d2 in range(1, 5) if d1 * d2 <= 4])


@st.composite
def mixed_states(draw, sides=dims):
    d_a, d_b = draw(sides), draw(sides)
    rank = draw(st.integers(1, d_a * d_b))
    return mc.random_density(d_a, d_b, rank=rank, seed=draw(seeds))


@st.composite
def states_and_local_channels(draw):
    """A state on any dims pair up to 4x4 and a random channel on one side with output dimension 1-4."""
    d_a, d_b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    state = mc.random_density(d_a, d_b, rank=draw(st.integers(1, d_a * d_b)), seed=draw(seeds))
    side = draw(st.sampled_from("AB"))
    d_in, d_out = (d_a if side == "A" else d_b), draw(st.integers(1, 4))
    kraus_rank = draw(st.integers(-(-d_in // d_out), 4))
    return state, mc.random_channel(d_in, d_out, kraus_rank, seed=draw(seeds), side=side)


@st.composite
def tensor_factors(draw):
    """Two states whose tensor product stays within 4x4 on each side."""
    (a1, a2), (b1, b2) = draw(factor_splits), draw(factor_splits)
    return tuple(
        mc.random_density(d_a, d_b, rank=draw(st.integers(1, d_a * d_b)), seed=draw(seeds))
        for d_a, d_b in ((a1, b1), (a2, b2))
    )


@st.composite
def joint_tables(draw):
    """A Dirichlet table from 1x1 to 4x4, sometimes with one row or column scaled toward the support cut and past it."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    alpha = draw(st.sampled_from([0.02, 0.05, 0.3, 1.0]))
    p = np.random.default_rng(draw(seeds)).dirichlet(np.full(rows * cols, alpha)).reshape(rows, cols)
    scale = draw(st.sampled_from([1.0, 1e-9, 1e-11, 1e-13, 1e-200, 1e-300]))
    if draw(st.booleans()):
        p[draw(st.integers(0, rows - 1))] *= scale
    else:
        p[:, draw(st.integers(0, cols - 1))] *= scale
    return mc.ClassicalJoint(p / p.sum())


@st.composite
def two_qubit_states(draw):
    if draw(st.booleans()):
        return noisy_bell(draw(st.floats(0.0, 4.0 / 3.0)))
    return mc.random_density(2, 2, rank=draw(st.integers(1, 4)), seed=draw(seeds))


@PROPERTY
@given(mixed_states(), seeds)
def test_mu_and_ceiling_are_local_unitary_invariant(state, seed):
    rng = np.random.default_rng(seed)
    u = np.kron(haar_unitary(rng, state.d_a), haar_unitary(rng, state.d_b))
    rotated = mc.BipartiteState(state.d_a, state.d_b, u @ state.rho @ u.conj().T)
    assert abs(mc.mu_schmidt(rotated).mu - mc.mu_schmidt(state).mu) < 1e-9
    assert abs(hermitian_ceiling(rotated) - hermitian_ceiling(state)) < 1e-9


@PROPERTY
@given(mixed_states())
def test_ceiling_lies_between_zero_and_mu(state):
    ceiling = hermitian_ceiling(state)
    assert 0.0 <= ceiling <= mc.mu_schmidt(state).mu + 1e-12


def deflated_pair(state):
    """Fresh spectra and correlation._witness's deflated pair (X, Y) with its singular values s."""
    sp = correlation._Spectra(state)
    _, inv_a, inv_b, realigned = sp.normalized
    w = linalg.sqrt_from_eig(*sp.eig_a).reshape(-1)
    z = linalg.sqrt_from_eig(*sp.eig_b).reshape(-1).conj()
    w, z = w / np.linalg.norm(w), z / np.linalg.norm(z)
    deflated = realigned - np.outer(w, w.conj() @ realigned)
    u, s, vh = np.linalg.svd(deflated - np.outer(deflated @ z, z.conj()))
    x = correlation._center_normalize(inv_a @ u[:, 0].reshape(state.d_a, state.d_a).conj().T, sp.rho_a)
    y = correlation._center_normalize(inv_b @ vh[0].reshape(state.d_b, state.d_b), sp.rho_b)
    return sp, x, y, s


@PROPERTY
@given(st.one_of(mixed_states(), st.builds(mc.random_pure, dims, dims, seed=seeds)))
def test_ceiling_bound_is_at_least_the_ceiling(state):
    # Every bound the gate may stop at is sound, and side B's can only tighten side A's.
    sp, x, y, s = deflated_pair(state)
    bounds = list(correlation._ceiling_bounds(sp, x, y, s))
    assert len(bounds) == 2
    assert min(bounds) >= correlation._hermitian_ceiling(state, sp)[0] - 1e-12
    assert bounds[1] <= bounds[0]


@PROPERTY
@given(mixed_states())
def test_oracle_brackets_mu(state):
    mu = mc.mu_schmidt(state).mu
    assert mu - 1e-4 <= mc.mu_variational(state, restarts=2).value <= mu + 1e-6


@PROPERTY
@given(dims, dims, seeds)
@example(3, 4, 1)  # an iterative hermitian ascent reaches only 1 - 1.46e-9 here
def test_ceiling_is_one_on_pure_entangled_states(d_a, d_b, seed):
    state = mc.random_pure(d_a, d_b, seed=seed)
    assert abs(hermitian_ceiling(state) - 1.0) < 1e-9
    witness = mc.extract_witness(state)
    assert witness.hermitian
    assert abs(witness.objective - 1.0) < 1e-12


@PROPERTY
@given(states_and_local_channels())
def test_mu_obeys_data_processing(pair):
    state, channel = pair
    assert mc.mu_schmidt(mc.apply_local(state, channel)).mu <= mc.mu_schmidt(state).mu + 1e-7


@PROPERTY
@given(tensor_factors())
def test_mu_of_a_tensor_product_is_the_larger_mu(factors):
    r, s = factors
    joint = mc.mu_schmidt(mc.tensor_bipartite(r, s)).mu
    assert abs(joint - max(mc.mu_schmidt(r).mu, mc.mu_schmidt(s).mu)) <= 1e-9


@PROPERTY
@given(seeds)
def test_product_states_have_zero_mu(seed):
    for d_a in range(1, 5):
        for d_b in range(1, 5):
            state = mc.random_product(d_a, d_b, seed=seed)
            assert mc.mu_schmidt(state).mu <= 1e-12
            assert linalg.mu_stack(state.rho[None], d_a, d_b)[0] <= 1e-12


@settings(derandomize=True, max_examples=300, deadline=None)
@given(joint_tables())
@example(mc.ClassicalJoint(np.array([[1.0, 0.0], [0.0, 1e-300]])))
@example(mc.ClassicalJoint(np.array([[0.5, 0.2], [3e-12, 0.0]]) / (0.7 + 3e-12)))
def test_a_table_and_its_embedded_state_give_one_number(joint):
    """mu_classical cuts each marginal where mu_schmidt cuts the embedded state's diagonal marginals."""
    table, state = mc.mu_classical(joint), mc.mu_schmidt(mc.embed_classical(joint))
    assert abs(table.mu - state.mu) <= 1e-12
    assert table.marginal_ranks == state.marginal_ranks


@PROPERTY
@given(two_qubit_states())
@example(noisy_bell(4.0 / 3.0))
def test_fidelity_lower_bound_stays_below_search_certificate(state):
    dec = mc.decomposition_search(state, restarts=0)
    assert mc.fidelity_mu_lower_bound(state) <= mc.mu_ent_upper(dec) + 1e-9


@PROPERTY
@given(mixed_states(st.integers(1, 4)))
def test_bracket_lower_stays_below_upper_and_upper_below_mu(state):
    # The trivial candidate scores mu_schmidt's mu to the last bit, so the second bound is exact.
    b = mc.bracket(state, restarts=0)
    assert b.lower <= b.upper + 1e-9
    assert b.upper <= mc.mu_schmidt(state).mu


def mapped_decomposition(dec, target, f):
    """dec with f applied to every component, certifying f's image of the target."""
    return mc.Decomposition(target=target, weights=dec.weights, components=tuple(f(c) for c in dec.components))


@PROPERTY
@given(states_and_local_channels(), st.integers(1, 4), seeds)
def test_certificate_survives_a_local_channel(pair, k, seed):
    state, channel = pair
    dec = mc.random_povm_decomposition(state, k=k, seed=seed)
    pushed = mapped_decomposition(dec, mc.apply_local(state, channel), lambda c: mc.apply_local(c, channel))
    assert mc.mu_ent_upper(pushed) <= mc.mu_ent_upper(dec) + 1e-7


@PROPERTY
@given(tensor_factors(), st.integers(1, 4), seeds)
def test_product_of_certificates_certifies_the_larger_bound(factors, k, seed):
    r, s = factors
    dr, ds = (mc.random_povm_decomposition(x, k=k, seed=seed + i) for i, x in enumerate(factors))
    joint = mc.Decomposition(
        target=mc.tensor_bipartite(r, s),
        weights=np.outer(dr.weights, ds.weights).reshape(-1),
        components=tuple(mc.tensor_bipartite(a, b) for a in dr.components for b in ds.components),
    )
    assert abs(mc.mu_ent_upper(joint) - max(mc.mu_ent_upper(dr), mc.mu_ent_upper(ds))) <= 1e-9


@PROPERTY
@given(mixed_states(st.integers(1, 4)), st.integers(1, 4), seeds)
def test_certificate_is_local_unitary_invariant(state, k, seed):
    rng = np.random.default_rng(seed)
    u = np.kron(haar_unitary(rng, state.d_a), haar_unitary(rng, state.d_b))

    def rotate(x):
        return mc.BipartiteState(x.d_a, x.d_b, u @ x.rho @ u.conj().T)

    dec = mc.random_povm_decomposition(state, k=k, seed=seed)
    rotated = mapped_decomposition(dec, rotate(state), rotate)
    assert abs(mc.mu_ent_upper(rotated) - mc.mu_ent_upper(dec)) <= 1e-9


@PROPERTY
@given(seeds, st.integers(1, 4))
def test_search_certifies_mixtures_of_pure_products_at_zero(seed, terms):
    # Rank-deficient mixtures included: the product ensemble alone must certify them.
    state = product_mixture(seed, terms)
    dec = mc.decomposition_search(state, restarts=0)
    assert mc.mu_ent_upper(dec) <= 1e-12
    assert dec.residual() <= 1e-10


@PROPERTY
@given(mixed_states(st.integers(1, 4)), st.integers(1, 8), seeds)
def test_search_draws_only_blocks_of_positive_weight(state, k, seed):
    # evaluate raises on a block at or below the floor, so a finished search proves none was drawn.
    dec = entanglement._search_once(entanglement._PovmObjective(state, k), 6, np.random.default_rng(seed))
    assert len(dec.components) == k
    assert np.min(dec.weights) > entanglement._WEIGHT_FLOOR


@PROPERTY
@given(st.integers(1, 4), st.sampled_from([1.0, 1e-12]), seeds)
@example(1, 1.0, 0)
@example(2, 1.0, 0)
@example(3, 1.0, 0)
@example(4, 1.0, 0)
@example(4, 1e-12, 0)
def test_takagi_factors_every_complex_symmetric_matrix(rank, scale, seed):
    """t = g diag(s) g^T of rank 1-4 keeps rank Takagi values; scaled by 1e-12 it keeps none,
    so the examples cover every kept count 0-4 and the completion of the columns dropped.

    The Takagi values of a complex symmetric matrix are its singular values, so the kept ones
    match t's leading singular values and the factorization misses t by the dropped ones alone.
    """
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    t = scale * (g * (0.1 + rng.random(rank))) @ g.T
    lam, u = entanglement._takagi_symmetric(t)
    kept, sing, size = np.count_nonzero(lam), np.linalg.svd(t, compute_uv=False), max(1.0, np.linalg.norm(t))
    assert kept == (rank if scale == 1.0 else 0)
    assert np.all(lam >= 0.0) and np.all(np.diff(lam) <= 0.0)
    assert np.all(np.abs(lam[:kept] - sing[:kept]) <= 1e-12 * size)
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-12
    assert np.linalg.norm(u @ np.diag(lam) @ u.T - t) <= 1e-12 * size + np.linalg.norm(sing[kept:])


@st.composite
def score_rows(draw):
    """One to four seeded rows of component correlations in [0, 1], all of one
    length 1-16, some rounded to force ties."""
    count, size = draw(st.integers(1, 4)), draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(seeds))
    digits = draw(st.sampled_from([1, 3, 17]))
    return [np.round(rng.uniform(0.0, 1.0, size), digits) for _ in range(count)]


@settings(derandomize=True, max_examples=500, deadline=None)
@given(score_rows(), st.floats(0.005, 0.1))
def test_one_pass_soft_max_equals_soft_worst_row_by_row(rows, temp):
    assert entanglement._soft_worst_rows(rows, temp) == [entanglement._soft_worst(r, temp) for r in rows]
