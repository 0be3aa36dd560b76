"""Property tests of mu and the hermitian ceiling over every dims pair 2x2-4x4,
and of the certified two-qubit bracket.

Examples are drawn deterministically (derandomize=True) with a fixed budget,
so every run checks the same states.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import maxcorr as mc
from test_correlation import haar_unitary, hermitian_ceiling
from test_entanglement import noisy_bell

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)

dims = st.integers(2, 4)
seeds = st.integers(0, 2**32 - 1)


@st.composite
def mixed_states(draw):
    d_a, d_b = draw(dims), draw(dims)
    rank = draw(st.integers(1, d_a * d_b))
    return mc.random_density(d_a, d_b, rank=rank, seed=draw(seeds))


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
@given(two_qubit_states())
@example(noisy_bell(4.0 / 3.0))
def test_fidelity_lower_bound_stays_below_search_certificate(state):
    dec = mc.decomposition_search(state, restarts=0)
    assert mc.fidelity_mu_lower_bound(state) <= mc.mu_ent_upper(dec) + 1e-9
