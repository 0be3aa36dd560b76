import numpy as np
import pytest

import maxcorr as mc
from maxcorr.errors import DimensionMismatchError, RangeError


def test_state_shape_must_match_dims():
    with pytest.raises(DimensionMismatchError):
        mc.BipartiteState(2, 3, np.eye(4) / 4.0)


def test_state_rejects_nonfinite():
    m = np.eye(4) / 4.0
    m[0, 0] = np.nan
    with pytest.raises(RangeError):
        mc.BipartiteState(2, 2, m)


def test_marginals_of_isotropic_are_maximally_mixed():
    st = mc.isotropic(0.3)
    for side in ("A", "B"):
        assert np.max(np.abs(st.marginal(side) - np.eye(2) / 2.0)) < 1e-12


def test_validate_accepts_random_density():
    for seed in range(8):
        st = mc.random_density(3, 2, seed=seed)
        diag = mc.validate(st)
        assert diag.ok, diag.failures
        assert diag.marginal_ranks == (3, 2)


def test_validate_flags_each_failure_kind():
    base = np.eye(4) / 4.0

    skew = base.astype(complex).copy()
    skew[0, 1] = 1e-3
    d = mc.validate(mc.BipartiteState(2, 2, skew))
    assert any(f.startswith("hermiticity:") for f in d.failures)

    d = mc.validate(mc.BipartiteState(2, 2, base * 2.0))
    assert any(f.startswith("normalization:") for f in d.failures)

    neg = base.copy()
    neg[3, 3] = -0.25
    neg[0, 0] = 0.75
    d = mc.validate(mc.BipartiteState(2, 2, neg))
    assert any(f.startswith("positivity:") for f in d.failures)
    assert not d.ok


def test_validate_flags_an_overflowing_state_without_raising():
    # The hermitian part overflows to inf and its eigenvalues come out NaN.
    rho = np.array([[0.0, 1e308 + 1e308j], [1e308 - 1e308j, 1.0]])
    d = mc.validate(mc.BipartiteState(1, 2, rho))
    assert any(f.startswith("positivity:") for f in d.failures)
    assert not d.ok


@pytest.mark.parametrize(
    "rho",
    [np.diag([1e308, 1e308, 1e308, -1e308]), np.full((4, 4), 1e308)],
    ids=["diagonal", "filled"],
)
def test_validate_flags_a_state_whose_spectrum_does_not_converge(rho):
    # The hermitian part overflows to inf + NaN i, where eigvalsh raises rather than returning NaN.
    d = mc.validate(mc.BipartiteState(2, 2, rho))
    assert np.isnan(d.min_eigenvalue)
    assert any(f.startswith("positivity:") for f in d.failures)
    assert not d.ok


def test_bell_projector_is_pure():
    p = mc.bell_projector()
    assert abs(np.trace(p) - 1.0) < 1e-14
    assert np.max(np.abs(p @ p - p)) < 1e-14


def test_isotropic_endpoints():
    assert np.max(np.abs(mc.isotropic(0.0).rho - mc.bell_projector())) < 1e-14
    flat = mc.isotropic(1.0).rho
    assert np.max(np.abs(flat - np.eye(4) / 4.0)) < 1e-14


@pytest.mark.parametrize("eps", [-0.01, 1.01, 2.0])
def test_isotropic_domain(eps):
    with pytest.raises(RangeError):
        mc.isotropic(eps)


def test_measured_isotropic_table():
    """Diagonal measurement of the noisy Bell family gives a known 2x2 table."""
    for eps in (0.0, 0.25, 0.6, 1.0):
        joint = mc.measure_computational(mc.isotropic(eps))
        want = np.array(
            [
                [(2.0 - eps) / 4.0, eps / 4.0],
                [eps / 4.0, (2.0 - eps) / 4.0],
            ]
        )
        assert np.max(np.abs(joint.probs - want)) < 1e-12


def test_classical_bsc_table():
    j = mc.classical_bsc(0.25)
    want = np.array([[0.375, 0.125], [0.125, 0.375]])
    assert np.max(np.abs(j.probs - want)) < 1e-15


def test_joint_rejects_negative_and_unnormalized():
    with pytest.raises(RangeError):
        mc.ClassicalJoint(np.array([[0.6, -0.1], [0.3, 0.2]]))
    with pytest.raises(RangeError):
        mc.ClassicalJoint(np.array([[0.6, 0.1], [0.3, 0.2]]))


def test_embed_classical_is_diagonal():
    st = mc.embed_classical(mc.classical_bsc(0.1))
    off = st.rho - np.diag(np.diag(st.rho))
    assert np.max(np.abs(off)) == 0.0
    assert mc.validate(st).ok


def test_random_density_is_reproducible_and_ranked():
    a = mc.random_density(2, 2, rank=2, seed=42)
    b = mc.random_density(2, 2, rank=2, seed=42)
    assert np.array_equal(a.rho, b.rho)
    w = np.linalg.eigvalsh(a.rho)
    assert np.sum(w > 1e-10) == 2


def test_random_density_rank_domain():
    with pytest.raises(RangeError):
        mc.random_density(2, 2, rank=5, seed=0)
    with pytest.raises(RangeError):
        mc.random_density(2, 2, rank=0, seed=0)


def test_random_pure_purity():
    st = mc.random_pure(2, 3, seed=1)
    assert abs(np.trace(st.rho @ st.rho).real - 1.0) < 1e-12


def test_random_product_marginal_purity_structure():
    st = mc.random_product(2, 3, seed=4)
    rebuilt = np.kron(st.marginal("A"), st.marginal("B"))
    assert np.max(np.abs(rebuilt - st.rho)) < 1e-12


def test_tensor_bipartite_dims_and_marginals():
    r = mc.random_density(2, 2, seed=0)
    s = mc.random_density(2, 2, seed=1)
    t = mc.tensor_bipartite(r, s)
    assert (t.d_a, t.d_b) == (4, 4)
    assert abs(np.trace(t.rho) - 1.0) < 1e-12
    assert np.max(np.abs(t.marginal("A") - np.kron(r.marginal("A"), s.marginal("A")))) < 1e-12


def test_channel_trace_preservation_and_application():
    ch = mc.random_channel(2, 3, kraus_rank=2, seed=8, side="B")
    st = mc.random_density(2, 2, seed=3)
    out = mc.apply_local(st, ch)
    assert (out.d_a, out.d_b) == (2, 3)
    assert abs(np.trace(out.rho) - 1.0) < 1e-9
    assert mc.validate(out).ok


def test_channel_rejects_nonfinite_kraus():
    k = np.eye(2, dtype=complex)
    k[0, 1] = np.nan
    with pytest.raises(RangeError):
        mc.LocalChannel(side="A", kraus=(k,))


def test_channel_needs_enough_output_room():
    with pytest.raises(RangeError):
        mc.random_channel(4, 1, kraus_rank=2, seed=0)


def test_channel_dimension_mismatch_raises():
    ch = mc.random_channel(3, 3, kraus_rank=1, seed=0, side="A")
    with pytest.raises(DimensionMismatchError):
        mc.apply_local(mc.random_density(2, 2, seed=0), ch)


def _split_isotropic(shift):
    """isotropic(0.4) as the even mixture of rho + D and rho - D, D = shift (|01><01| - |10><10|)."""
    rho, d = mc.isotropic(0.4).rho, shift * np.diag([0.0, 1.0, -1.0, 0.0])
    parts = (mc.BipartiteState(2, 2, rho + d), mc.BipartiteState(2, 2, rho - d))
    return mc.Decomposition(target=mc.isotropic(0.4), weights=np.full(2, 0.5), components=parts)


_TWO_BY_THREE = mc.random_density(2, 3, seed=0)
_ROOM = np.eye(4) / 4.0

INPUT_GUARDS = {
    "state-zero-dim": (lambda: mc.BipartiteState(0, 2, np.eye(2)), DimensionMismatchError, "must be positive"),
    "marginal-side": (lambda: mc.isotropic(0.3).marginal("C"), DimensionMismatchError, "side must be 'A' or 'B'"),
    "joint-1d": (lambda: mc.ClassicalJoint(np.array([0.5, 0.5])), DimensionMismatchError, "must be 2-D"),
    "joint-nan": (lambda: mc.ClassicalJoint(np.array([[0.5, np.nan], [0.5, 0.0]])), RangeError, "non-finite"),
    "channel-side": (lambda: mc.LocalChannel(side="C", kraus=(np.eye(2),)), DimensionMismatchError, "side must be"),
    "channel-empty": (lambda: mc.LocalChannel(side="A", kraus=()), RangeError, "at least one Kraus block"),
    "channel-vector": (lambda: mc.LocalChannel(side="A", kraus=(np.ones(2),)), DimensionMismatchError, "matrices"),
    "channel-shapes": (
        lambda: mc.LocalChannel(side="A", kraus=(np.eye(2), np.eye(3))),
        DimensionMismatchError,
        "share one shape",
    ),
    "channel-inf": (lambda: mc.LocalChannel(side="B", kraus=(np.diag([1.0, np.inf]),)), RangeError, "non-finite"),
    "channel-not-tp": (lambda: mc.LocalChannel(side="A", kraus=(2.0 * np.eye(2),)), RangeError, "trace preservation"),
    "bsc-epsilon": (lambda: mc.classical_bsc(1.5), RangeError, r"epsilon must lie in \[0, 1\]"),
    "measure-zero": (
        lambda: mc.measure_computational(mc.BipartiteState(2, 2, np.zeros((4, 4)))),
        RangeError,
        "no diagonal weight",
    ),
    "random-channel-dims": (lambda: mc.random_channel(0, 2, 1), RangeError, "must be positive"),
    "apply-local-d-in": (
        lambda: mc.apply_local(mc.random_density(2, 2, seed=0), mc.random_channel(3, 3, 1, side="B")),
        DimensionMismatchError,
        "channel expects d_in = 3",
    ),
    "decomposition-negative-weight": (
        lambda: mc.Decomposition(
            target=mc.isotropic(0.4), weights=np.array([1.5, -0.5]), components=(mc.isotropic(0.4),) * 2
        ),
        mc.InvalidDecompositionError,
        "negative weight",
    ),
    "decomposition-dims": (
        lambda: mc.Decomposition(target=mc.isotropic(0.4), weights=np.ones(1), components=(_TWO_BY_THREE,)),
        DimensionMismatchError,
        "component dimensions differ",
    ),
    "mu-ent-upper-not-psd": (lambda: mc.mu_ent_upper(_split_isotropic(0.3)), mc.InvalidDecompositionError, "component"),
    "bell-fidelity-2x3": (lambda: mc.bell_fidelity(_TWO_BY_THREE), DimensionMismatchError, "two-qubit"),
    "clifford-twirl-2x3": (lambda: mc.twirl_clifford_average(_TWO_BY_THREE), DimensionMismatchError, "two-qubit"),
    "partial-trace-zero-dim": (lambda: mc.partial_trace(_ROOM, 0, 4, "A"), DimensionMismatchError, "must be positive"),
    "partial-trace-side": (lambda: mc.partial_trace(_ROOM, 2, 2, "C"), DimensionMismatchError, "side must be"),
    "partial-transpose-side": (lambda: mc.partial_transpose(_ROOM, 2, 2, "C"), DimensionMismatchError, "side must"),
    "hermitian-eig-2x3": (lambda: mc.hermitian_eig(np.ones((2, 3))), mc.NotSquareError, "square matrix"),
}


@pytest.mark.parametrize("case", INPUT_GUARDS, ids=list(INPUT_GUARDS))
def test_each_input_guard_raises_its_documented_error(case):
    call, error, message = INPUT_GUARDS[case]
    with pytest.raises(error, match=message):
        call()


def test_mu_schmidt_warns_on_a_leading_coefficient_above_one():
    """I/4 + 0.3 (XX + YY + ZZ) has PSD marginals I/2 but eigenvalue -0.65: its leading coefficient is 1.2."""
    x, y, z = np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])
    rho = np.eye(4) / 4.0 + 0.3 * sum(np.kron(p, p) for p in (x, y, z))
    rep = mc.mu_schmidt(mc.BipartiteState(2, 2, rho))
    assert abs(rep.lambda1_deviation - 0.2) < 1e-12
    assert rep.warnings == (
        "leading Schmidt coefficient off by 2.000e-01; the input may not be a valid normalized state",
    )
