import itertools
import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import maxcorr as mc
from maxcorr import cli
from maxcorr.cli import main, read_state_file, write_joint_csv, write_state_file
from maxcorr.errors import ParseError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def report(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code in (0, 1), err
    return code, json.loads(out)


def test_gen_and_mu_roundtrip(tmp_path, capsys):
    path = str(tmp_path / "iso.json")
    code, rep = report(capsys, "gen", "isotropic", "0.4", "-o", path)
    assert code == 0
    assert rep["results"]["digest"].startswith("sha256:")

    code, rep = report(capsys, "mu", path)
    assert code == 0
    assert abs(rep["results"]["mu"] - 0.6) < 1e-10
    assert rep["results"]["marginal_ranks"] == [2, 2]
    assert rep["warnings"] == []


def test_state_file_roundtrip(tmp_path):
    st = mc.random_density(3, 2, seed=7)
    path = str(tmp_path / "st.json")
    write_state_file(path, st)
    back = read_state_file(path)
    assert (back.d_a, back.d_b) == (3, 2)
    assert np.max(np.abs(back.rho - st.rho)) < 1e-15


def test_mu_witness_payload(tmp_path, capsys):
    path = str(tmp_path / "iso.json")
    report(capsys, "gen", "isotropic", "0.2", "-o", path)
    code, rep = report(capsys, "mu", path, "--witness")
    assert code == 0
    w = rep["results"]["witness"]
    assert w["hermitian"] is True
    assert abs(w["objective"] - 0.8) < 1e-10
    assert abs(w["mean_x"][0]) < 1e-10 and abs(w["mean_x"][1]) < 1e-10


def test_mu_oracle_agreement(tmp_path, capsys):
    path = str(tmp_path / "st.json")
    report(capsys, "gen", "random", "--da", "2", "--db", "3", "--seed", "5", "-o", path)
    code, rep = report(capsys, "mu", path, "--oracle", "--restarts", "4", "--seed", "2")
    assert code == 0
    assert rep["results"]["oracle"]["agrees"] is True


@pytest.mark.parametrize("dims", [("1", "1"), ("1", "2"), ("2", "1"), ("1", "4"), ("4", "1")])
def test_mu_oracle_on_a_side_of_dimension_one_reports_zero(tmp_path, capsys, dims):
    path = str(tmp_path / "st.json")
    report(capsys, "gen", "random", "--da", dims[0], "--db", dims[1], "--seed", "1", "-o", path)
    code, rep = report(capsys, "mu", path, "--oracle")
    assert code == 0
    assert rep["results"]["mu"] == 0.0
    assert rep["results"]["oracle"] == {"value": 0.0, "gap": 0.0, "converged": True, "agrees": True}
    assert rep["warnings"] == []


@pytest.mark.parametrize("oracle", [(), ("--oracle",)], ids=["witness", "witness-oracle"])
@pytest.mark.parametrize("state", ["2x1", "1x3", "product-2x2"])
def test_mu_witness_at_zero_correlation_reports_no_witness(tmp_path, capsys, state, oracle):
    path = str(tmp_path / "st.json")
    if state == "product-2x2":
        write_state_file(path, mc.random_product(2, 2, seed=3))
    else:
        report(capsys, "gen", "random", "--da", state[0], "--db", state[2], "--seed", "1", "-o", path)
    code, rep = report(capsys, "mu", path, "--witness", *oracle)
    assert code == 0
    assert rep["results"]["mu"] < 1e-12
    assert "witness" not in rep["results"]
    if oracle:
        assert rep["results"]["oracle"]["agrees"] is True


def test_reports_are_deterministic_apart_from_timing(tmp_path, capsys):
    path = str(tmp_path / "st.json")
    report(capsys, "gen", "random", "--da", "2", "--db", "2", "--seed", "9", "-o", path)
    _, first = report(capsys, "ment", path, "--restarts", "1", "--iters", "40", "--seed", "3")
    _, second = report(capsys, "ment", path, "--restarts", "1", "--iters", "40", "--seed", "3")
    first.pop("timing")
    second.pop("timing")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_mu_classical_on_generated_table(tmp_path, capsys):
    path = str(tmp_path / "bsc.csv")
    report(capsys, "gen", "bsc", "0.25", "-o", path)
    code, rep = report(capsys, "mu-classical", path)
    assert code == 0
    assert abs(rep["results"]["mu"] - 0.5) < 1e-12


def test_mu_classical_rejects_bad_table(tmp_path, capsys):
    path = str(tmp_path / "bad.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("0.5, 0.6\n0.2, 0.2\n")
    code, out, err = run(capsys, "mu-classical", path)
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["mu-classical", "{ragged}"], "not a rectangular CSV of numbers"),
        (["suite", "dpi", "--dims", "2x2x2"], "dims must look like '2x2', got '2x2x2'"),
        (["suite", "dpi", "--dims", "2x"], "dims must look like '2x2', got '2x'"),
        (["suite", "dpi", "--dims", "ax2"], "dims must look like '2x2', got 'ax2'"),
        (["suite", "dpi", "--trials", "0"], "trials must be positive, got 0"),
        (["ment", "{ragged}", "--k", "257"], "k must lie in [1, 256], got 257"),
    ],
    ids=["ragged-csv", "dims-three-parts", "dims-empty-side", "dims-not-a-number", "zero-trials", "ment-k-257"],
)
def test_malformed_argument_is_one_error_line(tmp_path, capsys, argv, message):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("0.25,0.25\n0.5\n", encoding="utf-8")
    code, out, err = run(capsys, *[a.format(ragged=ragged) for a in argv])
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("text", ["", " \n\t\n", "# c\n# d\n"])
def test_mu_classical_reports_an_empty_table_in_one_line(tmp_path, capsys, text):
    path = tmp_path / "empty.csv"
    path.write_text(text, encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "mu-classical", str(path))
    assert (code, out, caught) == (2, "", [])
    assert err.splitlines() == [f"error: {path}: empty table"]
    assert "Warning" not in err


@pytest.mark.parametrize(
    "text",
    [
        "0.1,0.2,0.3\n0.15,0.05,0.2\n   \n",
        "0.1,0.2,0.3\n0.15,0.05,0.2\n\t\n",
        " \n0.1,0.2,0.3\n\t\n0.15,0.05,0.2\n \t \n\t\n",
    ],
    ids=["trailing-spaces", "trailing-tab", "interleaved"],
)
def test_mu_classical_reads_whitespace_only_lines_as_blank(tmp_path, capsys, text):
    plain, padded = tmp_path / "plain.csv", tmp_path / "padded.csv"
    plain.write_text("0.1,0.2,0.3\n0.15,0.05,0.2\n", encoding="utf-8")
    padded.write_text(text, encoding="utf-8")
    (_, want), (_, got) = (report(capsys, "mu-classical", str(p)) for p in (plain, padded))
    for rep in (want, got):
        del rep["inputs"], rep["timing"]
    assert got == want


def test_mu_classical_reports_non_utf8_bytes_in_one_line(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"0.5,0.5\n\xff,0\n")
    code, out, err = run(capsys, "mu-classical", str(path))
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        f"error: {path}: not a rectangular CSV of numbers "
        "('utf-8' codec can't decode byte 0xff in position 8: invalid start byte)"
    ]


def test_ment_detects_separable_family_member(tmp_path, capsys):
    path = str(tmp_path / "iso07.json")
    report(capsys, "gen", "isotropic", "0.7", "-o", path)
    code, rep = report(capsys, "ment", path, "--restarts", "0")
    assert code == 0
    res = rep["results"]
    assert res["upper_bound"] <= 1e-8
    assert res["ppt"]["is_ppt"] is True
    assert res["isotropic"]["separable"] is True
    assert abs(res["isotropic"]["epsilon"] - 0.7) < 1e-9


def test_ment_certifies_the_bell_fidelity_zero_member(tmp_path, capsys):
    """(I - |Phi+><Phi+|)/3 is the separable noisy Bell state at noise 4/3."""
    path = str(tmp_path / "anti.json")
    write_state_file(path, mc.BipartiteState(2, 2, (np.eye(4) - mc.bell_projector()) / 3.0))
    code, rep = report(capsys, "ment", path, "--restarts", "0")
    assert code == 0
    assert rep["results"]["upper_bound"] <= 1e-8


def test_ment_certifies_a_rank_two_product_mixture_at_zero(tmp_path, capsys):
    """(|00><00| + |a+><a+|)/2 with a = cos(pi/6)|0> + sin(pi/6)|1>: separable, rank 2."""
    a = np.array([np.cos(np.pi / 6.0), np.sin(np.pi / 6.0)])
    vs = [np.kron([1.0, 0.0], [1.0, 0.0]), np.kron(a, np.array([1.0, 1.0]) / np.sqrt(2.0))]
    path = str(tmp_path / "mix.json")
    write_state_file(path, mc.BipartiteState(2, 2, sum(np.outer(v, v) for v in vs) / 2.0))
    code, rep = report(capsys, "ment", path)
    assert code == 0
    assert rep["results"]["upper_bound"] <= 1e-12


def test_ment_on_bell_state(tmp_path, capsys):
    path = str(tmp_path / "bell.json")
    report(capsys, "gen", "isotropic", "0.0", "-o", path)
    code, rep = report(capsys, "ment", path, "--restarts", "0")
    res = rep["results"]
    assert abs(res["upper_bound"] - 1.0) < 1e-9
    assert abs(res["lower_bound"] - 1.0) < 1e-9
    assert res["ppt"]["is_ppt"] is False


def test_ment_on_a_bell_state_rounded_above_fidelity_one(tmp_path, capsys):
    """Entries of 0.5 + 2e-16 put the Bell fidelity a few ulps above 1; the noise is 0."""
    rho = np.zeros((4, 4))
    rho[np.ix_([0, 3], [0, 3])] = 0.5000000000000002
    path = str(tmp_path / "bell.json")
    write_state_file(path, mc.BipartiteState(2, 2, rho))
    code, rep = report(capsys, "ment", path, "--restarts", "0")
    assert code == 0
    assert rep["results"]["isotropic"]["epsilon"] == 0.0


def test_twirl_of_a_bell_state_rounded_above_fidelity_one(tmp_path, capsys):
    """The same rounded Bell state twirls to noise 0, not to a few ulps below it."""
    rho = np.zeros((4, 4))
    rho[np.ix_([0, 3], [0, 3])] = 0.5000000000000002
    path = str(tmp_path / "bell.json")
    write_state_file(path, mc.BipartiteState(2, 2, rho))
    code, rep = report(capsys, "twirl", path)
    assert code == 0
    assert rep["results"]["epsilon"] == 0.0


@pytest.mark.parametrize("dims,seed", [(("2", "2"), "9"), (("3", "3"), "0")])
def test_ment_component_mu_meets_upper_bound_exactly(tmp_path, capsys, dims, seed):
    path = str(tmp_path / "st.json")
    report(capsys, "gen", "random", "--da", dims[0], "--db", dims[1], "--seed", seed, "-o", path)
    _, rep = report(capsys, "ment", path, "--restarts", "1", "--iters", "120", "--seed", "0")
    res = rep["results"]
    assert max(res["decomposition"]["component_mu"]) == res["upper_bound"]


def test_ment_trivial_certificate_equals_mu(tmp_path, capsys):
    """With no search the certificate is the state itself, so upper_bound is mu to the last bit."""
    path = str(tmp_path / "st.json")
    report(capsys, "gen", "random", "--da", "3", "--db", "2", "--seed", "3", "-o", path)
    _, rep = report(capsys, "ment", path, "--restarts", "0")
    res = rep["results"]
    assert res["upper_bound"] == res["mu"]
    assert res["decomposition"]["component_mu"] == [res["mu"]]


def test_iso_bounds_command(capsys):
    code, rep = report(capsys, "iso-bounds", "--epsilon", "0.4")
    assert code == 0
    res = rep["results"]
    assert abs(res["lower"] - 0.4) < 1e-12
    assert abs(res["upper"] - 0.6) < 1e-12
    assert res["separable"] is False

    code, _, err = run(capsys, "iso-bounds", "--epsilon", "1.4")
    assert code == 2


def test_twirl_command_reports_family_parameter(tmp_path, capsys):
    path = str(tmp_path / "st.json")
    report(capsys, "gen", "random", "--da", "2", "--db", "2", "--seed", "11", "-o", path)
    code, rep = report(capsys, "twirl", path)
    assert code == 0
    res = rep["results"]
    assert res["clifford_average_gap"] < 1e-10
    assert abs(res["bell_fidelity_in"] - res["bell_fidelity_out"]) < 1e-10
    twirled = np.array(
        [[complex(re, im) for re, im in row] for row in res["state"]["matrix"]]
    )
    iso = mc.isotropic(min(max(res["epsilon"], 0.0), 1.0))
    if 0.0 <= res["epsilon"] <= 1.0:
        assert np.max(np.abs(twirled - iso.rho)) < 1e-9


def test_ppt_command(tmp_path, capsys):
    path = str(tmp_path / "iso.json")
    report(capsys, "gen", "isotropic", "0.5", "-o", path)
    code, rep = report(capsys, "ppt", path)
    assert code == 0
    assert rep["results"]["is_ppt"] is False
    assert abs(rep["results"]["min_eigenvalue"] + 0.125) < 1e-10


@pytest.mark.parametrize(
    "name,trials", [("dpi", 5), ("tensor", 4), ("extremes", 4), ("semicontinuity", 4)]
)
def test_property_suites_pass(name, trials, capsys):
    code, rep = report(capsys, "suite", name, "--trials", str(trials), "--seed", "1")
    assert code == 0
    assert rep["results"]["violations"] == 0


@pytest.mark.parametrize("dims", ["1x3", "3x1"])
def test_extremes_suite_on_a_side_of_dimension_one(dims, capsys):
    """A pure state with a one-dimensional side is a product, so the suite expects mu 0 there."""
    code, rep = report(capsys, "suite", "extremes", "--trials", "4", "--seed", "2", "--dims", dims)
    assert code == 0
    assert rep["results"]["violations"] == 0
    assert rep["results"]["worst_pure_mu"] == 0.0


@pytest.mark.parametrize("dims", ["1x2", "2x2"])
def test_extremes_suite_reports_no_worst_value_for_a_family_no_trial_drew(dims, capsys):
    """One trial draws one product state and no pure state: the pure family's worst value is null."""
    code, rep = report(capsys, "suite", "extremes", "--trials", "1", "--dims", dims)
    assert code == 0
    assert rep["results"]["violations"] == 0
    assert rep["results"]["worst_pure_mu"] is None
    assert 0.0 <= rep["results"]["worst_product_mu"] < 1e-8


def test_ment_suites_pass(capsys):
    code, rep = report(capsys, "suite", "ment-dpi", "--trials", "2", "--seed", "4")
    assert code == 0
    code, rep = report(capsys, "suite", "ment-tensor", "--trials", "2", "--seed", "4")
    assert code == 0


def _iso04(tmp_path, capsys):
    path = str(tmp_path / "iso04.json")
    report(capsys, "gen", "isotropic", "0.4", "-o", path)
    return path


def _fake_oracle(value, converged):
    return lambda state, restarts, seed: mc.VariationalResult(value, None, converged, 1)


def _fake_bracket(state, **kwargs):
    dec = mc.Decomposition(target=state, weights=np.ones(1), components=(state,))
    return mc.Bracket(lower=0.6, upper=0.5, decomposition=dec, component_mu=np.array([0.5]))


def _off_clifford_average(state):
    return mc.BipartiteState(2, 2, cli.twirl_exact(state).rho + 1e-9 * np.diag([1.0, -1.0, 0.0, 0.0]))


def _const_mu(*args, **kwargs):
    return mc.CorrelationReport(mu=0.5, schmidt=np.array([1.0, 0.5]), lambda1_deviation=0.0, marginal_ranks=(2, 2))


@pytest.mark.parametrize(
    "name,fake,argv,warning",
    [
        ("mu_variational", _fake_oracle(0.5, True), ("mu", "{state}", "--oracle"), "oracle value 0.5 outside"),
        ("twirl_clifford_average", _off_clifford_average, ("twirl", "{state}"), "Clifford average disagree"),
        ("bracket", _fake_bracket, ("ment", "{state}", "--restarts", "0"), "certified bounds crossed"),
        ("mu_schmidt", _const_mu, ("suite", "extremes", "--trials", "4"), "4 trial(s) violated"),
        ("mu_classical", _const_mu, ("suite", "semicontinuity"), "5 trial(s) violated"),
    ],
    ids=["mu-oracle", "twirl", "ment", "suite-extremes", "suite-semicontinuity"],
)
def test_a_failed_invariant_prints_its_report_and_exits_one(tmp_path, capsys, monkeypatch, name, fake, argv, warning):
    state = _iso04(tmp_path, capsys)
    monkeypatch.setattr(cli, name, fake)
    code, rep = report(capsys, *(a.format(state=state) for a in argv))
    assert code == 1
    assert any(warning in w for w in rep["warnings"]), rep["warnings"]


def test_a_non_converged_oracle_inside_the_window_only_warns(tmp_path, capsys, monkeypatch):
    state = _iso04(tmp_path, capsys)
    monkeypatch.setattr(cli, "mu_variational", _fake_oracle(0.6, False))
    code, rep = report(capsys, "mu", state, "--oracle")
    assert code == 0
    assert rep["results"]["oracle"]["agrees"] is True
    assert rep["warnings"] == ["oracle did not converge; its value is still a feasible lower estimate"]


@pytest.mark.parametrize("key", ["worst_margin", "worst_gap"])
def test_trial_suite_keeps_no_value_per_trial(key):
    """A suite streams its trials: 20,000 of them keep a running worst and count, not a list."""
    run = cli._trial_suite(lambda t, s, d_a, d_b: (t % 7 - 3) * 1e-3, key)
    run(1, 0, (2, 2))  # the first seed draw imports numpy.random
    tracemalloc.start()
    try:
        results, violations = run(20_000, 0, (2, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert results == {"trials": 20_000, key: -3e-3 if key == "worst_margin" else 3e-3}
    assert violations == (8572 if key == "worst_margin" else 8571)  # t % 7 in (0, 1, 2) or in (4, 5, 6)


def test_trial_seeds_are_drawn_lazily():
    # A batched draw of 10**12 seeds would need terabytes; the lazy one gives the same first values.
    batched = np.random.default_rng(1).integers(0, 2**63 - 1, size=12).tolist()
    assert list(itertools.islice(cli._trial_seeds(1, 10**12), 12)) == batched


def test_suite_rejects_unknown_name(capsys):
    code, out, err = run(capsys, "suite", "nonsense", "--trials", "2")
    assert code == 2
    assert "unknown suite" in err


def test_missing_file_is_an_input_error(capsys):
    code, out, err = run(capsys, "mu", "/no/such/file.json")
    assert code == 2


@pytest.mark.parametrize(
    "raw",
    [b'{"dims": [2, 2]}', b"\xff\xfe\x00garbage", b"[" * 100000],
    ids=["missing-matrix", "not-utf8", "nested-too-deep"],
)
def test_malformed_state_file_is_an_input_error(tmp_path, capsys, raw):
    path = tmp_path / "broken.json"
    path.write_bytes(raw)
    code, out, err = run(capsys, "mu", str(path))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_overflowing_state_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "huge.json"
    matrix = [[[0, 0], [1e308, 1e308]], [[1e308, -1e308], [1, 0]]]
    path.write_text(json.dumps({"dims": [1, 2], "matrix": matrix}), encoding="utf-8")
    for command in ("mu", "ment"):
        code, out, err = run(capsys, command, str(path))
        assert code == 2
        assert err.startswith("error:")
        assert out == ""


@pytest.mark.parametrize("command", ["mu", "ppt", "ment"])
@pytest.mark.parametrize(
    "rho",
    [np.diag([1e308, 1e308, 1e308, -1e308]), np.full((4, 4), 1e308)],
    ids=["diagonal", "filled"],
)
def test_a_state_whose_spectrum_does_not_converge_is_an_input_error(tmp_path, capsys, rho, command):
    path = str(tmp_path / "huge.json")
    write_state_file(path, mc.BipartiteState(2, 2, rho))
    code, out, err = run(capsys, command, path)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def _half_identity(n):
    return [[[0.5 if i == j else 0.0, 0.0] for j in range(n)] for i in range(n)]


@pytest.mark.parametrize(
    "payload",
    [
        {"dims": [True, 2], "matrix": _half_identity(2)},
        {"dims": [1, 2], "matrix": [[[0.5, False], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]},
        {"dims": [5, 1], "matrix": [[[0.2 if i == j else 0.0, 0.0] for j in range(5)] for i in range(5)]},
        {"dims": [1, 2], "matrix": [[[10**400, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]},
        {"dims": [1, 2], "matrix": _half_identity(2)[:1]},
        {"dims": [1, 2], "matrix": [[[0.5, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]},
        {"dims": [1, 2], "matrix": [[[float("inf"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]},
    ],
    ids=["bool-dims", "bool-cell", "oversized-dims", "huge-int-cell", "missing-row", "short-row", "infinite-cell"],
)
def test_state_file_edges_are_parse_errors(tmp_path, capsys, payload):
    path = str(tmp_path / "edge.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    with pytest.raises(ParseError):
        read_state_file(path)
    code, out, err = run(capsys, "mu", path)
    assert code == 2
    assert err.startswith("error:")


GOLDEN = Path(__file__).parent / "data" / "golden"


@pytest.mark.parametrize(
    "argv,golden",
    [
        (["random", "--da", "2", "--db", "3", "--seed", "5"], "random23.json"),
        (["random", "--da", "2", "--db", "2", "--seed", "9"], "random22.json"),
        (["random", "--da", "3", "--db", "3", "--rank", "2", "--seed", "4"], "random33r2.json"),
        (["random", "--da", "2", "--db", "3", "--rank", "1", "--seed", "0"], "pure23.json"),
        (["isotropic", "0.2"], "iso02.json"),
    ],
    ids=["random23", "random22", "random33r2", "pure23", "iso02"],
)
def test_gen_reproduces_golden_inputs(tmp_path, capsys, argv, golden):
    path = tmp_path / golden
    code, _ = report(capsys, "gen", *argv, "-o", str(path))
    assert code == 0
    assert path.read_bytes() == (GOLDEN / golden).read_bytes()


def test_gen_rejects_oversized_dims(capsys, tmp_path):
    code, out, err = run(
        capsys, "gen", "random", "--da", "5", "--db", "2", "-o", str(tmp_path / "x.json")
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["mu", "{state}", "--oracle", "--seed", "-5"],
        ["ment", "{state}", "--restarts", "1", "--seed", "-1"],
        ["suite", "dpi", "--trials", "2", "--seed", "-1"],
        ["gen", "random", "--da", "2", "--db", "2", "--seed", "-3", "-o", "{out}"],
    ],
    ids=["mu", "ment", "suite", "gen"],
)
def test_negative_seed_is_a_usage_error(tmp_path, capsys, argv):
    state, out = tmp_path / "s.json", tmp_path / "x.json"
    write_state_file(str(state), mc.isotropic(0.3))
    with pytest.raises(SystemExit) as exc:
        main([a.format(state=state, out=out) for a in argv])
    assert exc.value.code == 2
    assert "--seed: expected a non-negative integer" in capsys.readouterr().err
    assert not out.exists()


def test_environment_does_not_change_reports(tmp_path, capsys, monkeypatch):
    """A stray MAXCORR_TOL, once an agreement-tolerance override, changes no exit code, file or report."""
    path = tmp_path / "iso.json"

    def session():
        reps = []
        for argv in (("gen", "isotropic", "0.3", "-o", str(path)), ("mu", str(path), "--oracle")):
            code, rep = report(capsys, *argv)
            assert code == 0
            rep.pop("timing")
            reps.append(rep)
        return reps

    want = session()
    path.unlink()
    monkeypatch.setenv("MAXCORR_TOL", "banana")
    got = session()
    assert path.exists()
    assert got[1]["tolerances"]["agreement_tol"] == 1e-6
    assert got == want


def test_csv_joint_roundtrip(tmp_path):
    joint = mc.ClassicalJoint(np.array([[0.3, 0.2], [0.1, 0.4]]))
    path = str(tmp_path / "j.csv")
    write_joint_csv(path, joint)
    from maxcorr.cli import read_joint_csv

    back = read_joint_csv(path)
    assert np.max(np.abs(back.probs - joint.probs)) < 1e-15
