"""The `spectral` workload: a seeded stream of mu requests, no search.

Every pass is stratified, so each run sees the same mix: random states on
every dimension pair from 2x2 to 4x4 at every rank from 1 to full (so the
rank cutoff is exercised), plus the closed-form families (noisy Bell states,
random product and pure states) and classical joint tables (binary symmetric
channels and random tables). Every quantum request runs mu_schmidt; a fixed
share of the random ones also builds the witness (extract_witness), and
another share runs the `mu --witness --oracle --restarts 2` path (witness
plus mu_variational). The shares put roughly a third of the time on each of
the three paths. The mix is fixed: every pass of every run fills the same
282 slots (family, path, dimensions and rank) with states drawn from the
seed.
"""

from __future__ import annotations

import numpy as np

from common import reference_mu, reference_mu_classical

DIMS = tuple((a, b) for a in (2, 3, 4) for b in (2, 3, 4))
RANDOM_REPEATS = 3
WITNESS_PER_PASS = 12
ORACLE_PER_PASS = 6
ORACLE_RESTARTS = 2
AGREEMENT_TOL = 1e-6
"""The CLI's oracle rule: mu - max(tol, 1e-4) <= oracle <= mu + tol."""
VALUE_TOL = 1e-9
FEASIBILITY_TOL = 1e-7


class SpectralWorkload:
    name = "spectral"
    op_name = "bench.spectral.request"
    min_passes = 4
    """Every run makes these passes; cert_upper_mean averages over them."""

    def __init__(self, mc, seed: int):
        self.mc = mc
        self.seed = seed
        self.cert_mus = {}
        self.slots = self._slots()

    @staticmethod
    def _slots() -> list:
        """(family, path, shape) of every request in a pass.

        The slots are the same in every pass and every run; the seed draws only
        the states that fill them. So a slot costs nearly the same each time,
        and its best latency over the passes of a run can be taken.
        """
        random = [
            ["random", "mu", (da, db, rank)]
            for da, db in DIMS
            for rank in range(1, da * db + 1)
            for _ in range(RANDOM_REPEATS)
        ]
        # The witness and oracle paths cost far more on 4x4 than on 2x2, so
        # they rotate through the dimension pairs, each on a full-rank state.
        slow = ["witness"] * WITNESS_PER_PASS + ["oracle"] * ORACLE_PER_PASS
        for j, path in enumerate(slow):
            pair = DIMS[j % len(DIMS)]
            free = [r for r in random if r[2][:2] == pair and r[1] == "mu"]
            free[-1][1] = path
        slots = [tuple(r) for r in random]
        slots += [("product", "mu", pair) for pair in DIMS]
        slots += [("pure", "mu", pair) for pair in DIMS]
        slots += [("isotropic", "mu", None)] * 6
        slots += [("bsc", "classical", None)] * 6
        slots += [("table", "classical", (rows, cols)) for rows in (2, 3, 4) for cols in (2, 3, 4)]
        return slots

    def prepare(self, pass_index: int) -> list:
        mc = self.mc
        rng = np.random.default_rng([self.seed, pass_index])

        def sub_seed() -> int:
            return int(rng.integers(2**62))

        requests = []
        for family, path, shape in self.slots:
            if family == "random":
                da, db, rank = shape
                data, expect = mc.random_density(da, db, rank=rank, seed=sub_seed()), None
            elif family == "product":
                data, expect = mc.random_product(*shape, seed=sub_seed()), 0.0
            elif family == "pure":
                data, expect = mc.random_pure(*shape, seed=sub_seed()), 1.0
            elif family == "isotropic":
                eps = float(rng.uniform(0.02, 0.98))
                data, expect = mc.isotropic(eps), 1.0 - eps
            elif family == "bsc":
                eps = float(rng.uniform(0.0, 1.0))
                data, expect = mc.classical_bsc(eps), abs(1.0 - 2.0 * eps)
            else:
                table = rng.dirichlet(np.ones(shape[0] * shape[1])).reshape(shape)
                data, expect = mc.ClassicalJoint(table / table.sum()), None
            requests.append((family, path, data, expect))
        order = rng.permutation(len(requests))
        return [(pass_index, sub_seed(), int(i)) + requests[i] for i in order]

    def slot(self, request) -> int:
        return request[2]

    def execute(self, request):
        _, request_seed, _slot, _family, path, data, _expect = request
        if path == "classical":
            return self.mc.mu_classical(data), None
        report = self.mc.mu_schmidt(data, witness=path != "mu")
        oracle = None
        if path == "oracle":
            oracle = self.mc.mu_variational(data, restarts=ORACLE_RESTARTS, seed=request_seed)
        return report, oracle

    def check(self, request, output) -> list:
        pass_index, request_seed, _slot, family, path, data, expect = request
        report, oracle = output
        mu = report.mu
        problems = []
        if path == "classical":
            ref = reference_mu_classical(data.probs)
        else:
            ref = reference_mu(data.rho, data.d_a, data.d_b)
        if abs(mu - ref) > VALUE_TOL:
            problems.append(f"mu {mu!r}, reference {ref!r}")
        if expect is not None and abs(mu - expect) > VALUE_TOL:
            problems.append(f"mu {mu!r}, closed form {expect!r}")
        if path in ("witness", "oracle"):
            problems += _witness_problems(data, report.witness, mu)
        if oracle is not None:
            low, high = mu - max(AGREEMENT_TOL, 1e-4), mu + AGREEMENT_TOL
            if not low <= oracle.value <= high:
                problems.append(f"oracle {oracle.value!r} outside [{low!r}, {high!r}]")
        if pass_index < self.min_passes:
            self.cert_mus[pass_index, request_seed] = mu
        return [f"{family}/{path}: {p}" for p in problems]

    def summary(self) -> dict:
        return {"cert_upper_mean": float(np.mean(list(self.cert_mus.values()))) if self.cert_mus else float("nan")}


def _witness_problems(state, pair, mu: float) -> list:
    """The observable pair must be feasible and reach mu, recomputed here."""
    if pair is None:
        return ["no witness attached"]
    rho4 = state.rho.reshape(state.d_a, state.d_b, state.d_a, state.d_b)
    rho_a = np.einsum("ijkj->ik", rho4)
    rho_b = np.einsum("ijik->jk", rho4)
    x, y = pair.x, pair.y
    mean_x = abs(np.trace(rho_a @ x))
    mean_y = abs(np.trace(rho_b @ y))
    var_x = np.real(np.trace(rho_a @ x @ x.conj().T))
    var_y = np.real(np.trace(rho_b @ y @ y.conj().T))
    value = abs(np.einsum("ijkl,ki,lj->", rho4, x, y.conj().T))
    out = []
    if max(mean_x, mean_y, abs(var_x - 1.0), abs(var_y - 1.0)) > FEASIBILITY_TOL:
        out.append(f"witness infeasible: means {mean_x:.1e} {mean_y:.1e}, moments {var_x!r} {var_y!r}")
    if abs(value - mu) > FEASIBILITY_TOL:
        out.append(f"witness reaches {value!r}, mu is {mu!r}")
    return out
