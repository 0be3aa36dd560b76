"""The `search` workload: certified maximal-entanglement brackets on a fixed panel.

Each operation is one certificate: decomposition_search, then mu_ent_upper on
the decomposition it returns, then fidelity_mu_lower_bound for two qubits.
The panel is ROADMAP's bound-quality panel: the noisy Bell states at
eps in {0.1, 0.4, 0.6, 0.7} (eps = 0.7 takes the closed-form Clifford path),
the random two-qubit states with seeds 0-9, and one random 3x3 and 4x4 state.
The panel is the same in every run so bounds compare state by state; the run
seed drives the search seeds, which differ from pass to pass.
"""

from __future__ import annotations

import numpy as np

from common import bell_fidelity, reference_mu, state_defects

ISO_EPS = (0.1, 0.4, 0.6, 0.7)
RANDOM_PANEL = tuple((2, s) for s in range(10)) + ((3, 0), (4, 0))
RECONSTRUCTION_TOL = 1e-8


class SearchWorkload:
    name = "search"
    op_name = "bench.search.certificate"
    min_passes = 3
    """Every run makes at least these passes, so each slot's best latency is
    taken over at least three certificates."""
    cert_passes = 2
    """cert_upper_mean averages over the certificates of these first passes."""

    def __init__(self, mc, seed: int, k: int, iters: int, restarts: int):
        self.mc = mc
        self.seed = seed
        self.budget = {"k": k, "iters": iters, "restarts": restarts}
        self.panel = [(f"iso-{e}", mc.isotropic(e), e) for e in ISO_EPS]
        self.panel += [
            (f"random-{d}x{d}-seed{s}", mc.random_density(d, d, seed=s), None) for d, s in RANDOM_PANEL
        ]
        self.mu = [reference_mu(st.rho, st.d_a, st.d_b) for _, st, _ in self.panel]
        self.first_pass = {}
        self.cert_uppers = {}

    def prepare(self, pass_index: int) -> list:
        seeds = np.random.SeedSequence([self.seed, pass_index]).generate_state(len(self.panel))
        return [(pass_index, i, int(s)) for i, s in enumerate(seeds)]

    def slot(self, request) -> int:
        return request[1]

    def execute(self, request):
        _, i, search_seed = request
        state = self.panel[i][1]
        dec = self.mc.decomposition_search(state, seed=search_seed, **self.budget)
        upper = self.mc.mu_ent_upper(dec)
        lower = self.mc.fidelity_mu_lower_bound(state) if (state.d_a, state.d_b) == (2, 2) else 0.0
        return dec, upper, lower

    def check(self, request, output) -> list:
        pass_index, i, _ = request
        name, state, eps = self.panel[i]
        dec, upper, lower = output
        mu = self.mu[i]
        problems = []
        again = self.mc.mu_ent_upper(dec)
        if again != upper:
            problems.append(f"mu_ent_upper re-check gave {again!r}, certificate says {upper!r}")
        mix = sum(w * c.rho for w, c in zip(dec.weights, dec.components))
        residual = float(np.max(np.abs(mix - state.rho)))
        if residual > RECONSTRUCTION_TOL or abs(float(np.sum(dec.weights)) - 1.0) > 1e-10:
            problems.append(f"decomposition misses its target by {residual:.2e}")
        worst = 0.0
        for c in dec.components:
            bad = state_defects(c.rho)
            if bad:
                problems.append("component is not a state: " + "; ".join(bad))
            worst = max(worst, reference_mu(c.rho, c.d_a, c.d_b))
        if abs(worst - upper) > 1e-9:
            problems.append(f"upper {upper!r} differs from the reference worst component {worst!r}")
        if (state.d_a, state.d_b) == (2, 2):
            expect = max(0.0, 2.0 * bell_fidelity(state.rho) - 1.0)
            if abs(lower - expect) > 1e-12:
                problems.append(f"fidelity lower bound {lower!r}, reference {expect!r}")
        if not lower - 1e-8 <= upper <= mu + 1e-9:
            problems.append(f"bracket broken: lower {lower!r}, upper {upper!r}, mu {mu!r}")
        if eps is not None:
            if eps >= 2.0 / 3.0:
                if upper > 1e-9:
                    problems.append(f"separable noisy Bell state certified {upper!r}, not 0")
            elif not max(0.0, 1.0 - 1.5 * eps) - 1e-8 <= upper <= 1.0 - eps + 1e-9:
                problems.append(f"noisy Bell bracket broken at eps {eps}: upper {upper!r}")
        if pass_index < self.cert_passes:
            self.cert_uppers[pass_index, i] = upper
        if pass_index == 0:
            row = self.first_pass.setdefault(i, {"state": name, "mu": mu, "lower": lower, "upper": upper})
            if row["upper"] != upper:
                problems.append(f"same search seed certified {upper!r}, earlier {row['upper']!r}")
        return [f"{name}: {p}" for p in problems]

    def search_win_ratio(self, tracer) -> float:
        """Searched panel states certified below their mu, over states searched."""
        ops = {span[4] for span in tracer.spans if span[0] == "entanglement.evaluate"}
        searched = {tracer.requests[op][1] for op in ops}
        wins = [i for i in searched if self.first_pass[i]["upper"] < self.mu[i] - 1e-9]
        return len(wins) / len(searched) if searched else 0.0

    def summary(self) -> dict:
        panel = [self.first_pass[i] for i in sorted(self.first_pass)]
        return {
            "cert_upper_mean": float(np.mean(list(self.cert_uppers.values()))) if panel else float("nan"),
            "panel": panel,
            "budget": self.budget,
        }
