"""Central numeric defaults shared by the library and the command line."""

HERMITICITY_TOL = 1e-10
"""Largest entrywise deviation from the adjoint a matrix may show."""

TRACE_TOL = 1e-10
"""Allowed |tr - 1| for density operators."""

PSD_TOL = 1e-10
"""How far below zero an eigenvalue may sit before the matrix counts as non-PSD."""

RANK_TOL = 1e-10
"""Relative eigenvalue cutoff for pseudo-inverse square roots and rank counts."""

PROB_SUM_TOL = 1e-12
"""Allowed |sum - 1| for joint probability tables."""

AGREEMENT_TOL = 1e-6
"""Spectral value vs. variational oracle agreement tolerance."""

RECONSTRUCTION_TOL = 1e-8
"""Entrywise residual allowed when a decomposition rebuilds its target."""

TRACE_PRESERVATION_TOL = 1e-9
"""Allowed deviation of sum_k K_k^dag K_k from the identity for channels."""

LAMBDA1_WARN_TOL = 1e-6
"""Leading realignment coefficient must be 1 within this, else a warning."""

RESTARTS = 8
"""Default restart count for the variational oracle and decomposition search."""

COMPONENTS = 8
"""Default number of components k in decomposition search."""

SEARCH_ITERS = 400
"""Default proposals evaluated per decomposition-search restart (two per search step)."""

ORACLE_ITERS = 2000
"""Alternating-update iterations per variational restart."""

TRIALS = 100
"""Default trial count for randomized property suites."""
