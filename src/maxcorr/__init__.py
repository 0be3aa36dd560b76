"""Maximal correlation of bipartite states and certified entanglement bounds.

The imports below are the public API, declared here and nowhere else; no module keeps an __all__.
"""

from .correlation import (
    CorrelationReport,
    ObservablePair,
    VariationalResult,
    extract_witness,
    mu_classical,
    mu_schmidt,
    mu_variational,
)
from .entanglement import (
    Bracket,
    Decomposition,
    IsotropicBounds,
    PptReport,
    bell_fidelity,
    bracket,
    decomposition_search,
    fidelity_mu_lower_bound,
    lambda_bounds,
    mu_ent_upper,
    ppt_check,
    random_povm_decomposition,
    separable_iso_decomposition,
    single_qubit_cliffords,
    twirl_clifford_average,
    twirl_exact,
)
from .errors import (
    DegenerateMarginalError,
    DimensionMismatchError,
    InvalidDecompositionError,
    MaxcorrError,
    NegativeEigenvalueError,
    NotHermitianError,
    NotSquareError,
    ParseError,
    RangeError,
    UnknownSuiteError,
    ValidationError,
)
from .linalg import (
    hermitian_eig,
    partial_trace,
    partial_transpose,
    psd_pinv_sqrt,
    psd_sqrt,
    realign,
    singular_values,
)
from .states import (
    BipartiteState,
    ClassicalJoint,
    LocalChannel,
    StateDiagnostics,
    apply_local,
    bell_projector,
    classical_bsc,
    embed_classical,
    isotropic,
    measure_computational,
    random_channel,
    random_density,
    random_product,
    random_pure,
    tensor_bipartite,
    validate,
)

__version__ = "0.1.0"
