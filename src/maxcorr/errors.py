"""Exception hierarchy for maxcorr.

Everything the library raises on bad input derives from MaxcorrError, so
callers (the CLI in particular) can distinguish usage errors from genuine
property violations.
"""


class MaxcorrError(Exception):
    """Base class for all maxcorr errors."""


class NotSquareError(MaxcorrError):
    """A matrix expected to be square is not."""


class NotHermitianError(MaxcorrError):
    """A matrix deviates from its adjoint beyond tolerance."""


class NegativeEigenvalueError(MaxcorrError):
    """A matrix expected to be positive semidefinite has a negative eigenvalue."""


class DimensionMismatchError(MaxcorrError):
    """Subsystem dimensions do not match the data they describe."""


class RangeError(MaxcorrError, ValueError):
    """A scalar argument lies outside its admissible range."""


class DegenerateMarginalError(MaxcorrError):
    """A joint table without usable support; nothing raises it, as mu_classical keeps each largest marginal."""


class InvalidDecompositionError(MaxcorrError):
    """A convex decomposition fails to rebuild its target or contains bad states."""


class ParseError(MaxcorrError):
    """An input file could not be parsed into the expected schema."""


class ValidationError(MaxcorrError):
    """Parsed input fails the physical validity checks."""


class UnknownSuiteError(MaxcorrError):
    """A property-suite name is not recognized."""
