"""Exception hierarchy shared by all modules.

Each class names its `kind`, the "error" field of the CLI's error output.
"""


class LieError(Exception):
    """Base class for all errors raised by this package."""
    kind = "error"


class ShapeError(LieError):
    """Matrix dimensions do not match what the operation requires."""
    kind = "shape"


class DomainError(LieError):
    """Input is outside the mathematical domain of the operation."""
    kind = "domain"


class OutOfDomainError(DomainError):
    """Input violates a convergence-domain precondition (e.g. ||A - I|| >= 1)."""
    kind = "out_of_domain"


class ConvergenceError(LieError):
    """An iteration or series failed to converge within its budget."""
    kind = "convergence"


class ClosureError(LieError):
    """A bracket left the span of the supplied basis."""
    kind = "closure"


class InconsistentSamplesError(DomainError):
    """One-parameter samples are not generated by a single matrix."""
    kind = "inconsistent_samples"


class DecompositionError(LieError):
    """Eigenspace extraction could not exhaust the representation space."""
    kind = "decomposition"
