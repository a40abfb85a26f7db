"""Exception hierarchy shared across the package."""


class EstimationError(Exception):
    """Base class for all multiphase errors."""


class NotHermitianError(EstimationError):
    """Matrix violates the Hermitian symmetry tolerance."""


class NotSquareError(EstimationError):
    """Operation requires a square matrix."""


class NotUnitaryError(EstimationError):
    """Matrix violates the unitarity tolerance."""


class DimensionMismatchError(EstimationError):
    """Operand shapes are incompatible."""


class ComplexGramError(EstimationError):
    """Pairwise inner products have imaginary parts beyond tolerance.

    Raised by the real-coefficient Gram-Schmidt when the input span does
    not admit real expansion coefficients; downstream this signals a
    weak-commutativity failure.
    """


class SizeOverflowError(EstimationError):
    """Requested basis exceeds the configured dimension cap."""


class BasisMismatchError(EstimationError):
    """States or projectors refer to different Fock bases."""


class IncompleteSetError(EstimationError):
    """A complete projector set is required."""


class LimitNonConvergentError(EstimationError):
    """A singular-outcome limit did not converge.

    No longer raised, since those limits are now taken in closed form;
    kept for callers that still name it.
    """


class StepTooLargeError(EstimationError):
    """Finite-difference step too coarse for the probability landscape."""


class InternalInconsistencyError(EstimationError):
    """Theory and numerics disagree; never swallowed."""
