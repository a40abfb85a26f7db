"""Fisher information matrices and optimal projective measurements
for simultaneous estimation of several optical phases."""

from .errors import (
    BasisMismatchError,
    ComplexGramError,
    DimensionMismatchError,
    EstimationError,
    IncompleteSetError,
    InternalInconsistencyError,
    LimitNonConvergentError,
    NotHermitianError,
    NotSquareError,
    NotUnitaryError,
    SizeOverflowError,
    StepTooLargeError,
)
from .fisher import (
    FimDiagnostics,
    FisherPair,
    OverlapRecord,
    ProjectorSet,
    condition_deficit,
    condition_vectors,
    fim,
    fim_finite_difference,
    fim_from_bundle,
    fisher_pair,
    fisher_pairs,
    overlap_record,
    probabilities,
    qfim,
    quantum_gaps,
)
from .fock import (
    FockBasis,
    basis_state,
    enumerate_basis,
    lift_unitary,
    number_operator,
)
from .interferometer import (
    DerivativeBundle,
    Interferometer,
    builtin_model,
    load_model,
    model_from_dict,
    quarter,
    save_model,
    tritter,
)
from .linalg import (
    gram_schmidt_real_span,
    hermitian_eigenvalues,
    permanent,
    spectral_norm,
)
from .optimal import (
    OmegaFrame,
    OptimalMeasurement,
    construct_nonorthogonal_optimal,
    construct_orthogonal_optimal,
    omega_frame,
    uniform_mixing_rotation,
)
from .saturation import (
    DOES_NOT_SATURATE,
    SATURATES,
    ConditionResidual,
    ProjectorClassification,
    SaturationReport,
    check_saturation,
    classify_projectors,
    orthogonal_condition_residuals,
    overlap_condition_residuals,
    weak_commutativity_residual,
)
from .tolerances import DEFAULT_TOLERANCES, Tolerances

__version__ = "0.1.0"
