"""Construction of projector sets guaranteed to reach the quantum bound.

Both constructions start from the probe-orthogonalized derivative states
(the omega frame).  The orthogonal variant keeps the probe as its own
projector and spans the rest of the sensitive subspace with a
real-coefficient orthonormal basis of the omega states; the
non-orthogonal variant additionally rotates the probe into every in-span
vector with a real orthogonal mixing rotation; the orthogonal variant's
rotation is the identity, and both run one body.  Either way the remaining
directions are filled with an orthonormal completion, which carries no
information and is harmless.  Every construction verifies itself by
recomputing the classical matrix and checking the gap.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InternalInconsistencyError
from .fisher import FisherPair, ProjectorSet, fisher_pair
from .interferometer import DerivativeBundle, Interferometer
from .linalg import gram_schmidt_real_span
from .tolerances import (
    CONSTRUCTION_GAP,
    DEFAULT_TOLERANCES,
    GRAM_SCHMIDT_DROP,
    OMEGA_ORTHOGONALITY,
    Tolerances,
)


@dataclass(frozen=True)
class OmegaFrame:
    """Probe state with its probe-orthogonalized derivative states.

    ``omegas[m] = dpsi[m] + psi * <d_m psi|psi>`` is orthogonal to the
    probe by construction; the Gram matrix of the frame equals one quarter
    of the quantum Fisher matrix when its imaginary part vanishes.
    """

    psi: np.ndarray
    omegas: tuple
    gram: np.ndarray

    @property
    def weak_commutativity_residual(self) -> float:
        return float(np.max(np.abs(self.gram.imag))) if self.gram.size else 0.0


def omega_frame(bundle: DerivativeBundle) -> OmegaFrame:
    """Orthogonalize the derivative states against the probe."""
    omegas = np.array([dp + bundle.psi * np.vdot(dp, bundle.psi) for dp in bundle.dpsi])
    frame = OmegaFrame(psi=bundle.psi, omegas=tuple(omegas), gram=omegas.conj() @ omegas.T)
    worst = np.max(np.abs(omegas @ bundle.psi.conj()), initial=0.0)
    if worst > OMEGA_ORTHOGONALITY:
        raise InternalInconsistencyError(
            f"omega state has probe overlap {worst:.3e}; construction is broken"
        )
    return frame


@dataclass(frozen=True)
class OptimalMeasurement:
    """A saturating projector set plus its construction record."""

    projectors: ProjectorSet
    coefficients: np.ndarray     # (d + 1, in_span): each in-span vector over {omegas, psi}
    in_span: int                 # number of leading vectors inside span{psi, omegas}
    verification: FisherPair     # the construct-then-verify Fisher evaluation


def uniform_mixing_rotation(n: int) -> np.ndarray:
    """Real orthogonal n x n matrix whose first row and column are 1/sqrt(n).

    The Householder reflection exchanging the first axis with the uniform
    diagonal direction; it spreads the probe evenly over every output
    vector.  For n = 1 it is the identity.
    """
    if n < 1:
        raise ValueError("rotation size must be positive")
    if n == 1:
        return np.eye(1)
    e0 = np.zeros(n)
    e0[0] = 1.0
    u = np.full(n, 1.0 / np.sqrt(n))
    w = e0 - u
    w /= np.linalg.norm(w)
    return np.eye(n) - 2.0 * np.outer(w, w)


def _frame_and_span(model: Interferometer, theta):
    bundle = model.derivative_bundle(theta).validate()
    frame = omega_frame(bundle)
    # Zero for number-operator generators, whose <d_l psi|d_m psi> is real;
    # the real-coefficient span below needs it under the same threshold.
    residual = frame.weak_commutativity_residual
    if residual > GRAM_SCHMIDT_DROP:
        raise InternalInconsistencyError(
            f"weak commutativity violated: max |Im Omega| = {residual:.3e}"
        )
    span_vectors, coefficients = gram_schmidt_real_span(frame.omegas)
    return bundle, span_vectors, coefficients


def _construct(model: Interferometer, theta, rotation, tolerances: Tolerances
               ) -> OptimalMeasurement:
    """The in-span vectors ``[psi, span] @ rotation(r + 1)``, completed and verified.

    ``rotation(n)`` is a real orthogonal n x n matrix.  Raises
    InternalInconsistencyError when the completed set misses the quantum bound.
    """
    bundle, span_vectors, gs_coefficients = _frame_and_span(model, theta)
    axes = np.column_stack([bundle.psi] + span_vectors)    # D x (r + 1)
    mixing = rotation(axes.shape[1])
    mixed = axes @ mixing                                   # columns are in-span vectors

    # Expansion of each in-span vector over {omega_1..omega_d, psi}: the
    # omega rows come from the Gram-Schmidt coefficients, the last row is
    # the probe coefficient b_{d+1,k}.
    coefficients = np.vstack([gs_coefficients @ mixing[1:], mixing[:1]])

    completion = np.linalg.qr(mixed, mode="complete")[0][:, mixed.shape[1]:]
    projectors = ProjectorSet(model.basis, np.vstack([mixed.T, completion.T]), complete=True)
    pair = fisher_pair(model, theta, projectors, tolerances)
    if pair.gap > CONSTRUCTION_GAP:
        raise InternalInconsistencyError(
            f"constructed set misses the quantum bound: gap = {pair.gap:.3e}"
        )
    return OptimalMeasurement(projectors=projectors, coefficients=coefficients,
                              in_span=mixed.shape[1], verification=pair)


def construct_orthogonal_optimal(model: Interferometer, theta,
                                 tolerances: Tolerances = DEFAULT_TOLERANCES
                                 ) -> OptimalMeasurement:
    """Probe projector plus a real-coefficient orthonormal span of the omegas.

    Completed to a full orthonormal measurement; row 0 is the probe.
    """
    return _construct(model, theta, np.eye, tolerances)


def construct_nonorthogonal_optimal(model: Interferometer, theta, mix: float = 0.5,
                                    tolerances: Tolerances = DEFAULT_TOLERANCES
                                    ) -> OptimalMeasurement:
    """In-span basis in which every vector keeps a nonzero probe overlap.

    The probe axis and the orthonormalized omega axes are mixed by a real
    orthogonal rotation spreading the probe uniformly; every in-span
    vector then overlaps the probe with magnitude 1/sqrt(r + 1).  ``mix``
    must lie in (0, 1) but does not change the result: since ``r <= d``,
    that overlap always exceeds ``mix/sqrt(d + 1)``.
    """
    if not 0.0 < mix < 1.0:
        raise ValueError("mix must lie strictly between 0 and 1")
    return _construct(model, theta, uniform_mixing_rotation, tolerances)
