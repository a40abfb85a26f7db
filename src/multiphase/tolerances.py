"""Every threshold behind the library's checks and verdicts.

``Tolerances`` holds the five values a caller may set; each is also a CLI
key or flag, and a non-finite or negative threshold is rejected.  Every
other threshold is a fixed module constant below.  Constants that guard
different checks stay separate even where their values agree.
"""

from dataclasses import dataclass

import numpy as np

HERMITIAN = 1e-10            # max |M - M^H| accepted as Hermitian
UNITARY = 1e-10              # max |U^H U - I| accepted as unitary
GRAM_SCHMIDT_DROP = 1e-10    # max |Im Gram| (weak commutativity); norm below which a vector drops
COMPLETENESS = 1e-9          # entrywise |sum_k P_k - I| for complete sets
PROJECTOR_NORM = 1e-10       # max ||Y_k| - 1| of a projector vector
OCCUPATION_MATCH = 1e-10     # |<n|Y_k>| within this of 1: Y_k is the occupation state |n>
STATE_NORM = 1e-10           # max ||psi|^2 - 1| and |Re<d_l psi|psi>| of a derivative bundle
OMEGA_ORTHOGONALITY = 1e-10  # max |<omega_m|psi>| of a probe-orthogonalized derivative state
ORDERING_SLACK = 1e-8        # roundoff allowed in the checks of F against F_Q
CONSTRUCTION_GAP = 1e-8      # gap above which a constructed set misses the quantum bound

# Singular outcomes.  Each outcome's term ``dP_l dP_m / P`` is evaluated as
# ``4 Re[conj(da_l) a^] Re[conj(da_m) a^]`` with ``a^ = a/|a|``.  Where
# ``|a|`` is at or below AMPLITUDE_FLOOR the outcome is dark and ``a^`` is
# the phase of the leading term of ``a(theta + delta * u)`` as
# ``delta -> 0``.  The floor is a trade-off: ``a`` carries roundoff of about
# 1e-16, so above the floor ``a^`` has a phase error of about ``1e-16/|a|``.
AMPLITUDE_FLOOR = 1e-10      # |<Y|psi>| at or below this: dark, phase from the limit
DERIVATIVE_FLOOR = 1e-12     # overlaps below this vanish (zero term, or next order)
# Leading-term candidates below this fraction of |da| vanish: just off a dark
# set they are O(distance) and do not carry the phase of a.  A choice, not a
# derivation.
RELATIVE_DERIVATIVE_FLOOR = 1e-6
AUDIT_SPREAD = 1e-5          # T1 residual of a dark outcome flagged as direction dependent


@dataclass(frozen=True)
class Tolerances:
    """The settable thresholds, with the CLI key or flag that sets each."""

    saturation_gap: float = 1e-6       # tol-gap: deficit or gap below this saturates
    orthogonal_overlap: float = 1e-10  # tol-orth: |<Y|psi>| below this is orthogonal to the probe
    probability_floor: float = 1e-12   # p-floor: below this an outcome is singular
    direction: tuple | None = None     # --limit-direction: approach direction; None is the diagonal
    audit_directions: bool = False     # --audit-directions: flag direction-dependent dark limits

    def __post_init__(self):
        for name in ("saturation_gap", "orthogonal_overlap", "probability_floor"):
            value = getattr(self, name)
            if not 0 <= value < np.inf:
                raise ValueError(f"{name} must be finite and non-negative, got {value}")

    def unit_direction(self, d: int) -> np.ndarray:
        """The approach direction for ``d`` phases, normalized."""
        if self.direction is None:
            u = np.ones(d)
        else:
            u = np.asarray(self.direction, dtype=float)
            if u.shape != (d,):
                raise ValueError(f"direction must have length {d}")
        norm = np.linalg.norm(u)
        if not 0 < norm < np.inf:
            raise ValueError("limit direction must be finite and nonzero")
        return u / norm


DEFAULT_TOLERANCES = Tolerances()
