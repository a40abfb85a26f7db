"""Central tolerance and limit-policy records.

Thresholds default to the values below; all entry points accept per-call
overrides.  Two fixed constants live in ``fisher``: ``ORDERING_SLACK`` and
``RELATIVE_DERIVATIVE_FLOOR``.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Tolerances:
    hermitian: float = 1e-10          # max |M - M^H| accepted as Hermitian
    unitary: float = 1e-10            # max |U^H U - I| accepted as unitary
    gram_schmidt_drop: float = 1e-10  # post-projection norm below which a vector is dropped
    orthogonal_overlap: float = 1e-10  # |<Y|psi>| below this counts as orthogonal to the probe
    saturation_gap: float = 1e-6      # F_Q - F (gap or condition deficit) below this saturates
    weak_commutativity: float = 1e-8  # max |Im Omega| above this breaks the model invariant
    completeness: float = 1e-9        # entrywise |sum_k P_k - I| for complete sets


DEFAULT_TOLERANCES = Tolerances()


@dataclass(frozen=True)
class LimitPolicy:
    """How the terms of zero-probability outcomes are resolved.

    Each outcome's term ``dP_l dP_m / P`` is evaluated as
    ``4 Re[conj(da_l) a^] Re[conj(da_m) a^]`` with ``a^ = a/|a|``.  Where
    ``|a|`` is at or below ``amplitude_floor`` the outcome is dark and
    ``a^`` is the phase of the leading term of ``a(theta + delta * u)``
    as ``delta -> 0``, along ``direction`` first (``None`` means the
    diagonal (1, ..., 1)/sqrt(d)) and then the fallbacks of
    ``fisher.limit_directions``.  The floor is a trade-off: ``a`` carries
    roundoff of about 1e-16, so above the floor ``a^`` has a phase error
    of about ``1e-16/|a|``.
    """

    probability_floor: float = 1e-12  # below this an outcome is singular (reported, |a| recomputed)
    amplitude_floor: float = 1e-10    # |<Y|psi>| at or below this: dark, phase from the limit
    derivative_floor: float = 1e-12   # overlaps below this vanish (zero term, or next order)
    direction: tuple | None = None
    audit_directions: bool = False    # flag dark outcomes whose limit depends on the direction
    audit_spread: float = 1e-5        # T1 residual of a dark outcome flagged as direction dependent

    def unit_direction(self, d: int) -> np.ndarray:
        if self.direction is None:
            u = np.ones(d)
        else:
            u = np.asarray(self.direction, dtype=float)
            if u.shape != (d,):
                raise ValueError(f"direction must have length {d}")
        norm = np.linalg.norm(u)
        if norm == 0:
            raise ValueError("limit direction must be nonzero")
        return u / norm


DEFAULT_LIMIT_POLICY = LimitPolicy()
