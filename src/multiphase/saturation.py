"""Necessary-and-sufficient saturation tests for projective measurements.

A measurement reaches the quantum bound exactly when three families of
residuals vanish: the weak-commutativity residual of the derivative
states, one condition per projector orthogonal to the probe (with a
numerical-limit fallback when every first-order overlap vanishes), and
one condition per projector overlapping the probe.  Every report carries
the directly computed spectral-norm gap as a cross check; a verdict that
contradicts the gap raises instead of being swallowed.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import BasisMismatchError, InternalInconsistencyError
from .fisher import (
    ProjectorSet,
    _richardson,
    _StepEvaluator,
    fisher_pair,
    limit_directions,
)
from .interferometer import DerivativeBundle, Interferometer
from .tolerances import (
    DEFAULT_LIMIT_POLICY,
    DEFAULT_TOLERANCES,
    LimitPolicy,
    Tolerances,
)

SATURATES = "Saturates"
DOES_NOT_SATURATE = "DoesNotSaturate"
INDETERMINATE_FIRST_ORDER = "IndeterminateFirstOrder"

TAG_ORTHOGONAL = "orthogonal"
TAG_NON_ORTHOGONAL = "non_orthogonal"
TAG_PROBE = "probe"


@dataclass
class ProjectorClassification:
    """Partition of a projector set by overlap with the probe state."""

    overlaps: np.ndarray          # |<Y_k|psi_s>| per projector
    tags: list                    # orthogonal / non_orthogonal / probe
    orthogonal: list              # indices with overlap below the threshold
    non_orthogonal: list          # everything else, probe included
    probe: list                   # indices with overlap within eps of 1


@dataclass
class ConditionResidual:
    """One projector's distance from a saturation condition."""

    projector: int
    value: float
    condition: str                # "T1", "T2" or "WC"
    indices: tuple                # derivative index pair (l, m) or (l,) achieving the max
    indeterminate_first_order: bool = False
    limit_converged: bool = True


def classify_projectors(psi, projectors: ProjectorSet,
                        eps_orth=DEFAULT_TOLERANCES.orthogonal_overlap
                        ) -> ProjectorClassification:
    """Split projectors into probe-orthogonal and probe-overlapping groups."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (projectors.basis.dim,):
        raise BasisMismatchError("state and projector set use different bases")
    overlaps = np.abs(projectors.vectors.conj() @ psi)
    tags, orthogonal, non_orthogonal, probe = [], [], [], []
    for k, overlap in enumerate(overlaps):
        if overlap < eps_orth:
            tags.append(TAG_ORTHOGONAL)
            orthogonal.append(k)
        elif overlap > 1.0 - eps_orth:
            tags.append(TAG_PROBE)
            probe.append(k)
            non_orthogonal.append(k)
        else:
            tags.append(TAG_NON_ORTHOGONAL)
            non_orthogonal.append(k)
    return ProjectorClassification(
        overlaps=overlaps,
        tags=tags,
        orthogonal=orthogonal,
        non_orthogonal=non_orthogonal,
        probe=probe,
    )


def weak_commutativity_residual(bundle: DerivativeBundle) -> float:
    """max over l < m of |Im <d_l psi|d_m psi>| (zero for a single phase)."""
    worst = 0.0
    for l in range(bundle.d):
        for m in range(l + 1, bundle.d):
            worst = max(worst, abs(np.vdot(bundle.dpsi[l], bundle.dpsi[m]).imag))
    return worst


def _first_order_residual(damp_k) -> tuple:
    """max_{l,m} |Im[<d_l psi|Y><Y|d_m psi>]| and the achieving pair."""
    d = damp_k.shape[0]
    best, pair = 0.0, (0, 0)
    for l in range(d):
        for m in range(d):
            value = abs((np.conj(damp_k[l]) * damp_k[m]).imag)
            if value > best:
                best, pair = value, (l, m)
    return best, pair


def orthogonal_condition_residuals(model: Interferometer, bundle: DerivativeBundle,
                                   projectors: ProjectorSet, indices,
                                   policy: LimitPolicy = DEFAULT_LIMIT_POLICY) -> list:
    """Residuals for projectors orthogonal to the probe.

    With a nonzero first-order overlap the residual is the largest
    imaginary part of the bilinear <d_l psi|Y><Y|d_m psi>.  When every
    first-order overlap vanishes the condition is indeterminate at first
    order; the defining 0/0 ratio is then evaluated along the policy
    direction and extrapolated, and the projector is flagged.
    """
    results = []
    if not indices:
        return results
    damp = np.stack([projectors.vectors.conj() @ dp for dp in bundle.dpsi])

    fallback = [k for k in indices
                if np.max(np.abs(damp[:, k])) < policy.derivative_floor]
    direct = [k for k in indices if k not in fallback]

    for k in direct:
        value, pair = _first_order_residual(damp[:, k])
        results.append(ConditionResidual(projector=k, value=value,
                                         condition="T1", indices=pair))

    if fallback:
        directions = limit_directions(bundle.d, policy.unit_direction(bundle.d))
        # The ratio has no 1/delta amplification, so shrinking the steps
        # only improves its extrapolation.
        scaled = [s * policy.fallback_step_scale for s in policy.steps]
        evaluator = _StepEvaluator(model, bundle.theta, projectors, scaled)
        bounds = np.max(np.abs(damp[:, fallback]), axis=0)
        results += _ratio_limit_residuals(np.asarray(fallback), directions,
                                          evaluator, bounds, policy)
    results.sort(key=lambda r: r.projector)
    return results


def _ratio_limit_residuals(outcomes, directions, evaluator, bounds, policy) -> list:
    """Extrapolate the defining 0/0 ratio for first-order-dark projectors.

    The ratio magnitude is bounded by |<Y|d_l psi_phi>|, which converges to
    the first-order overlap at the working point, so the limit can never
    exceed ``bounds`` (below the derivative floor by precondition).  The
    numerical extrapolation refines that certificate along the first
    direction whose displaced overlaps carry signal at every step; where
    the numerics stay dark or unresolved the bound itself is reported.
    The projectors still open at a direction are evaluated together.
    """
    values = np.array(bounds, dtype=float)
    indices = np.zeros(len(outcomes), dtype=int)
    open_ = np.ones(len(outcomes), dtype=bool)
    for j, direction in enumerate(directions):
        if not open_.any():
            break
        amp, damp = evaluator.along(j, direction)
        chosen = np.flatnonzero(open_)
        a = amp[:, outcomes[chosen]]
        lit = np.all(np.abs(a) >= policy.derivative_floor, axis=0)
        chosen, a = chosen[lit], a[:, lit]
        bilinear = np.conj(damp[:, :, outcomes[chosen]]) * a[:, None, :]
        ratios = bilinear.imag / np.abs(a[:, None, :])
        limit, spread = _richardson(ratios)
        scale = np.maximum(1.0, np.max(np.abs(limit), axis=0, initial=0.0))
        converged = ~(np.max(spread, axis=0, initial=0.0) > policy.convergence_tol * scale)
        chosen, limit = chosen[converged], limit[:, converged]
        best = np.argmax(np.abs(limit), axis=0)
        values[chosen] = np.abs(limit[best, np.arange(len(chosen))])
        indices[chosen] = best
        open_[chosen] = False
    return [
        ConditionResidual(projector=int(k), value=float(value), condition="T1",
                          indices=(int(l),), indeterminate_first_order=True,
                          limit_converged=True)
        for k, value, l in zip(outcomes, values, indices)
    ]


def overlap_condition_residuals(bundle: DerivativeBundle, projectors: ProjectorSet,
                                indices) -> list:
    """Residuals for projectors with nonzero probe overlap.

    The condition compares Im[<d_l psi|Y><Y|psi>] against
    |<psi|Y>|^2 Im[<d_l psi|psi>] for every derivative index.
    """
    results = []
    if not indices:
        return results
    amp = projectors.vectors.conj() @ bundle.psi
    damp = np.stack([projectors.vectors.conj() @ dp for dp in bundle.dpsi])
    phase_rates = np.array([np.vdot(dp, bundle.psi).imag for dp in bundle.dpsi])
    for k in indices:
        lhs = (np.conj(damp[:, k]) * amp[k]).imag
        rhs = (abs(amp[k]) ** 2) * phase_rates
        deviation = np.abs(lhs - rhs)
        l = int(np.argmax(deviation))
        results.append(ConditionResidual(projector=k, value=float(deviation[l]),
                                         condition="T2", indices=(l,)))
    return results


@dataclass
class SaturationReport:
    """Auditable record of one saturation check."""

    theta: np.ndarray
    classification: ProjectorClassification
    weak_comm_residual: float
    t1: list
    t2: list
    verdict: str
    gap: float
    direction_dependent: bool = False

    def to_dict(self) -> dict:
        return {
            "theta": [float(t) for t in np.atleast_1d(self.theta)],
            "classification": [
                {"index": k, "overlap": float(self.classification.overlaps[k]),
                 "tag": self.classification.tags[k]}
                for k in range(len(self.classification.tags))
            ],
            "weak_comm_residual": self.weak_comm_residual,
            "t1": [
                {"projector": r.projector, "value": r.value,
                 "indices": list(r.indices),
                 "indeterminate_first_order": r.indeterminate_first_order,
                 "limit_converged": r.limit_converged}
                for r in self.t1
            ],
            "t2": [
                {"projector": r.projector, "value": r.value,
                 "indices": list(r.indices)}
                for r in self.t2
            ],
            "verdict": self.verdict,
            "gap": self.gap,
            "direction_dependent": self.direction_dependent,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_dict(cls, data: dict) -> "SaturationReport":
        tags = [entry["tag"] for entry in data["classification"]]
        overlaps = np.array([entry["overlap"] for entry in data["classification"]])
        classification = ProjectorClassification(
            overlaps=overlaps,
            tags=tags,
            orthogonal=[i for i, t in enumerate(tags) if t == TAG_ORTHOGONAL],
            non_orthogonal=[i for i, t in enumerate(tags) if t != TAG_ORTHOGONAL],
            probe=[i for i, t in enumerate(tags) if t == TAG_PROBE],
        )
        t1 = [ConditionResidual(projector=e["projector"], value=e["value"],
                                condition="T1", indices=tuple(e["indices"]),
                                indeterminate_first_order=e["indeterminate_first_order"],
                                limit_converged=e["limit_converged"])
              for e in data["t1"]]
        t2 = [ConditionResidual(projector=e["projector"], value=e["value"],
                                condition="T2", indices=tuple(e["indices"]))
              for e in data["t2"]]
        return cls(
            theta=np.array(data["theta"], dtype=float),
            classification=classification,
            weak_comm_residual=float(data["weak_comm_residual"]),
            t1=t1,
            t2=t2,
            verdict=str(data["verdict"]),
            gap=float(data["gap"]),
            # Reports written before the field existed read as False.
            direction_dependent=bool(data.get("direction_dependent", False)),
        )

    @classmethod
    def from_json(cls, text: str) -> "SaturationReport":
        return cls.from_dict(json.loads(text))


def check_saturation(model: Interferometer, theta, projectors: ProjectorSet,
                     tolerances: Tolerances = DEFAULT_TOLERANCES,
                     policy: LimitPolicy = DEFAULT_LIMIT_POLICY) -> SaturationReport:
    """Classify, evaluate all condition residuals, and cross check the verdict.

    The verdict claims saturation exactly when the weak-commutativity,
    orthogonal-projector, and overlap-projector residuals all clear
    ``tolerances.saturation_residual``.  The spectral-norm gap is computed
    independently; a verdict inconsistent with the gap raises
    InternalInconsistencyError rather than being reported.
    """
    bundle = model.derivative_bundle(theta).validate()
    classification = classify_projectors(bundle.psi, projectors,
                                         tolerances.orthogonal_overlap)
    wc = weak_commutativity_residual(bundle)
    t1 = orthogonal_condition_residuals(model, bundle, projectors,
                                        classification.orthogonal, policy)
    t2 = overlap_condition_residuals(bundle, projectors,
                                     classification.non_orthogonal)

    residuals = [wc] + [r.value for r in t1] + [r.value for r in t2]
    all_pass = all(value < tolerances.saturation_residual for value in residuals)
    unconverged = any(not r.limit_converged for r in t1)

    pair = fisher_pair(model, theta, projectors, policy)

    if all_pass and unconverged:
        verdict = INDETERMINATE_FIRST_ORDER
    elif all_pass:
        verdict = SATURATES
    else:
        verdict = DOES_NOT_SATURATE

    if verdict == SATURATES and pair.gap >= tolerances.saturation_gap:
        raise InternalInconsistencyError(
            f"residuals pass but gap = {pair.gap:.3e} >= {tolerances.saturation_gap:.1e}"
        )
    if verdict == DOES_NOT_SATURATE and pair.gap < tolerances.saturation_gap:
        raise InternalInconsistencyError(
            f"residuals fail but gap = {pair.gap:.3e} < {tolerances.saturation_gap:.1e}"
        )

    return SaturationReport(
        theta=bundle.theta,
        classification=classification,
        weak_comm_residual=wc,
        t1=t1,
        t2=t2,
        verdict=verdict,
        gap=pair.gap,
        direction_dependent=pair.direction_dependent,
    )
