"""Necessary-and-sufficient saturation tests for projective measurements.

With ``a_k = <Y_k|psi>``, ``z_k = conj(<Y_k|d psi>) a^_k`` (the overlap
record that ``fisher`` sums into the classical matrix) and
``gamma_l = Im<d_l psi|psi>``, a complete set has

    F_Q - F = 4 sum_k q_k q_k^T,   q_k = Im z_k - |a_k| gamma,

so it reaches the quantum bound exactly when every ``q_k`` vanishes: the
T2 condition for a projector overlapping the probe (``|a_k| q_k`` is its
residual vector) and the T1 condition for one orthogonal to it.  The
verdict is read from this deficit by ``fisher.evaluate``, as in ``scan``,
and ``F_Q - F`` must match it at every call, else
InternalInconsistencyError is raised.  Each projector's own T1 or T2
value and the weak-commutativity residual are reported alongside.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import BasisMismatchError
from .fisher import ProjectorSet, evaluate
from .interferometer import DerivativeBundle, Interferometer
from .tolerances import DEFAULT_TOLERANCES, DERIVATIVE_FLOOR, Tolerances

SATURATES = "Saturates"
DOES_NOT_SATURATE = "DoesNotSaturate"

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


def classify_projectors(psi, projectors: ProjectorSet,
                        tolerances: Tolerances = DEFAULT_TOLERANCES
                        ) -> ProjectorClassification:
    """Split projectors into probe-orthogonal and probe-overlapping groups.

    The threshold is ``tolerances.orthogonal_overlap``, for the probe within that of 1.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (projectors.basis.dim,):
        raise BasisMismatchError("state and projector set use different bases")
    overlaps = np.abs(projectors.vectors.conj() @ psi)
    eps = tolerances.orthogonal_overlap
    orthogonal = overlaps < eps
    probe = ~orthogonal & (overlaps > 1.0 - eps)
    tags = np.where(orthogonal, TAG_ORTHOGONAL,
                    np.where(probe, TAG_PROBE, TAG_NON_ORTHOGONAL))
    return ProjectorClassification(
        overlaps=overlaps,
        tags=tags.tolist(),
        orthogonal=np.flatnonzero(orthogonal).tolist(),
        non_orthogonal=np.flatnonzero(~orthogonal).tolist(),
        probe=np.flatnonzero(probe).tolist(),
    )


def weak_commutativity_residual(bundle: DerivativeBundle) -> float:
    """max over l < m of |Im <d_l psi|d_m psi>| (zero for a single phase)."""
    gram = bundle.dpsi.conj() @ bundle.dpsi.T
    return float(np.max(np.abs(np.triu(gram.imag, 1)), initial=0.0))


def orthogonal_condition_residuals(bundle: DerivativeBundle,
                                   projectors: ProjectorSet, indices,
                                   damp=None) -> list:
    """Residuals for projectors orthogonal to the probe, in projector order.

    With a nonzero first-order overlap the residual is the largest
    imaginary part of the bilinear <d_l psi|Y><Y|d_m psi>.  When every
    first-order overlap is below ``DERIVATIVE_FLOOR`` the condition
    is indeterminate at first order: the defining ratio
    Im[<d_l psi|Y><Y|psi>]/|<Y|psi>| is O(delta) along any path, since
    <Y|psi> is O(delta^2) and its derivatives O(delta), and its bound
    max_l |<Y|d_l psi>| is reported with the projector flagged.  ``damp``
    may pass the (d, K) overlaps <Y_k|d_l psi>.
    """
    indices = np.asarray(sorted(indices), dtype=int)
    if not indices.size:
        return []
    if damp is None:
        damp = bundle.dpsi @ projectors.vectors.conj().T
    columns = damp[:, indices]
    magnitudes = np.abs(columns)
    bounds, strongest = np.max(magnitudes, axis=0), np.argmax(magnitudes, axis=0)
    # Im[conj(x) y] = Re x Im y - Im x Re y, formed from separate products
    # so that it is exactly antisymmetric and zero on the diagonal.
    re, im = columns.real, columns.imag
    bilinear = np.abs(re[:, None] * im[None] - im[:, None] * re[None]).reshape(-1, indices.size)
    pairs = np.argmax(bilinear, axis=0)
    values = bilinear[pairs, np.arange(indices.size)]
    dark = bounds < DERIVATIVE_FLOOR
    rows = zip(indices.tolist(), dark.tolist(), bounds.tolist(), strongest.tolist(),
               values.tolist(), (pairs // bundle.d).tolist(), (pairs % bundle.d).tolist())
    return [
        ConditionResidual(projector=k, value=bound, condition="T1", indices=(l,),
                          indeterminate_first_order=True)
        if is_dark else
        ConditionResidual(projector=k, value=value, condition="T1", indices=(l1, m1))
        for k, is_dark, bound, l, value, l1, m1 in rows
    ]


def overlap_condition_residuals(bundle: DerivativeBundle, projectors: ProjectorSet,
                                indices, damp=None) -> list:
    """Residuals for projectors with nonzero probe overlap.

    The condition compares Im[<d_l psi|Y><Y|psi>] against
    |<psi|Y>|^2 Im[<d_l psi|psi>] for every derivative index.  ``damp``
    may pass the (d, K) overlaps <Y_k|d_l psi>.
    """
    indices = np.asarray(indices, dtype=int)
    if not indices.size:
        return []
    if damp is None:
        damp = bundle.dpsi @ projectors.vectors.conj().T
    amp = projectors.vectors[indices].conj() @ bundle.psi
    phase_rates = (bundle.dpsi.conj() @ bundle.psi).imag
    lhs = (np.conj(damp[:, indices]) * amp).imag
    rhs = np.abs(amp) ** 2 * phase_rates[:, None]
    deviation = np.abs(lhs - rhs)
    worst = np.argmax(deviation, axis=0)
    values = deviation[worst, np.arange(len(indices))]
    return [
        ConditionResidual(projector=k, value=value, condition="T2", indices=(l,))
        for k, value, l in zip(indices.tolist(), values.tolist(), worst.tolist())
    ]


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
                 "indeterminate_first_order": r.indeterminate_first_order}
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
        # Older reports also carry "limit_converged", which was always true.
        t1 = [ConditionResidual(projector=e["projector"], value=e["value"],
                                condition="T1", indices=tuple(e["indices"]),
                                indeterminate_first_order=e["indeterminate_first_order"])
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
                     tolerances: Tolerances = DEFAULT_TOLERANCES) -> SaturationReport:
    """Classify, evaluate every condition, and report the verdict.

    The single-point case of ``fisher.evaluate`` (verdict, gap and checks),
    whose bundle and overlap record also give the per-projector conditions.
    """
    bundle, record, (pair,) = evaluate(model, theta, projectors, tolerances)
    classification = classify_projectors(bundle.psi, projectors, tolerances)
    damp = record.derivatives[0]
    return SaturationReport(
        theta=pair.theta,
        classification=classification,
        weak_comm_residual=weak_commutativity_residual(bundle),
        t1=orthogonal_condition_residuals(bundle, projectors, classification.orthogonal,
                                          damp=damp),
        t2=overlap_condition_residuals(bundle, projectors, classification.non_orthogonal,
                                       damp=damp),
        verdict=SATURATES if pair.saturates else DOES_NOT_SATURATE,
        gap=pair.gap,
        direction_dependent=pair.diagnostics.direction_dependent,
    )
