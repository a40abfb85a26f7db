"""Classical and quantum Fisher information matrices for projective measurements.

The classical matrix sums ``dP_l dP_m / P`` over measurement outcomes.
With ``a = <Y_k|psi>`` and ``da_l = <Y_k|d_l psi>`` each term equals
``s_l s_m`` for the score ``s_l = 2 Re[conj(da_l) a^]``, ``a^ = a/|a|``,
so no term divides by a small probability and all outcomes of all points
are summed in one product.  At a dark outcome (``a`` zero) ``a^`` is the
phase of the leading term of ``a(theta + delta u)``: ``u.da`` at first
order, else ``u^T H u`` with ``H_lm = <Y_k|d_l d_m psi>``, tried along each
of ``limit_directions`` in turn.  Outcomes whose first-order overlaps all
vanish contribute zero.  ``overlap_record`` forms ``z = conj(da) a^`` once
for the classical matrix and for the saturation conditions.

``evaluate``, behind ``fisher_pairs`` and ``check_saturation``, takes
``F_Q`` from the model, checks ``F <= F_Q`` and ``F_Q - F =
condition_deficit``, and reads the verdict from the deficit.

Every evaluation takes one ``Tolerances`` record: its probability floor,
approach direction and audit flag.  The fixed floors and the ordering slack
are the constants of ``tolerances``.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BasisMismatchError,
    DimensionMismatchError,
    IncompleteSetError,
    InternalInconsistencyError,
    StepTooLargeError,
)
from .fock import FockBasis, enumerate_basis
from .interferometer import DerivativeBundle, Interferometer
from .linalg import hermitian_eigenvalues, spectral_norm
from .tolerances import (
    AMPLITUDE_FLOOR,
    AUDIT_SPREAD,
    COMPLETENESS,
    DEFAULT_TOLERANCES,
    DERIVATIVE_FLOOR,
    OCCUPATION_MATCH,
    ORDERING_SLACK,
    PROJECTOR_NORM,
    RELATIVE_DERIVATIVE_FLOOR,
    Tolerances,
)


class ProjectorSet:
    """Rank-one projectors |Y_k><Y_k| over a shared Fock basis.

    ``vectors`` is the (K, dim) array of amplitude rows.  A set flagged
    ``complete`` must resolve the identity, which is validated at
    construction.
    """

    def __init__(self, basis: FockBasis, vectors, complete: bool):
        vectors = np.atleast_2d(np.asarray(vectors, dtype=complex))
        if vectors.shape[1] != basis.dim:
            raise BasisMismatchError(
                f"projector length {vectors.shape[1]} != basis dimension {basis.dim}"
            )
        with np.errstate(invalid="ignore"):  # an infinite entry fails the check as NaN
            norms = np.linalg.norm(vectors, axis=1)
        worst = float(np.max(np.abs(norms - 1.0))) if norms.size else 0.0
        if not worst <= PROJECTOR_NORM:
            raise ValueError(f"projector normalization off by {worst:.3e}")
        if complete:
            resolution = vectors.T @ vectors.conj()
            deviation = float(np.max(np.abs(resolution - np.eye(basis.dim))))
            if not deviation <= COMPLETENESS:
                raise IncompleteSetError(
                    f"sum_k |Y_k><Y_k| deviates from identity by {deviation:.3e}"
                )
        self.basis = basis
        self.vectors = vectors
        self.complete = bool(complete)

    def __len__(self):
        return self.vectors.shape[0]

    @classmethod
    def fock(cls, basis: FockBasis) -> "ProjectorSet":
        """Photon-counting measurement: one projector per occupation."""
        return cls(basis, np.eye(basis.dim, dtype=complex), complete=True)

    def occupation_index(self, occupation) -> int:
        """Row index of the projector equal to one occupation state."""
        target = self.basis.index_of(occupation)
        column = np.abs(self.vectors[:, target])
        k = int(np.argmax(column))
        if abs(column[k] - 1.0) > OCCUPATION_MATCH:
            raise ValueError(f"no projector equals occupation {tuple(occupation)}")
        return k

    def to_dict(self) -> dict:
        return {
            "modes": self.basis.modes,
            "photons": self.basis.photons,
            "complete": self.complete,
            "projectors": [
                [[z.real, z.imag] for z in row] for row in self.vectors
            ],
        }

    @classmethod
    def from_dict(cls, spec: dict) -> "ProjectorSet":
        basis = enumerate_basis(int(spec["photons"]), int(spec["modes"]))
        vectors = np.array(
            [[complex(re, im) for re, im in row] for row in spec["projectors"]]
        )
        return cls(basis, vectors, complete=bool(spec["complete"]))

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def load(cls, path) -> "ProjectorSet":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def qfim(bundle: DerivativeBundle) -> np.ndarray:
    """Quantum Fisher information matrix of a pure-state derivative bundle.

    A batched bundle gives (G, d, d).  The oracle for ``Interferometer.quantum_fisher``.
    """
    dpsi = bundle.dpsi
    overlaps = dpsi.conj() @ np.swapaxes(dpsi, -1, -2)      # <d_l psi|d_m psi>
    c = (dpsi.conj() @ bundle.psi[..., None])[..., 0]       # <d_l psi|psi>
    matrix = 4.0 * (overlaps.real + (c[..., :, None] * c[..., None, :]).real)
    return 0.5 * (matrix + np.swapaxes(matrix, -1, -2))


def probabilities(psi, projectors: ProjectorSet) -> np.ndarray:
    """Outcome distribution |<Y_k|psi>|^2 of a state (D,) or a stack (G, D)."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape[-1:] != (projectors.basis.dim,) or psi.ndim > 2:
        raise BasisMismatchError("state and projector set use different bases")
    return np.abs(psi @ projectors.vectors.conj().T) ** 2


@dataclass
class FimDiagnostics:
    """How the outcomes below the probability floor were resolved."""

    singular_outcomes: list = field(default_factory=list)   # probability below floor, or dark
    shortcut_zero: list = field(default_factory=list)       # first-order overlaps vanish: zero term
    limit_evaluated: list = field(default_factory=list)     # term from the closed form
    second_order: list = field(default_factory=list)        # dark; phase from the second-order term
    off_axis: list = field(default_factory=list)            # dark; needed a fallback direction
    direction_dependent: bool = False


@dataclass(frozen=True)
class OverlapRecord:
    """Every outcome's overlaps at a stack of G points, with the phases ``a^``.

    ``z[g, l, k] = conj(<Y_k|d_l psi>) a^_k``: the outcome scores are
    ``2 Re z``, and ``Im z`` carries the saturation conditions.
    """

    magnitudes: np.ndarray    # |<Y_k|psi>|, (G, K)
    derivatives: np.ndarray   # <Y_k|d_l psi>, (G, d, K)
    z: np.ndarray             # (G, d, K)
    diagnostics: list         # one FimDiagnostics per point

    def fim(self) -> np.ndarray:
        """The classical matrices, (G, d, d)."""
        scores = 2.0 * self.z.real
        matrix = scores @ np.swapaxes(scores, -1, -2)
        return 0.5 * (matrix + np.swapaxes(matrix, -1, -2))


def limit_directions(d: int, primary) -> list:
    """Approach directions tried per dark outcome, the primary direction first.

    An outcome whose amplitude vanishes to second order along the primary
    direction (it lies inside the singular locus) is probed along a fixed
    generic direction and then each coordinate axis.  Where the saturation
    conditions hold the limit is direction independent, so the fallback
    never changes a saturating value.
    """
    directions = [np.asarray(primary, dtype=float)]
    if d > 1:
        golden = 0.6180339887498949
        generic = 1.0 + golden * np.arange(d)
        directions.append(generic / np.linalg.norm(generic))
        for axis in range(d):
            e = np.zeros(d)
            e[axis] = 1.0
            directions.append(e)
    return directions


def _dark_phases(model, thetas, projectors, da, points, outcomes, direction):
    """Limit phases ``a^`` of dark (point, outcome) pairs.

    ``da`` holds the pairs' (n, d) first-order overlaps.  Along ``direction``
    and then each fallback of ``limit_directions`` in turn,
    ``a(theta + delta u)`` leads with ``delta u.da``, else with
    ``delta^2 u^T H u / 2``; the first term above
    ``max(DERIVATIVE_FLOOR, RELATIVE_DERIVATIVE_FLOOR * |da|)``
    gives the phase.  The sign of ``delta`` does not matter, as the term
    is quadratic in ``a^``.  Some axis always clears the floor, because a
    dark outcome's largest overlap does.  Returns the phases and, per
    pair, ``2 * direction index + order - 1``.
    """
    directions = np.array(limit_directions(da.shape[1], direction))
    floor = np.maximum(DERIVATIVE_FLOOR,
                       RELATIVE_DERIVATIVE_FLOOR * np.linalg.norm(da, axis=1))
    first = da @ directions.T
    second = np.zeros_like(first)
    pending = np.abs(first[:, 0]) <= floor
    if pending.any():
        states = model.second_derivatives(thetas[points[pending]])
        hessians = np.einsum("plmi,pi->plm", states,
                             projectors.vectors[outcomes[pending]].conj())
        second[pending] = np.einsum("jl,plm,jm->pj", directions, hessians, directions)
    candidates = np.stack([first, second], axis=-1).reshape(len(da), -1)
    choice = np.argmax(np.abs(candidates) > floor[:, None], axis=1)
    leading = candidates[np.arange(len(da)), choice]
    magnitude = np.abs(leading)
    phases = np.divide(leading, magnitude, out=np.zeros_like(leading), where=magnitude > 0)
    return phases, choice


def fim(model: Interferometer, theta, projectors: ProjectorSet,
        tolerances: Tolerances = DEFAULT_TOLERANCES):
    """Classical Fisher information matrix and singular-outcome diagnostics."""
    bundle = model.derivative_bundle(theta).validate()
    return fim_from_bundle(model, bundle, projectors, tolerances)


def fim_from_bundle(model: Interferometer, bundle: DerivativeBundle,
                    projectors: ProjectorSet,
                    tolerances: Tolerances = DEFAULT_TOLERANCES):
    """As ``fim`` but reusing an already-evaluated derivative bundle.

    A batched bundle gives a (G, d, d) stack and a list of G diagnostics.
    Every outcome of every point enters one product of scores.
    """
    record = overlap_record(model, bundle, projectors, tolerances)
    if bundle.batched:
        return record.fim(), record.diagnostics
    return record.fim()[0], record.diagnostics[0]


def overlap_record(model: Interferometer, bundle: DerivativeBundle,
                   projectors: ProjectorSet,
                   tolerances: Tolerances = DEFAULT_TOLERANCES) -> OverlapRecord:
    """Overlaps of a complete set with a bundle, stacked as G points.

    A single-point bundle gives G = 1.  ``a^`` is ``a/|a|``, or the
    closed-form limit phase at a dark outcome.  The approach direction is
    validated at every call, dark outcomes or not.
    """
    if projectors.basis != bundle.basis:
        raise BasisMismatchError("bundle and projector set use different bases")
    if not projectors.complete:
        raise IncompleteSetError("the Fisher matrix requires a complete set")

    d = bundle.d
    direction = tolerances.unit_direction(d)
    rows = projectors.vectors.conj().T
    thetas = bundle.theta.reshape(-1, d)
    amp = (bundle.psi @ rows).reshape(len(thetas), len(projectors))          # <Y_k|psi>
    damp = (bundle.dpsi @ rows).reshape(len(thetas), d, len(projectors))     # <Y_k|d_l psi>
    magnitude = np.abs(amp)
    # Dark outcomes are singular even under a zero probability floor.
    singular = ((magnitude ** 2 < tolerances.probability_floor)
                | (magnitude <= AMPLITUDE_FLOOR))
    diagnostics = [FimDiagnostics() for _ in range(len(thetas))]
    if singular.any():
        phase, magnitude = _singular_phases(model, thetas, projectors, amp, damp, singular,
                                            direction, tolerances.audit_directions,
                                            diagnostics)
    else:
        phase = amp / magnitude
    return OverlapRecord(magnitudes=magnitude, derivatives=damp,
                         z=np.conj(damp) * phase[:, None, :], diagnostics=diagnostics)


def _singular_phases(model, thetas, projectors, amp, damp, singular, direction, audit,
                     diagnostics) -> tuple:
    """Phases ``a^`` and magnitudes of all outcomes when some are singular.

    Singular outcomes whose first-order overlaps all vanish get phase 0, a
    zero term.  Near-dark amplitudes (above ``AMPLITUDE_FLOOR``) are
    recomputed by ``model.amplitudes``, whose rounding, amplified by
    ``1/|a|`` in ``a^``, does not depend on the batch.  Dark ones take the
    phase of their limit along ``direction`` from ``_dark_phases``.  With
    ``audit``, points with a direction-dependent dark limit are flagged.
    Fills ``diagnostics``.
    """
    magnitude = np.abs(amp)
    shortcut = singular & (np.max(np.abs(damp), axis=1) < DERIVATIVE_FLOOR)
    dark = (magnitude <= AMPLITUDE_FLOOR) & ~shortcut
    near = singular & ~shortcut & ~dark
    if near.any():
        g, k = np.nonzero(near)
        amp[g, k] = model.amplitudes(thetas[g], projectors.vectors[k])
        magnitude[g, k] = np.abs(amp[g, k])
    phase = np.divide(amp, magnitude, out=np.zeros_like(amp), where=~(shortcut | dark))
    choice = np.zeros(amp.shape, dtype=int)
    g, k = np.nonzero(dark)
    if g.size:
        phase[g, k], choice[g, k] = _dark_phases(model, thetas, projectors,
                                                 damp[g, :, k], g, k, direction)

    flagged = np.zeros(len(thetas), dtype=bool)
    if audit and damp.shape[1] > 1:
        # The limit at a dark outcome is direction independent exactly when
        # Im[conj(da_l) da_m] vanishes, the first-order (T1) condition.
        da = damp[g, :, k]
        t1 = np.abs((np.conj(da)[:, :, None] * da[:, None, :]).imag).max(axis=(1, 2))
        flagged[g[t1 > AUDIT_SPREAD]] = True
    masks = (singular, shortcut, singular & ~shortcut,
             dark & (choice % 2 == 1), dark & (choice >= 2))   # in field order
    for g in np.flatnonzero(singular.any(axis=1)):
        diagnostics[g] = FimDiagnostics(*(mask[g].nonzero()[0].tolist() for mask in masks),
                                        direction_dependent=bool(flagged[g]))
    return phase, magnitude


def fim_finite_difference(model: Interferometer, theta, projectors: ProjectorSet,
                          delta: float = 1e-4) -> np.ndarray:
    """Independent finite-difference evaluation of the classical matrix.

    Central differences on the outcome probabilities of 2d + 1 stacked
    states; requires every probability to clear ``10 * delta``.
    """
    d = model.d
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.shape != (d,):
        raise DimensionMismatchError(f"expected {d} phases, got shape {theta.shape}")
    steps = delta * np.eye(d)
    probs = probabilities(model.output_state(theta + np.vstack([np.zeros(d), steps, -steps])),
                          projectors)
    if np.min(probs[0]) <= 10.0 * delta:
        raise StepTooLargeError(
            f"min outcome probability {np.min(probs[0]):.3e} <= 10 * delta = {10 * delta:.1e}"
        )
    dP = (probs[1:d + 1] - probs[d + 1:]) / (2.0 * delta)
    matrix = (dP / probs[0]) @ dP.T
    return 0.5 * (matrix + matrix.T)


@dataclass(frozen=True)
class FisherPair:
    """Classical and quantum matrices at one working point, their gap and verdict."""

    theta: np.ndarray
    fim: np.ndarray
    qfim: np.ndarray              # the model's read-only quantum_fisher
    gap: float                    # ||F_Q - F||_2
    saturates: bool               # lambda_max(condition_deficit) < saturation_gap
    diagnostics: FimDiagnostics


def quantum_gaps(classical, quantum) -> np.ndarray:
    """Gaps ``||F_Q - F||_2`` of a (G, d, d) stack, after the ordering checks.

    Raises InternalInconsistencyError at the first point where ``F <= F_Q``
    fails or the gap exceeds ``||F_Q||_2``.
    """
    eigenvalues = hermitian_eigenvalues(quantum - classical)
    smallest = np.min(eigenvalues, axis=-1)
    bad = np.flatnonzero(smallest < -ORDERING_SLACK)
    if bad.size:
        raise InternalInconsistencyError(
            "classical matrix exceeds the quantum bound: "
            f"min eig(F_Q - F) = {smallest[bad[0]]:.3e}"
        )
    gaps = np.max(np.abs(eigenvalues), axis=-1)
    bad = np.flatnonzero(gaps > spectral_norm(quantum) + ORDERING_SLACK)
    if bad.size:
        raise InternalInconsistencyError(
            f"gap {gaps[bad[0]]:.3e} exceeds ||F_Q||_2; matrices are inconsistent"
        )
    return gaps


def condition_deficit(model: Interferometer, record: OverlapRecord) -> np.ndarray:
    """``4 sum_k q_k q_k^T`` per point, (G, d, d); it equals ``F_Q - F``.

    ``q_k = Im z_k - |a_k| gamma`` with ``gamma_l = Im<d_l psi|psi> = -<n_l>``,
    the model's ``mean_occupation``.
    """
    q = record.z.imag + record.magnitudes[:, None, :] * model.mean_occupation[:, None]
    deficit = 4.0 * q @ np.swapaxes(q, -1, -2)
    return 0.5 * (deficit + np.swapaxes(deficit, -1, -2))


def evaluate(model: Interferometer, theta, projectors: ProjectorSet,
             tolerances: Tolerances = DEFAULT_TOLERANCES) -> tuple:
    """The validated bundle at ``theta``, (d,) or (G, d), its record and pairs.

    A point saturates when the largest eigenvalue of ``condition_deficit``
    is below ``tolerances.saturation_gap``.  Raises InternalInconsistencyError
    where ``F <= F_Q`` fails or ``F_Q - F`` differs from the deficit.
    """
    bundle = model.derivative_bundle(theta).validate()
    record = overlap_record(model, bundle, projectors, tolerances)
    classical, quantum = record.fim(), model.quantum_fisher
    gaps = quantum_gaps(classical, quantum)
    deficit = condition_deficit(model, record)
    mismatch = float(np.max(np.abs(quantum - classical - deficit)))
    if mismatch > ORDERING_SLACK * max(1.0, np.max(np.abs(quantum))):
        raise InternalInconsistencyError(
            f"F_Q - F differs from 4 sum_k q_k q_k^T by {mismatch:.3e}"
        )
    saturates = hermitian_eigenvalues(deficit)[:, -1] < tolerances.saturation_gap
    return bundle, record, [
        FisherPair(theta=theta_g, fim=classical[g], qfim=quantum, gap=float(gaps[g]),
                   saturates=bool(saturates[g]), diagnostics=record.diagnostics[g])
        for g, theta_g in enumerate(bundle.theta.reshape(-1, bundle.d))
    ]


def fisher_pairs(model: Interferometer, thetas, projectors: ProjectorSet,
                 tolerances: Tolerances = DEFAULT_TOLERANCES) -> list:
    """``fisher_pair`` at each row of a (G, d) array of working points.

    The points are evaluated as one batch by ``evaluate``: one bundle, one
    product of outcome scores and stacked eigenvalue checks.  The working
    set is O(G * d * D) for basis dimension D.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2:
        raise DimensionMismatchError(f"expected a (G, d) array, got shape {thetas.shape}")
    return evaluate(model, thetas, projectors, tolerances)[2]


def fisher_pair(model: Interferometer, theta, projectors: ProjectorSet,
                tolerances: Tolerances = DEFAULT_TOLERANCES) -> FisherPair:
    """Both matrices, their gap and the saturation verdict at one point.

    The single-point case of ``fisher_pairs``.
    """
    theta = np.asarray(theta, dtype=float).reshape(1, -1)   # a stack fails the phase count
    return fisher_pairs(model, theta, projectors, tolerances)[0]
