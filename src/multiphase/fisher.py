"""Classical and quantum Fisher information matrices for projective measurements.

The classical matrix sums ``dP_l dP_m / P`` over measurement outcomes with
``dP_l = 2 Re[<d_l psi|Y_k><Y_k|psi>]``.  Outcomes whose probability
vanishes at the working point are indeterminate (0/0); their contribution
is the Richardson-extrapolated limit along a configurable approach
direction, except where it vanishes analytically (all first-order overlaps
zero) or the probability is identically zero along the path.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BasisMismatchError,
    DimensionMismatchError,
    IncompleteSetError,
    InternalInconsistencyError,
    LimitNonConvergentError,
    StepTooLargeError,
)
from .fock import FockBasis, enumerate_basis
from .interferometer import DerivativeBundle, Interferometer
from .linalg import hermitian_eigenvalues, spectral_norm
from .tolerances import DEFAULT_LIMIT_POLICY, DEFAULT_TOLERANCES, LimitPolicy


class ProjectorSet:
    """Rank-one projectors |Y_k><Y_k| over a shared Fock basis.

    ``vectors`` is the (K, dim) array of amplitude rows.  A set flagged
    ``complete`` must resolve the identity, which is validated at
    construction.
    """

    def __init__(self, basis: FockBasis, vectors, complete: bool,
                 tol=DEFAULT_TOLERANCES):
        vectors = np.atleast_2d(np.asarray(vectors, dtype=complex))
        if vectors.shape[1] != basis.dim:
            raise BasisMismatchError(
                f"projector length {vectors.shape[1]} != basis dimension {basis.dim}"
            )
        norms = np.linalg.norm(vectors, axis=1)
        worst = float(np.max(np.abs(norms - 1.0))) if norms.size else 0.0
        if worst > 1e-10:
            raise ValueError(f"projector normalization off by {worst:.3e}")
        if complete:
            resolution = vectors.T @ vectors.conj()
            deviation = float(np.max(np.abs(resolution - np.eye(basis.dim))))
            if deviation > tol.completeness:
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
        if abs(column[k] - 1.0) > 1e-10:
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

    A batched bundle gives one matrix per point, stacked as (G, d, d).
    """
    dpsi = bundle.dpsi
    overlaps = dpsi.conj() @ np.swapaxes(dpsi, -1, -2)      # <d_l psi|d_m psi>
    c = (dpsi.conj() @ bundle.psi[..., None])[..., 0]       # <d_l psi|psi>
    matrix = 4.0 * (overlaps.real + (c[..., :, None] * c[..., None, :]).real)
    return 0.5 * (matrix + np.swapaxes(matrix, -1, -2))


def probabilities(psi, projectors: ProjectorSet) -> np.ndarray:
    """Outcome distribution |<Y_k|psi>|^2."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (projectors.basis.dim,):
        raise BasisMismatchError("state and projector set use different bases")
    amplitudes = projectors.vectors.conj() @ psi
    return np.abs(amplitudes) ** 2


@dataclass
class FimDiagnostics:
    """Which outcomes needed special handling in a FIM evaluation."""

    singular_outcomes: list = field(default_factory=list)   # probability below floor
    shortcut_zero: list = field(default_factory=list)       # vanish analytically
    limit_evaluated: list = field(default_factory=list)     # Richardson extrapolation ran
    path_null: list = field(default_factory=list)           # dark along every probe direction
    off_axis: list = field(default_factory=list)            # needed a fallback direction
    direction_dependent: bool = False


def _overlap_data(bundle: DerivativeBundle, projectors: ProjectorSet):
    """Per-outcome overlaps with the state and each derivative state."""
    rows = projectors.vectors.conj().T
    return bundle.psi @ rows, bundle.dpsi @ rows   # <Y_k|psi>, damp[..., l, k] = <Y_k|d_l psi>


def _score_terms(amp, damp):
    """dP_l per outcome: 2 Re[<d_l psi|Y_k><Y_k|psi>]."""
    return 2.0 * (np.conj(damp) * amp[..., None, :]).real


def _richardson(values):
    """Two-level Richardson extrapolation for halving steps [h, h/2, h/4].

    ``values`` stacks the three step values along its first axis.  Returns
    (limit, disagreement), elementwise: disagreement measures how far the
    two first-level extrapolants differ after the final combination.
    """
    g1, g2, g3 = values
    r1a = 2.0 * g2 - g1
    r1b = 2.0 * g3 - g2
    return (4.0 * r1b - r1a) / 3.0, np.abs(r1b - r1a)


def limit_directions(d: int, primary) -> list:
    """Approach directions tried per outcome, the policy direction first.

    An outcome whose probability is identically zero along the primary
    direction (it lies inside the singular locus) is probed along a fixed
    generic direction and then each coordinate axis before being declared
    dark in the whole neighborhood.  Where the saturation conditions hold
    the limit is direction independent, so the fallback never changes a
    saturating value.
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


class _StepEvaluator:
    """Lazily evaluates the overlap data at every step along each direction.

    ``along`` returns (amp, damp) with the steps on the leading axis, from
    one batched bundle per direction.
    """

    def __init__(self, model, theta, projectors, steps):
        self.model = model
        self.theta = theta
        self.projectors = projectors
        self.step_sizes = np.asarray(steps, dtype=float)
        self._cache = {}

    def along(self, direction_index, direction):
        if direction_index not in self._cache:
            points = self.theta + self.step_sizes[:, None] * direction
            bundle = self.model.derivative_bundle(points)
            self._cache[direction_index] = _overlap_data(bundle, self.projectors)
        return self._cache[direction_index]


def _singular_contribution(model, theta, projectors, outcome_indices, primary,
                           policy: LimitPolicy, strict: bool = True):
    """Limit contributions of zero-probability outcomes.

    Each outcome is extrapolated along the first direction in
    ``limit_directions`` where all steps carry signal; the outcomes still
    open at a direction are evaluated together.  Returns (contribution
    matrix, evaluated, path_null, off_axis).  With ``strict`` the policy
    convergence tolerance is enforced, and the first outcome (in the given
    order) that fails raises; audits pass ``strict=False`` and receive
    possibly unconverged values.
    """
    d = model.d
    outcomes = np.asarray(outcome_indices, dtype=int)
    n = outcomes.size
    limits = np.zeros((n, d, d))      # zero until the outcome's limit converges
    resolved_at = np.full(n, -1)      # index of the direction that resolved each outcome
    partial = np.zeros(n, dtype=bool)  # some steps carried signal, others not
    diverged = np.full(n, np.nan)     # strict: disagreement that stopped the outcome
    evaluator = _StepEvaluator(model, theta, projectors, policy.steps)

    for j, direction in enumerate(limit_directions(d, primary)):
        open_ = np.flatnonzero((resolved_at < 0) & np.isnan(diverged))
        if not open_.size:
            break
        amp, damp = evaluator.along(j, direction)
        a = amp[:, outcomes[open_]]
        p = np.abs(a) ** 2
        live = p >= policy.step_floor
        partial[open_] |= live.any(axis=0) & ~live.all(axis=0)
        ready = live.all(axis=0)
        if not ready.any():
            continue
        chosen = open_[ready]
        a, p = a[:, ready], p[:, ready]
        dP = 2.0 * (np.conj(damp[:, :, outcomes[chosen]]) * a[:, None, :]).real
        terms = dP[:, :, None, :] * dP[:, None, :, :] / p[:, None, None, :]
        limit, spread = _richardson(terms)
        disagreement = spread.max(axis=(0, 1))
        scale = np.maximum(1.0, np.abs(limit).max(axis=(0, 1)))
        converged = ~(disagreement > policy.convergence_tol * scale)
        if strict:
            diverged[chosen[~converged]] = disagreement[~converged]
        resolved_at[chosen[converged]] = j
        limits[chosen[converged]] = np.moveaxis(limit[:, :, converged], -1, 0)

    resolved = resolved_at >= 0
    if strict:
        for i in np.flatnonzero(~resolved & (partial | ~np.isnan(diverged))):
            k = outcomes[i]
            if not np.isnan(diverged[i]):
                raise LimitNonConvergentError(
                    f"outcome {k}: Richardson extrapolants disagree by {diverged[i]:.3e}"
                )
            raise LimitNonConvergentError(
                f"outcome {k}: probability crosses the floor along every probe direction"
            )
    return (limits.sum(axis=0), outcomes[resolved].tolist(),
            outcomes[~resolved].tolist(), outcomes[resolved_at > 0].tolist())


def _singular_cell(model, theta, projectors, damp, singular, policy,
                   diagnostics: FimDiagnostics) -> np.ndarray:
    """Contribution of one point's below-floor outcomes; fills ``diagnostics``."""
    d = model.d
    outcomes = np.flatnonzero(singular)
    diagnostics.singular_outcomes = outcomes.tolist()
    # Where every first-order overlap vanishes, both dP and P vanish to high
    # enough order that the ratio is zero in the limit; skip the numerics.
    dark = np.max(np.abs(damp[:, outcomes]), axis=0) < policy.derivative_floor
    diagnostics.shortcut_zero = outcomes[dark].tolist()
    needs_limit = outcomes[~dark]
    if not needs_limit.size:
        return np.zeros((d, d))

    contribution, evaluated, path_null, off_axis = _singular_contribution(
        model, theta, projectors, needs_limit, policy.unit_direction(d), policy
    )
    diagnostics.limit_evaluated = evaluated
    diagnostics.path_null = path_null
    diagnostics.off_axis = off_axis

    if policy.audit_directions and d > 1:
        for axis in np.eye(d):
            audit, _, _, _ = _singular_contribution(
                model, theta, projectors, needs_limit, axis, policy, strict=False,
            )
            if np.max(np.abs(audit - contribution)) > policy.audit_spread:
                diagnostics.direction_dependent = True
                break
    return contribution


def fim(model: Interferometer, theta, projectors: ProjectorSet,
        policy: LimitPolicy = DEFAULT_LIMIT_POLICY):
    """Classical Fisher information matrix and singular-outcome diagnostics."""
    bundle = model.derivative_bundle(theta).validate()
    return fim_from_bundle(model, bundle, projectors, policy)


def fim_from_bundle(model: Interferometer, bundle: DerivativeBundle,
                    projectors: ProjectorSet,
                    policy: LimitPolicy = DEFAULT_LIMIT_POLICY):
    """As ``fim`` but reusing an already-evaluated derivative bundle.

    A batched bundle gives a (G, d, d) stack and a list of G diagnostics.
    The regular outcomes of every point are summed in one masked product;
    only points with an outcome below ``policy.probability_floor`` run the
    singular-limit machinery.
    """
    if projectors.basis != bundle.basis:
        raise BasisMismatchError("bundle and projector set use different bases")
    if not projectors.complete:
        raise IncompleteSetError("the Fisher matrix requires a complete set")

    d = bundle.d
    amp, damp = _overlap_data(bundle, projectors)
    probs = np.abs(amp) ** 2
    scores = _score_terms(amp, damp)
    regular = probs >= policy.probability_floor
    weights = np.divide(1.0, probs, out=np.zeros_like(probs), where=regular)
    matrix = (scores * weights[..., None, :]) @ np.swapaxes(scores, -1, -2)

    cells = matrix.reshape(-1, d, d)   # a view: per-point limits land in matrix
    thetas = bundle.theta.reshape(-1, d)
    singular = ~regular.reshape(len(cells), len(projectors))
    damp = damp.reshape(len(cells), d, len(projectors))
    diagnostics = [FimDiagnostics() for _ in range(len(cells))]
    for g in np.flatnonzero(singular.any(axis=1)):
        cells[g] += _singular_cell(model, thetas[g], projectors, damp[g],
                                   singular[g], policy, diagnostics[g])

    matrix = 0.5 * (matrix + np.swapaxes(matrix, -1, -2))
    return matrix, diagnostics if bundle.batched else diagnostics[0]


def fim_finite_difference(model: Interferometer, theta, projectors: ProjectorSet,
                          delta: float = 1e-4) -> np.ndarray:
    """Independent finite-difference evaluation of the classical matrix.

    Central differences on the outcome probabilities; requires every
    probability to clear ``10 * delta`` so the differencing is stable.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    probs = probabilities(model.output_state(theta), projectors)
    if np.min(probs) <= 10.0 * delta:
        raise StepTooLargeError(
            f"min outcome probability {np.min(probs):.3e} <= 10 * delta = {10 * delta:.1e}"
        )
    d = model.d
    dP = np.empty((d, len(projectors)))
    for l in range(d):
        step = np.zeros(d)
        step[l] = delta
        plus = probabilities(model.output_state(theta + step), projectors)
        minus = probabilities(model.output_state(theta - step), projectors)
        dP[l] = (plus - minus) / (2.0 * delta)
    matrix = np.zeros((d, d))
    for k in range(len(projectors)):
        matrix += np.outer(dP[:, k], dP[:, k]) / probs[k]
    return 0.5 * (matrix + matrix.T)


@dataclass(frozen=True)
class FisherPair:
    """Classical and quantum matrices at one working point, with their gap."""

    theta: np.ndarray
    fim: np.ndarray
    qfim: np.ndarray
    gap: float
    singular_outcomes: tuple
    direction_dependent: bool
    diagnostics: FimDiagnostics


def fisher_pairs(model: Interferometer, thetas, projectors: ProjectorSet,
                 policy: LimitPolicy = DEFAULT_LIMIT_POLICY,
                 ordering_slack: float = 1e-8) -> list:
    """``fisher_pair`` at each row of a (G, d) array of working points.

    The points are evaluated as one batch: one bundle, one masked sum over
    regular outcomes, stacked quantum matrices and stacked eigenvalue
    checks.  The working set is O(G * d * D) for basis dimension D.  Raises
    the errors of the per-point evaluation: validation, singular limits and
    the ordering checks each run over all points in turn, and the first
    failing point of the first failing stage is reported.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2:
        raise DimensionMismatchError(f"expected a (G, d) array, got shape {thetas.shape}")
    bundle = model.derivative_bundle(thetas).validate()
    classical, diagnostics = fim_from_bundle(model, bundle, projectors, policy)
    quantum = qfim(bundle)

    eigenvalues = hermitian_eigenvalues(quantum - classical)
    smallest = np.min(eigenvalues, axis=-1)
    bad = np.flatnonzero(smallest < -ordering_slack)
    if bad.size:
        raise InternalInconsistencyError(
            "classical matrix exceeds the quantum bound: "
            f"min eig(F_Q - F) = {smallest[bad[0]]:.3e}"
        )
    gaps = np.max(np.abs(eigenvalues), axis=-1)
    bad = np.flatnonzero(gaps > spectral_norm(quantum) + ordering_slack)
    if bad.size:
        raise InternalInconsistencyError(
            f"gap {gaps[bad[0]]:.3e} exceeds ||F_Q||_2; matrices are inconsistent"
        )
    return [
        FisherPair(
            theta=bundle.theta[g],
            fim=classical[g],
            qfim=quantum[g],
            gap=float(gaps[g]),
            singular_outcomes=tuple(diagnostics[g].singular_outcomes),
            direction_dependent=diagnostics[g].direction_dependent,
            diagnostics=diagnostics[g],
        )
        for g in range(len(thetas))
    ]


def fisher_pair(model: Interferometer, theta, projectors: ProjectorSet,
                policy: LimitPolicy = DEFAULT_LIMIT_POLICY,
                ordering_slack: float = 1e-8) -> FisherPair:
    """Evaluate both matrices and validate the quantum-ordering invariant.

    The single-point case of ``fisher_pairs``.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.ndim != 1:
        raise DimensionMismatchError(f"expected {model.d} phases, got shape {theta.shape}")
    return fisher_pairs(model, theta[None, :], projectors, policy, ordering_slack)[0]
