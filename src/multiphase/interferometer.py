"""Parametric multimode Mach-Zehnder models U(theta) = W^-1 P(theta) W.

A model fixes the splitter W, the phase-carrying modes, and a Fock probe;
per-theta evaluation touches only the diagonal phase layer between the two
cached lifted splitters.  Derivative states are exact (number-operator
insertion), never finite differences.  The quantum Fisher matrix
``4 Cov(n_l, n_m)`` over ``|lift(W)|probe>|^2`` is a constant of the model.
"""

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatchError, InternalInconsistencyError
from .fock import (
    FockBasis,
    as_int,
    basis_state,
    enumerate_basis,
    lift_unitary,
    number_operator,
)
from .tolerances import STATE_NORM


def tritter() -> np.ndarray:
    """Balanced three-mode splitter: 3^{-1/2} e^{i 2pi/3 (1 - delta_jk)}."""
    off = np.exp(2j * np.pi / 3)
    u = np.full((3, 3), off, dtype=complex)
    np.fill_diagonal(u, 1.0)
    return u / np.sqrt(3)


def quarter() -> np.ndarray:
    """Balanced four-mode splitter: 2^{-1} (-1)^{1 - delta_jk} (real orthogonal)."""
    u = np.full((4, 4), -0.5)
    np.fill_diagonal(u, 0.5)
    return u


@dataclass(frozen=True)
class DerivativeBundle:
    """Output state and its exact phase derivatives at one or more working points.

    A single point has ``theta`` of shape (d,), ``psi`` of shape (D,) and
    ``dpsi`` of shape (d, D).  A batch of G points adds a leading axis to
    each: (G, d), (G, D) and (G, d, D).
    """

    theta: np.ndarray
    psi: np.ndarray          # normalized |psi_s>
    dpsi: np.ndarray         # |d_l psi_s> along axis -2, amplitude per radian
    basis: FockBasis

    def __post_init__(self):
        object.__setattr__(self, "dpsi", np.asarray(self.dpsi, dtype=complex))

    @property
    def d(self) -> int:
        return self.dpsi.shape[-2]

    @property
    def batched(self) -> bool:
        return self.psi.ndim == 2

    def validate(self):
        """Check the norm and ``Re<d_l psi|psi> = 0`` at every point."""
        norm_error = np.abs(np.sum(np.abs(self.psi) ** 2, axis=-1) - 1.0)
        worst = np.max(norm_error, initial=0.0)
        if worst > STATE_NORM:
            raise InternalInconsistencyError(f"|psi| deviates from 1 by {worst:.3e}")
        overlaps = (self.dpsi.conj() @ self.psi[..., None])[..., 0].real
        bad = np.abs(overlaps) > STATE_NORM
        if bad.any():
            index = np.unravel_index(np.argmax(bad), bad.shape)
            raise InternalInconsistencyError(
                f"<d_{index[-1]} psi|psi> has real part {overlaps[index]:.3e}; "
                "the normalization derivative must vanish"
            )
        return self


class Interferometer:
    """m-mode interferometer with phases inserted between W and W^-1.

    The evolution is ``lift(W^-1) . PhaseLayer(theta) . lift(W)`` applied to
    a Fock probe, with e^{+i theta_l} acting on ``phase_modes[l]``.
    ``quantum_fisher`` (d, d) and ``mean_occupation`` (d,) are read-only constants.
    """

    def __init__(self, splitter, phase_modes, probe):
        splitter = np.asarray(splitter, dtype=complex)
        modes = splitter.shape[0]
        if splitter.shape != (modes, modes):
            raise DimensionMismatchError("splitter must be square")
        phase_modes = tuple(as_int(p, "phase mode") for p in phase_modes)
        if len(set(phase_modes)) != len(phase_modes):
            raise ValueError("phase modes must be distinct")
        if not phase_modes or len(phase_modes) > modes - 1:
            raise ValueError("need 1 <= len(phase_modes) <= modes - 1")
        if any(not 0 <= p < modes for p in phase_modes):
            raise IndexError("phase mode out of range")
        probe = tuple(as_int(n, "probe count") for n in probe)
        if len(probe) != modes or any(n < 0 for n in probe):
            raise ValueError("probe must list a nonnegative count per mode")

        self.modes = modes
        self.splitter = splitter
        self.phase_modes = phase_modes
        self.probe = probe
        self.basis = enumerate_basis(sum(probe), modes)
        self.lifted_splitter = lift_unitary(splitter, self.basis)
        self.lifted_splitter_inverse = self.lifted_splitter.conj().T
        self._split_probe = self.lifted_splitter @ basis_state(self.basis, probe)
        self._phase_occupations = np.column_stack(
            [number_operator(self.basis, p) for p in phase_modes]
        )
        weights = np.abs(self._split_probe) ** 2
        # At every theta, Im<d_l psi|psi> = -<n_l> and F_Q = 4 Cov(n_l, n_m).
        self.mean_occupation = weights @ self._phase_occupations
        centred = self._phase_occupations - self.mean_occupation
        covariance = (centred.T * weights) @ centred
        self.quantum_fisher = 2.0 * (covariance + covariance.T)
        self.quantum_fisher.flags.writeable = self.mean_occupation.flags.writeable = False

    @property
    def d(self) -> int:
        return len(self.phase_modes)

    def _shifted(self, theta) -> tuple:
        """Validated phases, (d,) or (G, d), and ``P(theta) lift(W)|probe>``."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if theta.shape[-1] != self.d or theta.ndim > 2:
            raise DimensionMismatchError(
                f"expected {self.d} phases, got shape {theta.shape}"
            )
        if not np.isfinite(theta).all():
            raise ValueError("phases must be finite")
        return theta, np.exp(1j * (theta @ self._phase_occupations.T)) * self._split_probe

    def output_state(self, theta) -> np.ndarray:
        """Normalized amplitudes of U(theta) applied to the probe, (D,) or (G, D)."""
        return self._shifted(theta)[1] @ self.lifted_splitter_inverse.T

    def derivative_bundle(self, theta) -> DerivativeBundle:
        """Output state plus its exact derivative with respect to each phase.

        ``theta`` of shape (d,) gives a single-point bundle; shape (G, d)
        gives a batched bundle with one GEMM for all states and one for
        all derivative states.
        """
        theta, shifted = self._shifted(theta)
        rows = self.lifted_splitter_inverse.T     # psi = shifted @ rows, row-wise
        psi = shifted @ rows
        dpsi = (1j * self._phase_occupations.T * shifted[..., None, :]) @ rows
        return DerivativeBundle(theta=theta, psi=psi, dpsi=dpsi, basis=self.basis)

    def second_derivatives(self, theta) -> np.ndarray:
        """Exact ``d_l d_m psi`` at one or more points, shape (..., d, d, D).

        The generators commute, so ``d_l d_m psi = -W^-1 n_l n_m P(theta) W|probe>``.
        """
        _, shifted = self._shifted(theta)
        n = self._phase_occupations.T
        layers = -(n[:, None, :] * n[None, :, :]) * shifted[..., None, None, :]
        rows = self.lifted_splitter_inverse.T
        return (layers.reshape(-1, rows.shape[0]) @ rows).reshape(layers.shape)

    def amplitudes(self, thetas, rows) -> np.ndarray:
        """``<row_i|psi(theta_i)>`` for paired (n, d) points and (n, D) rows.

        Each amplitude is one fixed-shape elementwise sum
        ``sum_ij conj(Y_i) Linv_ij x_j`` with ``x = e^{i theta.n} lift(W)|probe>``,
        so its rounding does not depend on how many pairs are evaluated
        together, as a matrix product's does.
        """
        thetas = np.asarray(thetas, dtype=float)
        phases = np.sum(thetas[:, :, None] * self._phase_occupations.T, axis=1)
        x = np.exp(1j * phases) * self._split_probe
        terms = np.conj(rows)[:, :, None] * self.lifted_splitter_inverse * x[:, None, :]
        return terms.reshape(len(thetas), -1).sum(axis=1)

    def to_dict(self) -> dict:
        return {
            "modes": self.modes,
            "splitter": [[[z.real, z.imag] for z in row] for row in self.splitter],
            "phase_modes": list(self.phase_modes),
            "probe": list(self.probe),
        }


_SPLITTER_BUILDERS = {"tritter": tritter, "quarter": quarter}


def model_from_dict(spec: dict) -> Interferometer:
    """Build a model from its description dictionary (see ``load_model``)."""
    try:
        splitter_spec = spec["splitter"]
        phase_modes = spec["phase_modes"]
        probe = spec["probe"]
    except KeyError as missing:
        raise ValueError(f"model description lacks field {missing}") from None
    if isinstance(splitter_spec, str):
        try:
            splitter = _SPLITTER_BUILDERS[splitter_spec]()
        except KeyError:
            raise ValueError(f"unknown splitter name {splitter_spec!r}") from None
    else:
        splitter = np.array(
            [[complex(re, im) for re, im in row] for row in splitter_spec]
        )
    model = Interferometer(splitter, phase_modes, probe)
    if "modes" in spec and as_int(spec["modes"], "modes") != model.modes:
        raise ValueError(
            f"declared modes {spec['modes']} but splitter has {model.modes}"
        )
    return model


def load_model(path) -> Interferometer:
    """Load a model description from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))


def save_model(model: Interferometer, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model.to_dict(), fh, indent=2)


@lru_cache(maxsize=None)
def builtin_model(name: str) -> Interferometer:
    """The two balanced reference instruments.

    ``mzi3``: tritter, probe |1,1,1>, phases on modes 0 and 1.
    ``mzi4``: quarter, probe |1,1,1,1>, phases on modes 0 and 1.
    """
    if name == "mzi3":
        return Interferometer(tritter(), (0, 1), (1, 1, 1))
    if name == "mzi4":
        return Interferometer(quarter(), (0, 1), (1, 1, 1, 1))
    raise ValueError(f"unknown builtin model {name!r}; expected mzi3 or mzi4")
