"""Fixed-photon-number Fock basis and second-quantized lifts of mode unitaries."""

from dataclasses import dataclass, field
from math import comb, factorial

import numpy as np

from .errors import DimensionMismatchError, NotUnitaryError, SizeOverflowError
from .linalg import permanent
from .tolerances import UNITARY

# Factorials fit exactly in float64 up to 20!; desk-scale photon numbers stay far below.
_FACTORIALS = [float(factorial(k)) for k in range(21)]


def _log_factorial(n: int) -> float:
    return float(sum(np.log(np.arange(2, n + 1))))


def sqrt_factorial_product(occupation) -> float:
    """sqrt(prod_i n_i!) with a log-domain fallback for large counts."""
    if all(n <= 20 for n in occupation):
        out = 1.0
        for n in occupation:
            out *= _FACTORIALS[n]
        return float(np.sqrt(out))
    return float(np.exp(0.5 * sum(_log_factorial(n) for n in occupation)))


@dataclass(frozen=True, eq=False)
class FockBasis:
    """All occupation vectors of ``modes`` modes carrying ``photons`` photons.

    States are ordered lexicographically descending (|3,0,0> before
    |2,1,0>), which fixes a stable index for every occupation.
    """

    modes: int
    photons: int
    states: tuple = field(repr=False)
    index: dict = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.states)

    def index_of(self, occupation) -> int:
        return self.index[tuple(occupation)]

    def __eq__(self, other):
        return (
            isinstance(other, FockBasis)
            and self.modes == other.modes
            and self.photons == other.photons
        )

    def __hash__(self):
        return hash((self.modes, self.photons))


def enumerate_basis(photons: int, modes: int, max_dim: int = 10**6) -> FockBasis:
    """Enumerate the complete basis of ``photons`` photons in ``modes`` modes."""
    if photons < 0:
        raise ValueError("photons must be nonnegative")
    if modes < 1:
        raise ValueError("modes must be positive")
    dim = comb(photons + modes - 1, modes - 1)
    if dim > max_dim:
        raise SizeOverflowError(f"basis dimension {dim} exceeds cap {max_dim}")

    states = []

    def fill(remaining, slots, prefix):
        if slots == 1:
            states.append(prefix + (remaining,))
            return
        for n in range(remaining, -1, -1):
            fill(remaining - n, slots - 1, prefix + (n,))

    fill(photons, modes, ())
    index = {occ: i for i, occ in enumerate(states)}
    return FockBasis(modes=modes, photons=photons, states=tuple(states), index=index)


def lift_unitary(unitary, basis: FockBasis) -> np.ndarray:
    """Lift an m-mode unitary to the fixed-photon-number Fock space.

    The lifted entry from occupation S to occupation T is
    ``permanent(U[T, S]) / sqrt(prod T_i! * prod S_j!)`` where ``U[T, S]``
    repeats row i T_i times and column j S_j times.
    """
    u = np.asarray(unitary, dtype=complex)
    if u.shape != (basis.modes, basis.modes):
        raise DimensionMismatchError(
            f"unitary shape {u.shape} does not match {basis.modes} modes"
        )
    deviation = np.max(np.abs(u.conj().T @ u - np.eye(basis.modes)))
    if deviation > UNITARY:
        raise NotUnitaryError(f"max |U^H U - I| = {deviation:.3e} exceeds {UNITARY:.1e}")

    row_indices = [np.repeat(np.arange(basis.modes), occ) for occ in basis.states]
    norms = np.array([sqrt_factorial_product(occ) for occ in basis.states])

    dim = basis.dim
    lifted = np.empty((dim, dim), dtype=complex)
    for s, cols in enumerate(row_indices):
        u_cols = u[:, cols]
        for t, rows in enumerate(row_indices):
            lifted[t, s] = permanent(u_cols[rows, :]) / (norms[t] * norms[s])
    return lifted


def number_operator(basis: FockBasis, mode: int) -> np.ndarray:
    """Diagonal of the photon-number operator for one mode (length basis.dim)."""
    if not 0 <= mode < basis.modes:
        raise IndexError(f"mode {mode} out of range for {basis.modes} modes")
    return np.array([occ[mode] for occ in basis.states], dtype=float)


def phase_layer(basis: FockBasis, phase_modes, theta) -> np.ndarray:
    """Diagonal of the lifted phase shifter exp(i * sum_l theta_l * n_{phase_modes[l]})."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (len(phase_modes),):
        raise DimensionMismatchError(
            f"got {theta.shape[0] if theta.ndim else 0} phases for {len(phase_modes)} phase modes"
        )
    exponent = np.zeros(basis.dim)
    for mode, angle in zip(phase_modes, theta):
        exponent += angle * number_operator(basis, mode)
    return np.exp(1j * exponent)


def basis_state(basis: FockBasis, occupation) -> np.ndarray:
    """Unit amplitude vector for one occupation."""
    amplitudes = np.zeros(basis.dim, dtype=complex)
    amplitudes[basis.index_of(occupation)] = 1.0
    return amplitudes
