"""Fixed-photon-number Fock basis and second-quantized lifts of mode unitaries."""

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .errors import DimensionMismatchError, NotUnitaryError, SizeOverflowError
from .tolerances import UNITARY


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


def as_int(value, name: str) -> int:
    """``value`` as an int; a non-integral value raises ValueError, not truncates."""
    try:
        number = int(value)
        integral = number == value
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return number


def as_complex_rows(value, name: str) -> np.ndarray:
    """Rows of ``[re, im]`` pairs as a complex matrix; anything else raises ValueError."""
    try:
        pairs = np.array(value)
    except ValueError:                   # ragged rows
        pairs = np.array(None)
    if pairs.dtype.kind not in "biuf" or pairs.ndim != 3 or pairs.shape[2] != 2:
        raise ValueError(f"{name} must be rows of [re, im] pairs")
    return pairs.astype(float).view(complex)[..., 0]


def enumerate_basis(photons: int, modes: int, max_dim: int = 10**6) -> FockBasis:
    """Enumerate the complete basis of ``photons`` photons in ``modes`` modes."""
    photons, modes = as_int(photons, "photons"), as_int(modes, "modes")
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


def _lowered(level: FockBasis, below: FockBasis) -> np.ndarray:
    """(modes, level.dim) index in ``below`` of each state less one photon in mode i.

    Entries for an empty mode i are 0; their weight sqrt(T_i) is 0.
    """
    table = np.zeros((level.modes, level.dim), dtype=np.intp)
    for t, state in enumerate(level.states):
        for i, n in enumerate(state):
            if n:
                table[i, t] = below.index[state[:i] + (n - 1,) + state[i + 1:]]
    return table


def lift_unitary(unitary, basis: FockBasis) -> np.ndarray:
    """Lift an m-mode unitary to the fixed-photon-number Fock space.

    Built one photon at a time from ``lift(U) a_j^+ lift(U)^+ = sum_i U_ij a_i^+``
    (Scheel, quant-ph/0406127): with j the first occupied mode of S,
    ``<T|lift(U)|S> = sum_i U_ij sqrt(T_i / S_j) <T - e_i|lift(U)|S - e_j>``,
    starting from the 0-photon lift [[1]].  O(n m dim^2) work.
    """
    u = np.asarray(unitary, dtype=complex)
    if u.shape != (basis.modes, basis.modes):
        raise DimensionMismatchError(
            f"unitary shape {u.shape} does not match {basis.modes} modes"
        )
    with np.errstate(invalid="ignore"):  # an infinite entry fails the check as NaN
        deviation = np.max(np.abs(u.conj().T @ u - np.eye(basis.modes)))
    if not deviation <= UNITARY:
        raise NotUnitaryError(f"max |U^H U - I| = {deviation:.3e} exceeds {UNITARY:.1e}")

    lifted = np.ones((1, 1), dtype=complex)
    below = enumerate_basis(0, basis.modes)
    for photons in range(1, basis.photons + 1):
        level = basis if photons == basis.photons else enumerate_basis(photons, basis.modes)
        occupations = np.array(level.states, dtype=float)
        lowered = _lowered(level, below)
        columns = np.arange(level.dim)
        first = np.argmax(occupations > 0, axis=1)
        # <T - e_i|lift(U)|S - e_j> / sqrt(S_j), rows still indexed by the level below.
        reduced = lifted[:, lowered[first, columns]] / np.sqrt(occupations[columns, first])
        lifted = np.zeros((level.dim, level.dim), dtype=complex)
        for i in range(basis.modes):
            lifted += np.sqrt(occupations[:, i])[:, None] * reduced[lowered[i]] * u[i, first]
        below = level
    return lifted


def number_operator(basis: FockBasis, mode: int) -> np.ndarray:
    """Diagonal of the photon-number operator for one mode (length basis.dim)."""
    if not 0 <= mode < basis.modes:
        raise IndexError(f"mode {mode} out of range for {basis.modes} modes")
    return np.array([occ[mode] for occ in basis.states], dtype=float)


def basis_state(basis: FockBasis, occupation) -> np.ndarray:
    """Unit amplitude vector for one occupation."""
    amplitudes = np.zeros(basis.dim, dtype=complex)
    amplitudes[basis.index_of(occupation)] = 1.0
    return amplitudes
