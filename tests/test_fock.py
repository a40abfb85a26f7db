"""Tests for Fock basis enumeration and second-quantized lifts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiphase import (
    DimensionMismatchError,
    NotUnitaryError,
    SizeOverflowError,
    basis_state,
    enumerate_basis,
    lift_unitary,
    number_operator,
    tritter,
)
from tests.oracles import lift_by_permanents, lifted_entry
from tests.test_linalg import permanent_by_enumeration


def random_unitary(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


class TestEnumerateBasis:
    def test_three_photons_three_modes_has_ten_states(self):
        assert enumerate_basis(3, 3).dim == 10

    @pytest.mark.parametrize("modes", [1, 2, 5, 8])
    def test_single_photon_dimension_equals_modes(self, modes):
        assert enumerate_basis(1, modes).dim == modes

    def test_four_photons_four_modes(self):
        assert enumerate_basis(4, 4).dim == 35

    def test_ordering_is_descending_and_stable(self):
        basis = enumerate_basis(3, 3)
        assert basis.states[0] == (3, 0, 0)
        assert basis.states[1] == (2, 1, 0)
        assert basis.states[-1] == (0, 0, 3)
        assert list(basis.states) == sorted(basis.states, reverse=True)

    def test_index_round_trip(self):
        basis = enumerate_basis(4, 4)
        for i, occ in enumerate(basis.states):
            assert basis.index_of(occ) == i

    def test_occupations_conserve_photon_number(self):
        basis = enumerate_basis(3, 4)
        assert all(sum(occ) == 3 for occ in basis.states)
        assert len(set(basis.states)) == basis.dim

    def test_size_cap(self):
        with pytest.raises(SizeOverflowError):
            enumerate_basis(30, 30, max_dim=10**4)


class TestLiftUnitary:
    def test_identity_lifts_to_identity(self):
        basis = enumerate_basis(3, 3)
        assert np.allclose(lift_unitary(np.eye(3), basis), np.eye(basis.dim))

    def test_phase_matrix_lifts_to_phase_layer(self):
        basis = enumerate_basis(2, 3)
        theta = np.array([0.3, -1.2, 2.5])
        lifted = lift_unitary(np.diag(np.exp(1j * theta)), basis)
        expected = np.diag(np.exp(1j * sum(t * number_operator(basis, l)
                                           for l, t in enumerate(theta))))
        assert np.allclose(lifted, expected, atol=1e-12)

    def test_tritter_bunching_amplitude(self):
        # |<1,1,1|U|1,1,1>|^2 computed against the brute-force permanent.
        basis = enumerate_basis(3, 3)
        u = tritter()
        lifted = lift_unitary(u, basis)
        i = basis.index_of((1, 1, 1))
        expected = abs(permanent_by_enumeration(u)) ** 2
        assert abs(lifted[i, i]) ** 2 == pytest.approx(expected, abs=1e-12)
        assert abs(lifted[i, i]) ** 2 == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_lift_is_unitary(self):
        rng = np.random.default_rng(5)
        basis = enumerate_basis(3, 3)
        lifted = lift_unitary(random_unitary(3, rng), basis)
        assert np.max(np.abs(lifted.conj().T @ lifted - np.eye(basis.dim))) < 1e-9

    def test_homomorphism(self):
        rng = np.random.default_rng(13)
        basis = enumerate_basis(2, 3)
        u, v = random_unitary(3, rng), random_unitary(3, rng)
        assert np.allclose(
            lift_unitary(u @ v, basis),
            lift_unitary(u, basis) @ lift_unitary(v, basis),
            atol=1e-9,
        )

    def test_dagger_compatible(self):
        rng = np.random.default_rng(19)
        basis = enumerate_basis(2, 4)
        u = random_unitary(4, rng)
        assert np.allclose(
            lift_unitary(u.conj().T, basis),
            lift_unitary(u, basis).conj().T,
            atol=1e-10,
        )

    def test_amplitude_normalization_with_bunching(self):
        # Two photons on a balanced splitter: the bunched outputs carry
        # amplitude 1/sqrt(2) each (Hong-Ou-Mandel).
        basis = enumerate_basis(2, 2)
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        lifted = lift_unitary(h, basis)
        state = lifted @ basis_state(basis, (1, 1))
        assert abs(state[basis.index_of((1, 1))]) < 1e-12
        assert abs(state[basis.index_of((2, 0))]) ** 2 == pytest.approx(0.5, abs=1e-12)

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitaryError):
            lift_unitary(np.ones((3, 3)), enumerate_basis(2, 3))

    def test_rejects_wrong_mode_count(self):
        with pytest.raises(DimensionMismatchError):
            lift_unitary(np.eye(4), enumerate_basis(2, 3))


class TestNumberOperator:
    def test_counts_occupation(self):
        basis = enumerate_basis(3, 3)
        diag = number_operator(basis, 0)
        assert diag[basis.index_of((3, 0, 0))] == 3
        assert diag[basis.index_of((1, 1, 1))] == 1

    def test_modes_sum_to_total_photon_number(self):
        basis = enumerate_basis(4, 4)
        total = sum(number_operator(basis, m) for m in range(4))
        assert np.array_equal(total, 4.0 * np.ones(basis.dim))

    def test_trace_identity_for_symmetric_basis(self):
        for photons, modes in ((3, 3), (4, 4), (2, 5)):
            basis = enumerate_basis(photons, modes)
            trace = number_operator(basis, 0).sum()
            assert trace == pytest.approx(photons * basis.dim / modes)

    def test_out_of_range_mode(self):
        with pytest.raises(IndexError):
            number_operator(enumerate_basis(2, 3), 3)


@st.composite
def unitaries_and_bases(draw):
    modes = draw(st.integers(2, 5))
    photons = draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_unitary(modes, rng), enumerate_basis(photons, modes)


class TestLiftAgainstPermanents:
    """The photon-by-photon lift against one Ryser permanent per entry."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(unitaries_and_bases())
    def test_every_entry_matches_the_permanent(self, case):
        # Every column is compared, the bunched (n, 0, ...) ones included.
        u, basis = case
        assert np.max(np.abs(lift_unitary(u, basis) - lift_by_permanents(u, basis))) <= 1e-12

    def test_zero_photons_lift_to_one(self):
        u = random_unitary(3, np.random.default_rng(3))
        assert np.array_equal(lift_unitary(u, enumerate_basis(0, 3)), [[1.0]])

    def test_one_photon_lift_is_the_unitary(self):
        u = random_unitary(4, np.random.default_rng(4))
        assert np.array_equal(lift_unitary(u, enumerate_basis(1, 4)), u)

    @pytest.mark.parametrize("photons, modes", [(6, 4), (4, 6)])
    def test_large_lift(self, photons, modes):
        # dims 84 and 126: seeded entries against the permanent, unitarity
        # and the homomorphism, where the full permanent lift is too slow.
        rng = np.random.default_rng(photons * 10 + modes)
        basis = enumerate_basis(photons, modes)
        u, v = random_unitary(modes, rng), random_unitary(modes, rng)
        lifted = lift_unitary(u, basis)
        for t, s in rng.integers(basis.dim, size=(32, 2)):
            expected = lifted_entry(u, basis.states[t], basis.states[s])
            assert abs(lifted[t, s] - expected) <= 1e-12
        assert np.max(np.abs(lifted.conj().T @ lifted - np.eye(basis.dim))) <= 1e-12
        product = lift_unitary(u @ v, basis) - lifted @ lift_unitary(v, basis)
        assert np.max(np.abs(product)) <= 1e-12
