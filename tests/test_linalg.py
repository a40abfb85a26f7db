"""Tests for the dense linear algebra kernels."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiphase import (
    ComplexGramError,
    NotHermitianError,
    NotSquareError,
    gram_schmidt_real_span,
    hermitian_eigenvalues,
    permanent,
    spectral_norm,
)


def permanent_by_enumeration(matrix):
    """Brute-force permutation sum; the independent oracle."""
    a = np.asarray(matrix, dtype=complex)
    n = a.shape[0]
    total = 0.0 + 0.0j
    for sigma in itertools.permutations(range(n)):
        product = 1.0 + 0.0j
        for i, j in enumerate(sigma):
            product *= a[i, j]
        total += product
    return total


class TestHermitianEigenvalues:
    def test_identity(self):
        assert np.allclose(hermitian_eigenvalues(np.eye(3)), [1.0, 1.0, 1.0])

    def test_three_mode_quantum_matrix(self):
        # Closed-form eigenvalues of (8/3)[[2,-1],[-1,2]]: a -+ |b| with
        # a = 16/3, b = -8/3, hence 8/3 and 8.
        matrix = (8.0 / 3.0) * np.array([[2.0, -1.0], [-1.0, 2.0]])
        assert np.allclose(hermitian_eigenvalues(matrix), [8.0 / 3.0, 8.0], atol=1e-12)

    def test_diagonal_sorted(self):
        assert np.allclose(hermitian_eigenvalues(np.diag([-2.0, 7.0])), [-2.0, 7.0])

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite(self, value):
        with pytest.raises(NotHermitianError):
            hermitian_eigenvalues(np.diag([1.0, value]))

    def test_rejects_non_square(self):
        with pytest.raises(NotSquareError):
            hermitian_eigenvalues(np.ones((2, 3)))

    def test_trace_matches_eigenvalue_sum(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            h = a + a.conj().T
            values = hermitian_eigenvalues(h)
            assert np.isclose(values.sum(), np.trace(h).real, rtol=1e-9)

    def test_similarity_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.normal(size=(4, 4))
            h = a + a.T
            q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            assert np.allclose(
                hermitian_eigenvalues(h),
                hermitian_eigenvalues(q.T @ h @ q),
                atol=1e-9,
            )


class TestSpectralNorm:
    def test_three_mode_quantum_matrix_is_eight(self):
        matrix = (8.0 / 3.0) * np.array([[2.0, -1.0], [-1.0, 2.0]])
        assert spectral_norm(matrix) == pytest.approx(8.0, abs=1e-12)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 3))) == 0.0

    def test_rank_one(self):
        assert spectral_norm(np.ones((2, 2))) == pytest.approx(2.0, abs=1e-12)

    def test_negative_eigenvalue_dominates(self):
        assert spectral_norm(np.diag([-5.0, 3.0])) == pytest.approx(5.0)


class TestPermanent:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
    def test_identity(self, n):
        assert permanent(np.eye(n)) == pytest.approx(1.0)

    def test_all_ones_three(self):
        assert permanent(np.ones((3, 3))) == pytest.approx(6.0)

    def test_random_four_by_four_matches_enumeration(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        expected = permanent_by_enumeration(a)
        assert abs(permanent(a) - expected) <= 1e-12 * abs(expected)

    def test_rejects_non_square(self):
        with pytest.raises(NotSquareError):
            permanent(np.ones((2, 3)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_enumeration_randomized(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(25):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            expected = permanent_by_enumeration(a)
            assert abs(permanent(a) - expected) <= 1e-11 * max(1.0, abs(expected))

    def test_multilinear_in_rows(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            i = int(rng.integers(0, n))
            c = complex(rng.normal(), rng.normal())
            scaled = a.copy()
            scaled[i] *= c
            assert np.isclose(permanent(scaled), c * permanent(a), rtol=1e-10, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**31 - 1))
    def test_row_swap_invariance(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        swapped = a[::-1].copy()
        assert np.isclose(permanent(a), permanent(swapped), rtol=1e-10, atol=1e-12)


class TestGramSchmidtRealSpan:
    def test_single_unit_vector(self):
        v = np.array([1.0, 0.0, 0.0], dtype=complex)
        outputs, b = gram_schmidt_real_span([v])
        assert len(outputs) == 1
        assert np.allclose(outputs[0], v)
        assert np.allclose(b, [[1.0]])

    def test_duplicate_vector_dropped(self):
        v = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
        outputs, b = gram_schmidt_real_span([v, v])
        assert len(outputs) == 1
        assert b.shape == (2, 1)

    def test_orthonormal_outputs_and_real_coefficients(self):
        rng = np.random.default_rng(23)
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        vectors = [phase * rng.normal(size=6) for _ in range(4)]
        outputs, b = gram_schmidt_real_span(vectors)
        gram = np.array([[np.vdot(u, v) for v in outputs] for u in outputs])
        assert np.max(np.abs(gram - np.eye(len(outputs)))) < 1e-10
        rebuilt = [sum(b[m, k] * vectors[m] for m in range(len(vectors)))
                   for k in range(len(outputs))]
        for u, r in zip(outputs, rebuilt):
            assert np.allclose(u, r, atol=1e-9)

    def test_span_preserved_for_independent_inputs(self):
        rng = np.random.default_rng(29)
        vectors = [rng.normal(size=5) + 0j for _ in range(3)]
        outputs, _ = gram_schmidt_real_span(vectors)
        basis = np.array(outputs)
        for v in vectors:
            residual = v - basis.T @ (basis.conj() @ v)
            assert np.linalg.norm(residual) < 1e-9

    def test_complex_gram_rejected(self):
        v1 = np.array([1.0, 0.0], dtype=complex)
        v2 = np.array([1j, 1.0], dtype=complex) / np.sqrt(2)
        with pytest.raises(ComplexGramError):
            gram_schmidt_real_span([v1, v2])
