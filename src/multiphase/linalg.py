"""Dense complex linear algebra kernels shared by all modules."""

import numpy as np

from .errors import ComplexGramError, NotHermitianError, NotSquareError
from .tolerances import GRAM_SCHMIDT_DROP, HERMITIAN


def hermitian_eigenvalues(matrix):
    """Eigenvalues of a Hermitian (or real symmetric) matrix, ascending.

    ``matrix`` may be a stack of shape (..., n, n); the eigenvalues then
    have shape (..., n).  Raises NotHermitianError if any matrix deviates
    from its conjugate transpose by more than ``HERMITIAN`` in any entry.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise NotSquareError(f"expected a square matrix, got shape {m.shape}")
    deviation = np.max(np.abs(m - np.swapaxes(m, -1, -2).conj())) if m.size else 0.0
    if deviation > HERMITIAN:
        raise NotHermitianError(f"max |M - M^H| = {deviation:.3e} exceeds {HERMITIAN:.1e}")
    return np.linalg.eigvalsh(m)


def spectral_norm(matrix):
    """Largest-magnitude eigenvalue of a Hermitian matrix (its 2-norm).

    A stack of shape (..., n, n) gives an array of shape (...).
    """
    eigenvalues = np.abs(hermitian_eigenvalues(matrix))
    if eigenvalues.ndim > 1:
        return np.max(eigenvalues, axis=-1, initial=0.0)
    return float(np.max(eigenvalues, initial=0.0))


def permanent(matrix):
    """Permanent of a square complex matrix.

    Computed with Ryser's inclusion-exclusion formula iterated in Gray-code
    order, O(2^n * n); dimensions up to three use the explicit expansion.
    The permanent of the empty 0x0 matrix is 1.

    Parameters
    ----------
    matrix : array_like
        Square matrix of complex numbers.

    Returns
    -------
    complex
        sum over permutations s of prod_i matrix[i, s(i)].
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSquareError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n == 0:
        return complex(1.0)
    if n == 1:
        return complex(a[0, 0])
    if n == 2:
        return complex(a[0, 0] * a[1, 1] + a[0, 1] * a[1, 0])
    if n == 3:
        return complex(
            a[0, 0] * (a[1, 1] * a[2, 2] + a[1, 2] * a[2, 1])
            + a[0, 1] * (a[1, 0] * a[2, 2] + a[1, 2] * a[2, 0])
            + a[0, 2] * (a[1, 0] * a[2, 1] + a[1, 1] * a[2, 0])
        )

    # Gray-code Ryser: row_sums tracks sum over the current column subset,
    # updated by one column per step.
    row_sums = np.zeros(n, dtype=complex)
    total = 0.0 + 0.0j
    gray = 0
    sign = 1
    for k in range(1, 2**n):
        new_gray = k ^ (k >> 1)
        changed = gray ^ new_gray
        j = changed.bit_length() - 1
        if new_gray & changed:
            row_sums += a[:, j]
        else:
            row_sums -= a[:, j]
        sign = -sign
        total += sign * np.prod(row_sums)
        gray = new_gray
    if n % 2 == 1:
        total = -total
    return complex(total)


def gram_schmidt_real_span(vectors):
    """Orthonormalize complex vectors using only real combination coefficients.

    The inputs must have a real Gram matrix (checked within
    ``GRAM_SCHMIDT_DROP``); otherwise no real-coefficient orthonormal basis
    of their span exists and ComplexGramError is raised.  Linearly
    dependent inputs (post-projection norm below ``GRAM_SCHMIDT_DROP``)
    are dropped.

    Uses the modified Gram-Schmidt recurrence with a second
    re-orthogonalization pass for stability.

    Returns
    -------
    (outputs, coefficients)
        ``outputs`` is a list of orthonormal vectors; ``coefficients`` is
        the real matrix ``b`` with ``outputs[k] = sum_m b[m, k] * vectors[m]``.
    """
    vecs = [np.asarray(v, dtype=complex) for v in vectors]
    if not vecs:
        return [], np.zeros((0, 0))
    dim = vecs[0].shape[0]
    for v in vecs:
        if v.shape != (dim,):
            raise ComplexGramError("input vectors must share one dimension")

    gram = np.array([[np.vdot(u, v) for v in vecs] for u in vecs])
    worst = float(np.max(np.abs(gram.imag))) if gram.size else 0.0
    if worst > GRAM_SCHMIDT_DROP:
        raise ComplexGramError(
            f"Gram matrix has |Im| = {worst:.3e} > {GRAM_SCHMIDT_DROP:.1e}; "
            "real-coefficient span impossible"
        )

    outputs = []
    coefficient_columns = []
    n = len(vecs)
    for j, v in enumerate(vecs):
        w = v.copy()
        coeff = np.zeros(n)
        coeff[j] = 1.0
        for _ in range(2):  # two passes of re-orthogonalization
            for u, cu in zip(outputs, coefficient_columns):
                overlap = np.vdot(u, w).real
                w = w - overlap * u
                coeff = coeff - overlap * cu
        norm = np.linalg.norm(w)
        if norm < GRAM_SCHMIDT_DROP:
            continue
        outputs.append(w / norm)
        coefficient_columns.append(coeff / norm)

    b = np.column_stack(coefficient_columns) if coefficient_columns else np.zeros((n, 0))
    return outputs, b
