"""Near-dark and dark photon-counting terms against an 80-digit oracle.

The oracle (``oracles.mp_fim``) evaluates ``dP_l dP_m / P`` from
permanents in mpmath.  At exactly dark points it moves 1e-20 off the
singular locus, so it approximates the directional limit to O(1e-20).
"""

import numpy as np
import pytest

from multiphase import ProjectorSet, builtin_model, fisher_pair

pytest.importorskip("mpmath")

from oracles import mp_fim  # noqa: E402

CROSSING = np.array([[4.0, -4.0], [-4.0, 4.0]])


@pytest.fixture(scope="module")
def mzi4():
    model = builtin_model("mzi4")
    return model, ProjectorSet.fock(model.basis)


def test_scan_cells_beside_the_locus_crossing(mzi4):
    # Cells (50, 51) and (51, 50) of the 101x101 scan, spaced as
    # `multiphase scan` spaces them; four outcomes there have |a| = 2.9e-7.
    model, fock = mzi4
    axis = 2.0 * np.pi * np.arange(101) / 101
    for theta in ([axis[50], axis[51]], [axis[51], axis[50]]):
        pair = fisher_pair(model, theta, fock)
        assert len(pair.diagnostics.singular_outcomes) == 4
        assert np.max(np.abs(pair.fim - CROSSING)) <= 1e-10
    reference = mp_fim(model, [axis[50], axis[51]])
    assert np.max(np.abs(reference - CROSSING)) <= 1e-10


@pytest.mark.parametrize("theta", [[0.7, 0.7 + 1e-10], [1.9, 1.9 - 1e-12]])
def test_points_just_off_the_locus(mzi4, theta):
    # Within 1e-10 of the locus 16 or 26 outcomes are dark at theta itself,
    # and the diagonal's first-order term there is O(epsilon): its phase is
    # not the phase of a.  The photon-counting bound is still saturated.
    model, fock = mzi4
    pair = fisher_pair(model, theta, fock)
    assert pair.diagnostics.limit_evaluated
    reference = mp_fim(model, theta)
    assert np.max(np.abs(pair.fim - reference)) <= 1e-9
    assert np.max(np.abs(reference - pair.qfim)) <= 1e-9


@pytest.mark.parametrize("t", [np.pi / 2 - 400e-6, np.pi - 135e-6])
def test_locus_points_that_once_did_not_converge(mzi4, t):
    model, fock = mzi4
    pair = fisher_pair(model, [t, t], fock)
    assert pair.diagnostics.limit_evaluated
    assert pair.gap < 1e-8
    reference = mp_fim(model, [t, t], offset=("1e-20", "0"))
    assert np.max(np.abs(pair.fim - reference)) <= 1e-9
