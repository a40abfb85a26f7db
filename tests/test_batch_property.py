"""Property tests: the batched Fisher evaluation equals the per-point one,
``F_Q - F`` equals the saturation-condition deficit ``4 sum_k q_k q_k^T``,
and the model's constant ``F_Q`` equals the bundle formula at every theta.

Random QR-unitary instruments (up to four modes, three photons and m - 1
phases) are evaluated on grids that hold singular points: theta = 0 and
2 pi (the splitters cancel and every other outcome is dark), a point
within 1e-7 of zero (probabilities below the floor but not zero, where
the phase of each near-dark amplitude amplifies its rounding) and generic
points.  No point may raise.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from multiphase import (
    Interferometer,
    ProjectorSet,
    condition_deficit,
    fisher_pair,
    fisher_pairs,
    overlap_record,
    qfim,
)


@st.composite
def instruments(draw):
    modes = draw(st.integers(2, 4))
    photons = draw(st.integers(1, 3))
    d = draw(st.integers(1, modes - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.normal(size=(modes, modes)) + 1j * rng.normal(size=(modes, modes))
    q, r = np.linalg.qr(z)
    splitter = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    probe = tuple(int(n) for n in rng.multinomial(photons, np.ones(modes) / modes))
    phase_modes = tuple(int(p) for p in rng.choice(modes, size=d, replace=False))
    model = Interferometer(splitter, phase_modes, probe)
    thetas = np.vstack([
        np.zeros(d),
        np.full(d, 2.0 * np.pi),
        1e-7 * rng.normal(size=d),
        rng.uniform(0.0, 2.0 * np.pi, size=(3, d)),
    ])
    return model, thetas


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(instruments())
def test_batched_equals_per_point(case):
    model, thetas = case
    fock = ProjectorSet.fock(model.basis)
    wanted = [fisher_pair(model, t, fock) for t in thetas]
    for got, want in zip(fisher_pairs(model, thetas, fock), wanted):
        tol = 1e-12 * max(1.0, np.max(np.abs(want.qfim)))
        assert np.max(np.abs(got.fim - want.fim)) <= tol
        assert np.max(np.abs(got.qfim - want.qfim)) <= tol
        assert abs(got.gap - want.gap) <= tol
        assert (got.gap < 1e-6) == (want.gap < 1e-6)
        assert got.diagnostics == want.diagnostics


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(instruments())
def test_deficit_identity(case):
    model, thetas = case
    bundle = model.derivative_bundle(thetas)
    rng = np.random.default_rng(len(thetas) * model.basis.dim)
    z = rng.normal(size=(model.basis.dim,) * 2) + 1j * rng.normal(size=(model.basis.dim,) * 2)
    rotated = ProjectorSet(model.basis, np.linalg.qr(z)[0].T, complete=True)
    for projectors in (ProjectorSet.fock(model.basis), rotated):
        record = overlap_record(model, bundle, projectors)
        quantum = qfim(bundle)
        mismatch = quantum - record.fim() - condition_deficit(model, record)
        scale = np.maximum(1.0, np.max(np.abs(quantum), axis=(1, 2)))
        assert np.all(np.max(np.abs(mismatch), axis=(1, 2)) <= 1e-12 * scale)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(instruments())
def test_model_constants_equal_the_bundle_formulas(case):
    model, thetas = case
    bundle = model.derivative_bundle(thetas)
    quantum = qfim(bundle)
    scale = max(1.0, np.max(np.abs(quantum)))
    assert np.max(np.abs(model.quantum_fisher - quantum)) <= 1e-12 * scale
    gamma = (bundle.dpsi.conj() @ bundle.psi[..., None])[..., 0].imag
    assert np.max(np.abs(gamma + model.mean_occupation)) <= 1e-12 * max(1.0, sum(model.probe))
