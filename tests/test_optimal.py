"""Tests for the saturating-measurement constructions."""

import numpy as np
import pytest

from multiphase import (
    Interferometer,
    ProjectorSet,
    SATURATES,
    InternalInconsistencyError,
    builtin_model,
    check_saturation,
    classify_projectors,
    construct_nonorthogonal_optimal,
    construct_orthogonal_optimal,
    fisher_pair,
    omega_frame,
    overlap_condition_residuals,
    qfim,
    uniform_mixing_rotation,
)
from multiphase.interferometer import DerivativeBundle


def degenerate_model():
    """Four modes, two phases whose sensitivity vectors are proportional.

    The splitter routes one probe photon into an equal superposition of
    the two phase modes and parks the other photon elsewhere, so the
    support has n_2 + n_3 = 1 everywhere and omega_2 = -omega_1.
    """
    w = np.zeros((4, 4), dtype=complex)
    w[:, 0] = np.array([0.0, 0.0, 1.0, 1.0]) / np.sqrt(2)
    w[:, 1] = np.array([0.0, 1.0, 0.0, 0.0])
    w[:, 2] = np.array([0.0, 0.0, 1.0, -1.0]) / np.sqrt(2)
    w[:, 3] = np.array([1.0, 0.0, 0.0, 0.0])
    return Interferometer(w, (2, 3), (1, 1, 0, 0))


class TestOmegaFrame:
    def test_gram_matrix_is_quarter_of_quantum_matrix(self):
        for name, theta in (("mzi3", [0.0, 0.0]), ("mzi4", [1.3, 0.2])):
            bundle = builtin_model(name).derivative_bundle(theta)
            frame = omega_frame(bundle)
            assert np.allclose(4.0 * frame.gram.real, qfim(bundle), atol=1e-10)

    def test_omegas_orthogonal_to_probe(self):
        bundle = builtin_model("mzi4").derivative_bundle([0.8, 2.6])
        frame = omega_frame(bundle)
        for w in frame.omegas:
            assert abs(np.vdot(bundle.psi, w)) < 1e-10

    def test_gram_matrix_real_for_commuting_generators(self):
        rng = np.random.default_rng(67)
        model = builtin_model("mzi3")
        for _ in range(5):
            bundle = model.derivative_bundle(rng.uniform(0, 2 * np.pi, 2))
            frame = omega_frame(bundle)
            assert frame.weak_commutativity_residual < 1e-10

    def test_probe_eigenstate_gives_zero_omega(self):
        # With the splitter diagonal on the probe, the derivative is a pure
        # phase rate and the orthogonalized state vanishes.
        model = Interferometer(np.eye(3), (0,), (2, 0, 1))
        bundle = model.derivative_bundle([0.5])
        frame = omega_frame(bundle)
        assert np.linalg.norm(frame.omegas[0]) < 1e-12


class TestOmegaSpanOrthogonalization:
    def test_real_span_reproduces_gram_matrix(self):
        # Orthonormalizing the omega states with real coefficients must
        # turn their Gram matrix into the identity: b^T G b = I, and the
        # outputs' recomputed Gram matrix must match.
        from multiphase import gram_schmidt_real_span

        bundle = builtin_model("mzi3").derivative_bundle([0.0, 0.0])
        frame = omega_frame(bundle)
        outputs, b = gram_schmidt_real_span(frame.omegas)
        assert len(outputs) == 2
        recomputed = np.array([[np.vdot(u, v) for v in outputs] for u in outputs])
        assert np.allclose(recomputed, np.eye(2), atol=1e-10)
        assert np.allclose(b.T @ frame.gram.real @ b, np.eye(2), atol=1e-9)
        assert np.allclose(4.0 * frame.gram.real, qfim(bundle), atol=1e-9)


class TestFullyNonOrthogonalSet:
    def test_mixed_basis_satisfies_overlap_conditions_and_saturates(self):
        # Rotating a saturating orthogonal basis by the uniform mixing
        # rotation in the full space leaves the overlap conditions intact
        # and gives a complete set where no projector is orthogonal to the
        # probe.
        model = builtin_model("mzi3")
        theta = [1.2, 0.5]
        base = construct_orthogonal_optimal(model, theta).projectors
        rotation = uniform_mixing_rotation(model.basis.dim)
        mixed = ProjectorSet(model.basis, rotation @ base.vectors, complete=True)

        bundle = model.derivative_bundle(theta)
        cls = classify_projectors(bundle.psi, mixed)
        assert cls.orthogonal == []
        assert len(cls.non_orthogonal) == model.basis.dim

        residuals = overlap_condition_residuals(bundle, mixed, cls.non_orthogonal)
        assert max(r.value for r in residuals) < 1e-10

        report = check_saturation(model, theta, mixed)
        assert report.verdict == SATURATES
        assert report.gap < 1e-8


class TestUniformMixingRotation:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_orthogonal_with_uniform_first_row(self, n):
        r = uniform_mixing_rotation(n)
        assert np.allclose(r @ r.T, np.eye(n), atol=1e-12)
        assert np.allclose(r[0, :], np.full(n, 1.0 / np.sqrt(n)), atol=1e-12)

    def test_two_dimensional_pattern(self):
        r = uniform_mixing_rotation(2)
        s = 1.0 / np.sqrt(2)
        assert np.allclose(r, np.array([[s, s], [s, -s]]), atol=1e-12)


class TestOrthogonalConstruction:
    def test_three_mode_origin_full_set(self):
        model = builtin_model("mzi3")
        built = construct_orthogonal_optimal(model, [0.0, 0.0])
        assert len(built.projectors) == 10
        assert built.projectors.complete
        assert built.verification.gap < 1e-8

    def test_first_projector_is_probe(self):
        model = builtin_model("mzi4")
        theta = [0.7, 2.9]
        built = construct_orthogonal_optimal(model, theta)
        psi = model.output_state(theta)
        assert abs(np.vdot(built.projectors.vectors[0], psi)) == pytest.approx(1.0, abs=1e-10)

    def test_single_parameter_model(self):
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        model = Interferometer(h, (0,), (1, 0))
        built = construct_orthogonal_optimal(model, [0.9])
        assert built.verification.gap < 1e-8
        assert len(built.projectors) == model.basis.dim

    def test_degenerate_frame_still_saturates(self):
        model = degenerate_model()
        bundle = model.derivative_bundle([0.4, 1.1])
        frame = omega_frame(bundle)
        rank = np.linalg.matrix_rank(frame.gram.real, tol=1e-10)
        assert rank == 1
        built = construct_orthogonal_optimal(model, [0.4, 1.1])
        assert built.in_span == 2  # probe plus a single omega direction
        assert built.projectors.complete
        assert built.verification.gap < 1e-8

    def test_coefficients_real_and_consistent(self):
        model = builtin_model("mzi3")
        theta = [1.1, 0.6]
        built = construct_orthogonal_optimal(model, theta)
        bundle = model.derivative_bundle(theta)
        frame = omega_frame(bundle)
        omegas = np.array(frame.omegas)
        assert np.isrealobj(built.coefficients)
        for k in range(1, built.in_span):
            rebuilt = built.coefficients[:, k - 1] @ omegas
            assert np.allclose(rebuilt, built.projectors.vectors[k], atol=1e-9)
        # Independent re-derivation: least-squares coefficients over the
        # omega states must come out real.
        for k in range(1, built.in_span):
            coeff, *_ = np.linalg.lstsq(omegas.T, built.projectors.vectors[k],
                                        rcond=None)
            assert np.max(np.abs(coeff.imag)) < 1e-12

    def test_derivative_overlaps_real_for_in_span_projectors(self):
        model = builtin_model("mzi4")
        theta = [2.2, 0.3]
        built = construct_orthogonal_optimal(model, theta)
        bundle = model.derivative_bundle(theta)
        for k in range(1, built.in_span):
            y = built.projectors.vectors[k]
            for dp in bundle.dpsi:
                assert abs(np.vdot(dp, y).imag) < 1e-9

    def test_completion_vectors_carry_no_information(self):
        model = builtin_model("mzi3")
        theta = [0.5, 2.7]
        built = construct_orthogonal_optimal(model, theta)
        bundle = model.derivative_bundle(theta)
        for k in range(built.in_span, len(built.projectors)):
            y = built.projectors.vectors[k]
            assert abs(np.vdot(y, bundle.psi)) < 1e-10
            for dp in bundle.dpsi:
                assert abs(np.vdot(y, dp)) < 1e-10

    def test_weak_commutativity_gate(self):
        class NonCommutingModel:
            def __init__(self, residual):
                self.inner = builtin_model("mzi3")
                self.basis = self.inner.basis
                self.d = 2
                self.residual = residual

            def derivative_bundle(self, theta):
                psi = np.zeros(10, dtype=complex)
                psi[0] = 1.0
                d1 = np.zeros(10, dtype=complex)
                d2 = np.zeros(10, dtype=complex)
                d1[1] = 1.0
                d2[1], d2[2] = self.residual * 1.0j, 1.0
                return DerivativeBundle(theta=np.asarray(theta, dtype=float),
                                        psi=psi, dpsi=(d1, d2), basis=self.basis)

        # Number-operator generators cannot do this, so it is an
        # inconsistency, also below the former tol-wc default of 1e-8.
        for residual, shown in ((1.0, r"1\.000e\+00"), (1e-9, r"1\.000e-09")):
            with pytest.raises(InternalInconsistencyError,
                               match=r"max \|Im Omega\| = " + shown):
                construct_orthogonal_optimal(NonCommutingModel(residual), [0.0, 0.0])


class TestNonorthogonalConstruction:
    def test_three_mode_origin(self):
        model = builtin_model("mzi3")
        built = construct_nonorthogonal_optimal(model, [0.0, 0.0], mix=0.5)
        assert built.projectors.complete
        assert built.verification.gap < 1e-8
        psi = model.output_state([0.0, 0.0])
        overlaps = np.abs(built.projectors.vectors[: built.in_span].conj() @ psi)
        assert np.all(overlaps >= 0.5 / np.sqrt(3) - 1e-12)

    def test_single_parameter_pattern(self):
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        model = Interferometer(h, (0,), (1, 0))
        theta = [0.9]
        built = construct_nonorthogonal_optimal(model, theta, mix=0.5)
        assert built.in_span == 2
        psi = model.output_state(theta)
        bundle = model.derivative_bundle(theta)
        frame = omega_frame(bundle)
        omega_hat = frame.omegas[0] / np.linalg.norm(frame.omegas[0])
        expected = {tuple(np.round((psi + omega_hat) / np.sqrt(2), 9)),
                    tuple(np.round((psi - omega_hat) / np.sqrt(2), 9))}
        got = {tuple(np.round(built.projectors.vectors[k], 9))
               for k in range(2)}
        assert got == expected
        assert built.verification.gap < 1e-8

    def test_constructed_set_satisfies_overlap_conditions(self):
        model = builtin_model("mzi3")
        theta = [0.0, 0.0]
        built = construct_nonorthogonal_optimal(model, theta, mix=0.5)
        bundle = model.derivative_bundle(theta)
        cls = classify_projectors(bundle.psi, built.projectors)
        residuals = overlap_condition_residuals(bundle, built.projectors,
                                                cls.non_orthogonal)
        assert max(r.value for r in residuals) < 1e-10

    def test_probe_coefficients_nonzero_and_real(self):
        model = builtin_model("mzi4")
        built = construct_nonorthogonal_optimal(model, [1.4, 0.8], mix=0.5)
        probe_row = built.coefficients[-1]
        assert np.all(np.abs(probe_row) > 1e-3)
        assert np.isrealobj(built.coefficients)

    def test_passes_full_saturation_check(self):
        model = builtin_model("mzi4")
        theta = [0.6, 1.9]
        built = construct_nonorthogonal_optimal(model, theta, mix=0.5)
        report = check_saturation(model, theta, built.projectors)
        assert report.verdict == SATURATES

    def test_mix_validation(self):
        model = builtin_model("mzi3")
        with pytest.raises(ValueError):
            construct_nonorthogonal_optimal(model, [0.0, 0.0], mix=1.5)
        with pytest.raises(ValueError):
            construct_nonorthogonal_optimal(model, [0.0, 0.0], mix=0.0)


class TestConstructThenVerifyEverywhere:
    @pytest.mark.parametrize("name", ["mzi3", "mzi4"])
    def test_both_variants_at_random_phases(self, name):
        rng = np.random.default_rng(71)
        model = builtin_model(name)
        for _ in range(3):
            theta = rng.uniform(0, 2 * np.pi, size=2)
            orth = construct_orthogonal_optimal(model, theta)
            nono = construct_nonorthogonal_optimal(model, theta)
            assert orth.verification.gap < 1e-8
            assert nono.verification.gap < 1e-8
            pair = fisher_pair(model, theta, ProjectorSet.fock(model.basis))
            assert np.allclose(orth.verification.qfim, pair.qfim, atol=1e-9)
