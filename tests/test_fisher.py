"""Tests for the classical and quantum Fisher matrices."""

import numpy as np
import pytest

from multiphase import (
    SATURATES,
    BasisMismatchError,
    DimensionMismatchError,
    IncompleteSetError,
    Interferometer,
    ProjectorSet,
    StepTooLargeError,
    Tolerances,
    basis_state,
    builtin_model,
    check_saturation,
    enumerate_basis,
    fim,
    fim_finite_difference,
    fisher_pair,
    fisher_pairs,
    hermitian_eigenvalues,
    lift_unitary,
    probabilities,
    qfim,
    spectral_norm,
    tritter,
)
from oracles import richardson_fim

QFIM3 = (8.0 / 3.0) * np.array([[2.0, -1.0], [-1.0, 2.0]])
QFIM4 = 2.0 * np.array([[3.0, -1.0], [-1.0, 3.0]])


class TestQfim:
    @pytest.mark.parametrize("theta", [[0.0, 0.0], [0.7, 0.3], [5.1, 2.2]])
    def test_three_mode_value_and_theta_independence(self, theta):
        bundle = builtin_model("mzi3").derivative_bundle(theta)
        assert np.allclose(qfim(bundle), QFIM3, atol=1e-9)

    @pytest.mark.parametrize("theta", [[0.0, 0.0], [0.9, 0.9], [1.0, 4.0]])
    def test_four_mode_value(self, theta):
        bundle = builtin_model("mzi4").derivative_bundle(theta)
        assert np.allclose(qfim(bundle), QFIM4, atol=1e-9)

    def test_positive_semidefinite(self):
        bundle = builtin_model("mzi4").derivative_bundle([2.5, 0.4])
        assert np.min(hermitian_eigenvalues(qfim(bundle))) > -1e-9

    def test_independent_of_projector_choice(self):
        # The quantum matrix never references a measurement.
        model = builtin_model("mzi3")
        bundle = model.derivative_bundle([1.1, 0.2])
        assert qfim(bundle).shape == (2, 2)


class TestProbabilities:
    def test_projector_equal_to_state(self):
        model = builtin_model("mzi3")
        psi = model.output_state([0.4, 1.3])
        pset = ProjectorSet(model.basis, psi[None, :], complete=False)
        assert probabilities(psi, pset)[0] == pytest.approx(1.0, abs=1e-12)

    def test_identity_evolution_concentrates_on_probe(self):
        model = builtin_model("mzi3")
        probs = probabilities(model.output_state([0.0, 0.0]),
                              ProjectorSet.fock(model.basis))
        i = model.basis.index_of((1, 1, 1))
        assert probs[i] == pytest.approx(1.0, abs=1e-9)
        assert np.max(np.delete(probs, i)) < 1e-18

    def test_balanced_single_photon_is_uniform(self):
        basis = enumerate_basis(1, 3)
        state = lift_unitary(tritter(), basis) @ basis_state(basis, (1, 0, 0))
        probs = probabilities(state, ProjectorSet.fock(basis))
        assert np.allclose(probs, np.full(3, 1.0 / 3.0), atol=1e-12)

    def test_basis_mismatch(self):
        model = builtin_model("mzi3")
        other = ProjectorSet.fock(enumerate_basis(4, 4))
        with pytest.raises(BasisMismatchError):
            probabilities(model.output_state([0.0, 0.0]), other)


class TestProjectorSet:
    def test_fock_set_is_complete(self):
        pset = ProjectorSet.fock(enumerate_basis(3, 3))
        assert pset.complete and len(pset) == 10

    def test_incomplete_flagged_set_rejected(self):
        basis = enumerate_basis(1, 3)
        with pytest.raises(IncompleteSetError):
            ProjectorSet(basis, np.eye(3)[:2], complete=True)

    def test_unnormalized_rejected(self):
        basis = enumerate_basis(1, 3)
        with pytest.raises(ValueError):
            ProjectorSet(basis, 2.0 * np.eye(3), complete=False)

    def test_json_round_trip(self, tmp_path):
        model = builtin_model("mzi3")
        rng = np.random.default_rng(43)
        z = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
        q, _ = np.linalg.qr(z)
        pset = ProjectorSet(model.basis, q.T, complete=True)
        path = tmp_path / "projectors.json"
        pset.dump(path)
        loaded = ProjectorSet.load(path)
        assert loaded.complete
        assert loaded.basis == pset.basis
        assert np.allclose(loaded.vectors, pset.vectors, atol=1e-15)


class TestFim:
    def test_three_mode_origin(self):
        model = builtin_model("mzi3")
        matrix, diag = fim(model, [0.0, 0.0], ProjectorSet.fock(model.basis))
        assert np.allclose(matrix, (4.0 / 3.0) * np.ones((2, 2)), atol=1e-6)
        assert sorted(diag.shortcut_zero) == [
            model.basis.index_of(s) for s in ((3, 0, 0),)
        ] + [model.basis.index_of((0, 3, 0)), model.basis.index_of((0, 0, 3))]

    def test_requires_complete_set(self):
        model = builtin_model("mzi3")
        psi = model.output_state([0.3, 0.4])
        pset = ProjectorSet(model.basis, psi[None, :], complete=False)
        with pytest.raises(IncompleteSetError):
            fim(model, [0.3, 0.4], pset)

    def test_invariant_under_projector_permutation(self):
        model = builtin_model("mzi3")
        fock = ProjectorSet.fock(model.basis)
        shuffled = ProjectorSet(model.basis, fock.vectors[::-1], complete=True)
        theta = [0.8, 1.7]
        a, _ = fim(model, theta, fock)
        b, _ = fim(model, theta, shuffled)
        assert np.allclose(a, b, atol=1e-12)

    def test_invariant_under_projector_global_phase(self):
        model = builtin_model("mzi3")
        fock = ProjectorSet.fock(model.basis)
        vectors = fock.vectors.copy()
        vectors[3] *= np.exp(1j * 0.77)
        rephased = ProjectorSet(model.basis, vectors, complete=True)
        theta = [0.8, 1.7]
        a, _ = fim(model, theta, fock)
        b, _ = fim(model, theta, rephased)
        assert np.allclose(a, b, atol=1e-12)


class TestFimFiniteDifference:
    def test_matches_analytic_at_regular_point(self):
        model = builtin_model("mzi3")
        fock = ProjectorSet.fock(model.basis)
        theta = [0.7, 0.3]
        analytic, _ = fim(model, theta, fock)
        numeric = fim_finite_difference(model, theta, fock, delta=1e-4)
        assert np.max(np.abs(analytic - numeric)) < 1e-5

    def test_second_order_convergence(self):
        model = builtin_model("mzi3")
        fock = ProjectorSet.fock(model.basis)
        theta = [0.7, 0.3]
        analytic, _ = fim(model, theta, fock)

        def error(delta):
            numeric = fim_finite_difference(model, theta, fock, delta=delta)
            return np.max(np.abs(analytic - numeric))

        ratio = error(2e-4) / error(1e-4)
        assert 3.5 < ratio < 4.5

    def test_insensitive_measurement_gives_zero_matrix(self):
        # Projecting onto the splitter-evolved Fock states makes every
        # outcome probability phase independent.  A random splitter avoids
        # the exact transmission zeros of the balanced ones.
        rng = np.random.default_rng(53)
        z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        q, r = np.linalg.qr(z)
        w = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        model = Interferometer(w, (0, 1), (1, 1, 0))
        vectors = model.lifted_splitter_inverse.T
        pset = ProjectorSet(model.basis, vectors, complete=True)
        theta = [0.6, 1.4]
        numeric = fim_finite_difference(model, theta, pset, delta=1e-5)
        assert np.max(np.abs(numeric)) < 1e-8
        analytic, _ = fim(model, theta, pset)
        assert np.max(np.abs(analytic)) < 1e-12

    def test_step_too_large_rejected(self):
        model = builtin_model("mzi3")
        fock = ProjectorSet.fock(model.basis)
        with pytest.raises(StepTooLargeError):
            fim_finite_difference(model, [0.0, 0.0], fock, delta=1e-4)


class TestFisherPair:
    def test_gap_at_three_mode_origin(self):
        model = builtin_model("mzi3")
        pair = fisher_pair(model, [0.0, 0.0], ProjectorSet.fock(model.basis))
        assert pair.gap == pytest.approx(8.0, abs=1e-6)

    def test_three_mode_gap_floor_on_coarse_grid(self):
        model = builtin_model("mzi3")
        fock = ProjectorSet.fock(model.basis)
        grid = 2.0 * np.pi * np.arange(21) / 21
        lowest = min(fisher_pair(model, [a, b], fock).gap for a in grid for b in grid)
        assert lowest > 0.75

    @pytest.mark.parametrize("theta", [[0.9, 0.9], [0.0, np.pi], [np.pi, 0.0]])
    def test_four_mode_zero_gap_locus(self, theta):
        model = builtin_model("mzi4")
        pair = fisher_pair(model, theta, ProjectorSet.fock(model.basis))
        assert pair.gap < 1e-6

    def test_four_mode_generic_point_has_gap(self):
        model = builtin_model("mzi4")
        pair = fisher_pair(model, [0.3, 1.1], ProjectorSet.fock(model.basis))
        assert pair.gap > 1e-3

    @pytest.mark.parametrize("name, theta", [
        ("mzi3", [0.0, 0.0]), ("mzi4", [0.0, 0.0]), ("mzi4", [0.0, np.pi]),
        ("mzi4", [0.3, 1.1]), ("mzi4", [0.9, 0.9 + 1e-7]),
    ])
    def test_verdict_equals_check_saturation(self, name, theta):
        model = builtin_model(name)
        fock = ProjectorSet.fock(model.basis)
        pair = fisher_pair(model, theta, fock)
        report = check_saturation(model, theta, fock)
        assert pair.saturates == (report.verdict == SATURATES)
        assert pair.qfim is model.quantum_fisher

    @pytest.mark.parametrize("field", ["saturation_gap", "orthogonal_overlap"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
    def test_bad_tolerance_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            Tolerances(**{field: value})
        assert getattr(Tolerances(**{field: 0.0}), field) == 0.0

    def test_quantum_ordering_randomized(self):
        rng = np.random.default_rng(47)
        for name in ("mzi3", "mzi4"):
            model = builtin_model(name)
            fock = ProjectorSet.fock(model.basis)
            for _ in range(8):
                pair = fisher_pair(model, rng.uniform(0, 2 * np.pi, size=2), fock)
                smallest = np.min(hermitian_eigenvalues(pair.qfim - pair.fim))
                assert smallest > -1e-8
                assert pair.gap <= spectral_norm(pair.qfim) + 1e-8


class TestFisherPairs:
    @pytest.mark.parametrize("name", ["mzi3", "mzi4"])
    def test_batch_equals_per_point_with_singular_cells(self, name):
        # The 9x9 grid over one period holds the singular origin and, on
        # mzi4, the whole zero-gap diagonal.
        model = builtin_model(name)
        fock = ProjectorSet.fock(model.basis)
        axis = 2.0 * np.pi * np.arange(9) / 9
        thetas = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        batch = fisher_pairs(model, thetas, fock)
        assert any(pair.diagnostics.limit_evaluated for pair in batch)
        for theta, got in zip(thetas, batch):
            want = fisher_pair(model, theta, fock)
            assert np.array_equal(got.theta, want.theta)
            for a, b in ((got.fim, want.fim), (got.qfim, want.qfim), (got.gap, want.gap)):
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(want.qfim))
            assert (got.gap < 1e-6) == (want.gap < 1e-6)
            assert got.diagnostics == want.diagnostics

    def test_rejects_a_single_point(self):
        model = builtin_model("mzi3")
        with pytest.raises(DimensionMismatchError):
            fisher_pairs(model, [0.1, 0.2], ProjectorSet.fock(model.basis))

    def test_audit_at_a_locus_point_keeps_values(self):
        # On the saturating locus the limit does not depend on the direction.
        model = builtin_model("mzi4")
        fock = ProjectorSet.fock(model.basis)
        pair = fisher_pair(model, [0.9, 0.9], fock)
        assert pair.diagnostics.limit_evaluated
        assert pair.gap < 1e-6
        assert not pair.diagnostics.direction_dependent
        along_axis = fisher_pair(model, [0.9, 0.9], fock, Tolerances(direction=(1.0, 0.0)))
        assert np.max(np.abs(along_axis.fim - pair.fim)) <= 1e-9

    def test_audit_flags_direction_dependence_at_three_mode_origin(self):
        model = builtin_model("mzi3")
        fock = ProjectorSet.fock(model.basis)
        pair = fisher_pair(model, [0.0, 0.0], fock)
        assert pair.diagnostics.direction_dependent
        along_axis = fisher_pair(model, [0.0, 0.0], fock, Tolerances(direction=(1.0, 0.0)))
        assert along_axis.diagnostics.direction_dependent
        assert np.max(np.abs(along_axis.fim - pair.fim)) > 1e-3


class TestDarkOutcomes:
    """Closed-form dark terms against the three-step Richardson limit."""

    @pytest.mark.parametrize("name, theta", [("mzi4", [0.9, 0.9]), ("mzi3", [0.0, 0.0])])
    def test_default_direction_matches_richardson(self, name, theta):
        model = builtin_model(name)
        fock = ProjectorSet.fock(model.basis)
        pair = fisher_pair(model, theta, fock)
        assert pair.diagnostics.limit_evaluated
        reference = richardson_fim(model, theta, fock, np.ones(2))
        assert np.max(np.abs(pair.fim - reference)) <= 1e-9

    def test_fallback_direction_inside_the_locus(self):
        # On mzi4 the diagonal keeps the locus outcomes dark to every order,
        # so they resolve along the generic fallback direction.
        model = builtin_model("mzi4")
        pair = fisher_pair(model, [0.9, 0.9], ProjectorSet.fock(model.basis))
        assert pair.diagnostics.off_axis
        assert not pair.diagnostics.second_order

    def test_second_order_direction_matches_richardson(self):
        model = builtin_model("mzi4")
        fock = ProjectorSet.fock(model.basis)
        pair = fisher_pair(model, [0.0, 0.0], fock, Tolerances(direction=(1.0, -1.0)))
        assert pair.diagnostics.second_order
        reference = richardson_fim(model, [0.0, 0.0], fock, [1.0, -1.0])
        assert np.max(np.abs(pair.fim - reference)) <= 1e-9

    def test_terms_stay_bounded_next_to_a_dark_point(self):
        # Each term is bounded by 4 |da_l| |da_m|, however small P is.
        model = builtin_model("mzi3")
        fock = ProjectorSet.fock(model.basis)
        for offset in (1e-5, 1e-8, 1e-11):
            pair = fisher_pair(model, [offset, 2.0 * offset], fock)
            assert pair.diagnostics.singular_outcomes
            assert np.all(np.isfinite(pair.fim))
            assert np.min(hermitian_eigenvalues(pair.qfim - pair.fim)) > -1e-8
