"""Tests for the parametric interferometer models."""

import json

import numpy as np
import pytest

from multiphase import (
    DimensionMismatchError,
    Interferometer,
    ProjectorSet,
    builtin_model,
    check_saturation,
    fisher_pair,
    load_model,
    model_from_dict,
    probabilities,
    qfim,
    quarter,
    save_model,
    tritter,
)
from oracles import finite_difference_bundle


class TestSplitters:
    def test_tritter_entries(self):
        u = tritter()
        assert u[0, 0] == pytest.approx(1 / np.sqrt(3))
        assert u[0, 1] == pytest.approx(np.exp(2j * np.pi / 3) / np.sqrt(3))
        assert u[2, 1] == pytest.approx(np.exp(2j * np.pi / 3) / np.sqrt(3))

    def test_tritter_unitary(self):
        u = tritter()
        assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-12

    def test_quarter_entries(self):
        u = quarter()
        assert u[0, 0] == 0.5
        assert u[1, 0] == -0.5

    def test_quarter_orthogonal_exactly(self):
        u = quarter()
        assert np.array_equal(u.T @ u, np.eye(4))


class TestModelConstruction:
    def test_builtin_models(self):
        m3 = builtin_model("mzi3")
        assert (m3.modes, m3.d, m3.basis.dim) == (3, 2, 10)
        m4 = builtin_model("mzi4")
        assert (m4.modes, m4.d, m4.basis.dim) == (4, 2, 35)

    def test_unknown_builtin(self):
        with pytest.raises(ValueError):
            builtin_model("mzi7")

    def test_phase_mode_constraints(self):
        with pytest.raises(ValueError):
            Interferometer(tritter(), (0, 1, 2), (1, 1, 1))
        with pytest.raises(ValueError):
            Interferometer(tritter(), (0, 0), (1, 1, 1))
        with pytest.raises(IndexError):
            Interferometer(tritter(), (5,), (1, 1, 1))

    def test_lifted_splitter_is_unitary(self):
        model = builtin_model("mzi3")
        product = model.lifted_splitter @ model.lifted_splitter_inverse
        assert np.max(np.abs(product - np.eye(model.basis.dim))) < 1e-9


class TestOutputState:
    def test_zero_phases_return_probe(self):
        model = builtin_model("mzi3")
        psi = model.output_state([0.0, 0.0])
        expected = np.zeros(10, dtype=complex)
        expected[model.basis.index_of((1, 1, 1))] = 1.0
        assert np.allclose(psi, expected, atol=1e-10)

    def test_normalized_for_random_phases(self):
        model = builtin_model("mzi4")
        rng = np.random.default_rng(31)
        for _ in range(10):
            psi = model.output_state(rng.uniform(0, 2 * np.pi, size=2))
            assert abs(np.vdot(psi, psi).real - 1.0) < 1e-10

    def test_probabilities_sum_to_one(self):
        model = builtin_model("mzi3")
        fock = ProjectorSet.fock(model.basis)
        probs = probabilities(model.output_state([0.9, 2.2]), fock)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_wrong_arity_rejected(self):
        with pytest.raises(DimensionMismatchError):
            builtin_model("mzi3").output_state([0.1])

    @pytest.mark.parametrize("name", ["mzi3", "mzi4"])
    def test_stack_equals_per_row_states(self, name):
        model = builtin_model(name)
        thetas = np.random.default_rng(37).uniform(0.0, 2.0 * np.pi, size=(5, 2))
        stacked = model.output_state(thetas)
        assert stacked.shape == (5, model.basis.dim)
        for theta, state in zip(thetas, stacked):
            assert np.max(np.abs(state - model.output_state(theta))) <= 1e-15

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_phases_rejected(self, bad):
        # A NaN gap compares false, so it would pass every later check.
        model = builtin_model("mzi4")
        fock = ProjectorSet.fock(model.basis)
        calls = (lambda: model.output_state([bad, 0.0]),
                 lambda: model.derivative_bundle([[0.1, 0.2], [0.3, bad]]),
                 lambda: fisher_pair(model, [bad, 0.0], fock),
                 lambda: check_saturation(model, [0.0, bad], fock))
        for call in calls:
            with pytest.raises(ValueError, match="finite"):
                call()


class TestModelConstants:
    @pytest.mark.parametrize("name, expected", [
        ("mzi3", (8.0 / 3.0) * np.array([[2.0, -1.0], [-1.0, 2.0]])),
        ("mzi4", 2.0 * np.array([[3.0, -1.0], [-1.0, 3.0]])),
    ])
    def test_quantum_fisher_is_the_reference_matrix(self, name, expected):
        model = builtin_model(name)
        assert np.max(np.abs(model.quantum_fisher - expected)) < 1e-12
        # One photon per mode enters a balanced splitter: <n_l> = 1.
        assert np.allclose(model.mean_occupation, 1.0, atol=1e-12)

    def test_constants_are_read_only(self):
        model = builtin_model("mzi3")
        for array in (model.quantum_fisher, model.mean_occupation):
            with pytest.raises(ValueError):
                array[0] = 0.0


class TestDerivativeBundle:
    def test_single_phase_variance_formula(self):
        # Balanced two-mode splitter puts the photon in an equal
        # superposition, so the phase generator has variance 1/4 and the
        # quantum information is 1.
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        model = Interferometer(h, (0,), (1, 0))
        bundle = model.derivative_bundle([0.4])
        assert qfim(bundle) == pytest.approx(np.array([[1.0]]), abs=1e-10)

    def test_matches_finite_differences(self):
        model = builtin_model("mzi3")
        theta = np.array([0.7, 0.3])
        exact = model.derivative_bundle(theta)
        approx = finite_difference_bundle(model, theta, delta=1e-5)
        for a, b in zip(exact.dpsi, approx.dpsi):
            assert np.max(np.abs(a - b)) < 1e-8

    def test_finite_difference_convergence_order(self):
        model = builtin_model("mzi4")
        theta = np.array([1.2, 0.5])
        exact = model.derivative_bundle(theta)

        def error(delta):
            approx = finite_difference_bundle(model, theta, delta=delta)
            return max(np.max(np.abs(a - b)) for a, b in zip(exact.dpsi, approx.dpsi))

        ratio = error(2e-4) / error(1e-4)
        assert 3.5 < ratio < 4.5

    def test_second_derivatives_match_finite_differences(self):
        model = builtin_model("mzi4")
        theta, delta = np.array([1.2, 0.5]), 1e-5
        exact = model.second_derivatives(theta)
        assert exact.shape == (2, 2, model.basis.dim)
        for l in range(2):
            step = delta * np.eye(2)[l]
            approx = (model.derivative_bundle(theta + step).dpsi
                      - model.derivative_bundle(theta - step).dpsi) / (2 * delta)
            assert np.max(np.abs(exact[:, l] - approx)) < 1e-8
        batch = model.second_derivatives(np.stack([theta, theta + 0.3]))
        assert np.allclose(batch[0], exact, atol=1e-14)

    def test_amplitudes_match_the_output_state(self):
        model = builtin_model("mzi3")
        rng = np.random.default_rng(3)
        thetas = rng.uniform(0, 2 * np.pi, size=(4, 2))
        rows = rng.normal(size=(4, 10)) + 1j * rng.normal(size=(4, 10))
        expected = [np.vdot(row, model.output_state(t)) for t, row in zip(thetas, rows)]
        assert np.allclose(model.amplitudes(thetas, rows), expected, atol=1e-13)
        single = [model.amplitudes(thetas[i:i + 1], rows[i:i + 1])[0] for i in range(4)]
        assert np.array_equal(model.amplitudes(thetas, rows), single)

    def test_derivative_overlap_purely_imaginary(self):
        rng = np.random.default_rng(37)
        model = builtin_model("mzi3")
        for _ in range(10):
            bundle = model.derivative_bundle(rng.uniform(0, 2 * np.pi, size=2))
            for dp in bundle.dpsi:
                assert abs(np.vdot(bundle.psi, dp).real) < 1e-10

    def test_commuting_generators_have_real_cross_overlaps(self):
        model = builtin_model("mzi3")
        rng = np.random.default_rng(41)
        for _ in range(10):
            bundle = model.derivative_bundle(rng.uniform(0, 2 * np.pi, size=2))
            assert abs(np.vdot(bundle.dpsi[0], bundle.dpsi[1]).imag) < 1e-10

    def test_global_rephasing_leaves_fisher_quantities_invariant(self):
        # A splitter global phase cancels between the two arms, so the
        # model is identical; a state global phase drops out of both
        # matrices.
        theta = [0.8, 2.4]
        base = builtin_model("mzi3")
        rephased = Interferometer(np.exp(1j * 0.9) * tritter(), (0, 1), (1, 1, 1))
        fock = ProjectorSet.fock(base.basis)
        p1 = fisher_pair(base, theta, fock)
        p2 = fisher_pair(rephased, theta, fock)
        assert np.allclose(p1.fim, p2.fim, atol=1e-10)
        assert np.allclose(p1.qfim, p2.qfim, atol=1e-10)

        bundle = base.derivative_bundle(theta)
        phase = np.exp(1j * 1.23)
        shifted = type(bundle)(
            theta=bundle.theta,
            psi=phase * bundle.psi,
            dpsi=tuple(phase * dp for dp in bundle.dpsi),
            basis=bundle.basis,
        )
        assert np.allclose(qfim(bundle), qfim(shifted), atol=1e-12)


class TestModelSerialization:
    def test_round_trip_builtin_splitter_name(self, tmp_path):
        spec = {"modes": 3, "splitter": "tritter", "phase_modes": [0, 1],
                "probe": [1, 1, 1]}
        model = model_from_dict(spec)
        path = tmp_path / "model.json"
        save_model(model, path)
        reloaded = load_model(path)
        assert reloaded.modes == model.modes
        assert reloaded.phase_modes == model.phase_modes
        assert reloaded.probe == model.probe
        assert np.allclose(reloaded.splitter, model.splitter)

    def test_round_trip_explicit_matrix(self, tmp_path):
        model = builtin_model("mzi4")
        path = tmp_path / "model.json"
        save_model(model, path)
        data = json.loads(path.read_text())
        assert data["modes"] == 4
        reloaded = load_model(path)
        theta = [0.3, 0.7]
        assert np.allclose(reloaded.output_state(theta), model.output_state(theta))

    def test_rejects_unknown_splitter_name(self):
        with pytest.raises(ValueError):
            model_from_dict({"splitter": "octo", "phase_modes": [0], "probe": [1, 1]})

    def test_rejects_inconsistent_mode_count(self):
        with pytest.raises(ValueError):
            model_from_dict({"modes": 4, "splitter": "tritter",
                             "phase_modes": [0, 1], "probe": [1, 1, 1]})

    def test_rejects_missing_field(self):
        with pytest.raises(ValueError):
            model_from_dict({"splitter": "tritter", "phase_modes": [0, 1]})
