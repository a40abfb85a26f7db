"""Tests for the saturation conditions and reports."""

import numpy as np
import pytest

from multiphase import (
    DOES_NOT_SATURATE,
    SATURATES,
    DerivativeBundle,
    Interferometer,
    ProjectorSet,
    SaturationReport,
    builtin_model,
    check_saturation,
    classify_projectors,
    construct_nonorthogonal_optimal,
    construct_orthogonal_optimal,
    orthogonal_condition_residuals,
    overlap_condition_residuals,
    overlap_record,
    weak_commutativity_residual,
)
from multiphase.tolerances import DERIVATIVE_FLOOR, INDEX_TIE

C_VALUE = 1.0 / (3.0 * np.sqrt(3.0))


def _record(model, theta, projectors):
    """The one-point overlap record that ``check_saturation`` reads."""
    return overlap_record(model, model.derivative_bundle(theta), projectors)


LOOP_CASES = ["mzi3_fock", "random_qr", "mzi4_dark", "mzi4_near_dark", "constructed"]


def _loop_case(name):
    """Model, point, complete set and projector indices for a per-projector loop."""
    if name == "mzi3_fock":
        model = builtin_model("mzi3")
        return model, [0.7, 0.3], ProjectorSet.fock(model.basis), [9, 0, 4]
    if name == "random_qr":
        rng = np.random.default_rng(7)
        model = builtin_model("mzi3")
        q, _ = np.linalg.qr(rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10)))
        return model, [0.4, 1.2], ProjectorSet(model.basis, q.T, complete=True), [7, 2, 5]
    model = builtin_model("mzi4")
    everything = list(range(model.basis.dim))[::-1]
    if name == "mzi4_dark":        # ten outcomes with |a| ~ 1e-11 take the limit phase
        return model, [0.7, 0.70001], ProjectorSet.fock(model.basis), everything
    if name == "mzi4_near_dark":   # |a| ~ 1e-9, recomputed by model.amplitudes
        return model, [0.7, 0.7001], ProjectorSet.fock(model.basis), everything
    theta = [0.6, 1.9]
    return model, theta, construct_nonorthogonal_optimal(model, theta).projectors, everything


def _assert_first_of_largest(residual, values: dict):
    """The residual is the largest candidate, reported at the first that ties with it."""
    largest = max(values.values())
    assert residual.value == pytest.approx(largest, abs=1e-15)
    tied = [key for key, v in values.items() if v >= largest - INDEX_TIE * max(1.0, largest)]
    assert residual.indices == tied[0]


class TestClassifyProjectors:
    def test_origin_partition(self):
        model = builtin_model("mzi3")
        cls = classify_projectors(_record(model, [0.0, 0.0], ProjectorSet.fock(model.basis)))
        probe_index = model.basis.index_of((1, 1, 1))
        assert cls.probe == [probe_index]
        assert len(cls.orthogonal) == 9
        assert probe_index not in cls.orthogonal

    def test_generic_point_all_non_orthogonal(self):
        model = builtin_model("mzi3")
        cls = classify_projectors(_record(model, [0.7, 0.3], ProjectorSet.fock(model.basis)))
        assert cls.orthogonal == []
        assert len(cls.non_orthogonal) == 10
        assert cls.probe == []

    def test_probe_projector_tagged(self):
        model = builtin_model("mzi3")
        theta = [0.9, 2.0]
        built = construct_orthogonal_optimal(model, theta)     # row 0 is the probe
        cls = classify_projectors(_record(model, theta, built.projectors))
        assert cls.probe == [0]


class TestWeakCommutativity:
    def test_phase_models_commute(self):
        rng = np.random.default_rng(59)
        for name in ("mzi3", "mzi4"):
            model = builtin_model(name)
            for _ in range(5):
                bundle = model.derivative_bundle(rng.uniform(0, 2 * np.pi, 2))
                assert weak_commutativity_residual(bundle) < 1e-10

    def test_single_parameter_is_zero_exactly(self):
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        model = Interferometer(h, (0,), (1, 0))
        assert weak_commutativity_residual(model.derivative_bundle([0.3])) == 0.0

    def test_synthetic_noncommuting_pair(self):
        # With d1 = i * d2 the residual equals the squared norm of d2.
        basis = builtin_model("mzi3").basis
        psi = np.zeros(10, dtype=complex)
        psi[0] = 1.0
        d2 = np.zeros(10, dtype=complex)
        d2[1], d2[2] = 0.6, 0.8j
        bundle = DerivativeBundle(theta=np.zeros(2), psi=psi,
                                  dpsi=(1j * d2, d2), basis=basis)
        assert weak_commutativity_residual(bundle) == pytest.approx(1.0, abs=1e-12)


class TestOrthogonalConditionResiduals:
    def test_reference_magnitudes_at_origin(self):
        model = builtin_model("mzi3")
        record = _record(model, [0.0, 0.0], ProjectorSet.fock(model.basis))
        cls = classify_projectors(record)
        residuals = {r.projector: r for r in
                     orthogonal_condition_residuals(record, cls.orthogonal)}
        for state in ((2, 1, 0), (1, 0, 2), (0, 2, 1), (2, 0, 1), (1, 2, 0), (0, 1, 2)):
            r = residuals[model.basis.index_of(state)]
            assert r.value == pytest.approx(C_VALUE, abs=1e-9)
            assert not r.indeterminate_first_order

    def test_sign_structure_of_underlying_bilinear(self):
        model = builtin_model("mzi3")
        bundle = model.derivative_bundle([0.0, 0.0])
        fock = ProjectorSet.fock(model.basis)

        def bilinear(state):
            y = fock.vectors[model.basis.index_of(state)]
            return (np.vdot(bundle.dpsi[0], y) * np.vdot(y, bundle.dpsi[1])).imag

        group_a = [bilinear(s) for s in ((2, 1, 0), (1, 0, 2), (0, 2, 1))]
        group_b = [bilinear(s) for s in ((2, 0, 1), (1, 2, 0), (0, 1, 2))]
        assert len({np.sign(v) for v in group_a}) == 1
        assert len({np.sign(v) for v in group_b}) == 1
        assert np.sign(group_a[0]) == -np.sign(group_b[0])
        for v in group_a + group_b:
            assert abs(v) == pytest.approx(C_VALUE, abs=1e-9)

    def test_triple_occupations_vanish_and_flag(self):
        model = builtin_model("mzi3")
        record = _record(model, [0.0, 0.0], ProjectorSet.fock(model.basis))
        cls = classify_projectors(record)
        residuals = {r.projector: r for r in
                     orthogonal_condition_residuals(record, cls.orthogonal)}
        for state in ((3, 0, 0), (0, 3, 0), (0, 0, 3)):
            r = residuals[model.basis.index_of(state)]
            assert r.indeterminate_first_order
            assert r.value < 1e-9

    def test_first_order_dark_reports_its_bound(self):
        model = builtin_model("mzi3")
        bundle = model.derivative_bundle([0.0, 0.0])
        fock = ProjectorSet.fock(model.basis)
        k = model.basis.index_of((3, 0, 0))
        (r,) = orthogonal_condition_residuals(overlap_record(model, bundle, fock), [k])
        damp = np.abs(fock.vectors[k].conj() @ bundle.dpsi.T)
        assert r.indeterminate_first_order
        assert r.value == np.max(damp) < DERIVATIVE_FLOOR
        # Both bounds lie below the floor, within INDEX_TIE of each other:
        # the first tied index is reported.
        tied = damp >= np.max(damp) - INDEX_TIE * max(1.0, np.max(damp))
        assert r.indices == (int(np.argmax(tied)),)

    @pytest.mark.parametrize("case", LOOP_CASES)
    def test_matches_a_per_projector_loop(self, case):
        model, theta, pset, indices = _loop_case(case)
        bundle = model.derivative_bundle(theta)
        got = orthogonal_condition_residuals(overlap_record(model, bundle, pset), indices)
        assert [r.projector for r in got] == sorted(indices)
        for r in got:
            damp = np.array([np.vdot(pset.vectors[r.projector], dp) for dp in bundle.dpsi])
            if r.indeterminate_first_order:
                assert np.max(np.abs(damp)) < DERIVATIVE_FLOOR
                values = {(l,): abs(damp[l]) for l in range(2)}
            else:
                values = {(l, m): abs((np.conj(damp[l]) * damp[m]).imag)
                          for l in range(2) for m in range(2) if l != m}
            _assert_first_of_largest(r, values)

    def test_four_mode_origin_all_vanish(self):
        model = builtin_model("mzi4")
        record = _record(model, [0.0, 0.0], ProjectorSet.fock(model.basis))
        residuals = orthogonal_condition_residuals(record, classify_projectors(record).orthogonal)
        assert max(r.value for r in residuals) < 1e-10

    def test_four_mode_origin_reports_no_diagonal_pair(self):
        # Every T1 value here is a rounding residue; the exactly-zero
        # diagonal pairs are never reported.
        model = builtin_model("mzi4")
        report = check_saturation(model, [0.0, 0.0], ProjectorSet.fock(model.basis))
        pairs = [r.indices for r in report.t1 if len(r.indices) == 2]
        assert pairs
        assert all(l != m for l, m in pairs)

    def test_diagonal_index_pairs_are_exactly_zero(self):
        model = builtin_model("mzi3")
        bundle = model.derivative_bundle([0.0, 0.0])
        fock = ProjectorSet.fock(model.basis)
        for k in range(10):
            damp = np.array([np.vdot(fock.vectors[k], dp) for dp in bundle.dpsi])
            for l in range(2):
                assert (np.conj(damp[l]) * damp[l]).imag == 0.0


class TestOverlapConditionResiduals:
    def test_probe_projector_residual_zero(self):
        model = builtin_model("mzi3")
        theta = [1.3, 0.4]
        built = construct_orthogonal_optimal(model, theta)     # row 0 is the probe
        residuals = overlap_condition_residuals(model, _record(model, theta, built.projectors),
                                                [0])
        assert residuals[0].value < 1e-14

    def test_four_mode_diagonal_line_satisfied(self):
        model = builtin_model("mzi4")
        record = _record(model, [0.9, 0.9], ProjectorSet.fock(model.basis))
        residuals = overlap_condition_residuals(model, record,
                                                classify_projectors(record).non_orthogonal)
        assert max(r.value for r in residuals) < 1e-8

    def test_three_mode_generic_point_violated(self):
        model = builtin_model("mzi3")
        record = _record(model, [0.7, 0.3], ProjectorSet.fock(model.basis))
        residuals = overlap_condition_residuals(model, record,
                                                classify_projectors(record).non_orthogonal)
        assert max(r.value for r in residuals) > 1e-3

    @pytest.mark.parametrize("case", LOOP_CASES)
    def test_matches_a_per_projector_loop(self, case):
        model, theta, pset, indices = _loop_case(case)
        bundle = model.derivative_bundle(theta)
        got = overlap_condition_residuals(model, overlap_record(model, bundle, pset), indices)
        assert [r.projector for r in got] == indices
        rates = np.array([np.vdot(dp, bundle.psi).imag for dp in bundle.dpsi])
        for r in got:
            amp = np.vdot(pset.vectors[r.projector], bundle.psi)
            damp = np.array([np.vdot(pset.vectors[r.projector], dp) for dp in bundle.dpsi])
            deviation = np.abs((np.conj(damp) * amp).imag - abs(amp) ** 2 * rates)
            _assert_first_of_largest(r, {(l,): v for l, v in enumerate(deviation)})

    def test_invariant_under_projector_phase(self):
        model = builtin_model("mzi4")
        bundle = model.derivative_bundle([0.9, 0.9])
        fock = ProjectorSet.fock(model.basis)
        vectors = fock.vectors.copy()
        vectors[5] *= np.exp(1j * 2.1)
        rephased = ProjectorSet(model.basis, vectors, complete=True)
        record = overlap_record(model, bundle, fock)
        indices = classify_projectors(record).non_orthogonal
        a = overlap_condition_residuals(model, record, indices)
        b = overlap_condition_residuals(model, overlap_record(model, bundle, rephased), indices)
        assert np.allclose([r.value for r in a], [r.value for r in b], atol=1e-12)


class TestCheckSaturation:
    def test_three_mode_origin_fails(self):
        model = builtin_model("mzi3")
        report = check_saturation(model, [0.0, 0.0], ProjectorSet.fock(model.basis))
        assert report.verdict == DOES_NOT_SATURATE
        assert report.gap == pytest.approx(8.0, abs=1e-6)

    @pytest.mark.parametrize("theta", [[0.0, 0.0], [0.0, np.pi], [np.pi, 0.0],
                                       [1.9, 1.9]])
    def test_four_mode_locus_saturates(self, theta):
        model = builtin_model("mzi4")
        report = check_saturation(model, theta, ProjectorSet.fock(model.basis))
        assert report.verdict == SATURATES
        assert report.gap < 1e-6

    def test_four_mode_generic_point_fails(self):
        model = builtin_model("mzi4")
        report = check_saturation(model, [0.3, 1.1], ProjectorSet.fock(model.basis))
        assert report.verdict == DOES_NOT_SATURATE
        assert report.gap > 1e-3

    def test_report_json_round_trip(self):
        model = builtin_model("mzi3")
        report = check_saturation(model, [0.0, 0.0], ProjectorSet.fock(model.basis))
        clone = SaturationReport.from_json(report.to_json())
        assert clone.verdict == report.verdict
        assert clone.gap == report.gap
        assert clone.weak_comm_residual == report.weak_comm_residual
        assert [r.value for r in clone.t1] == [r.value for r in report.t1]
        assert clone.classification.tags == report.classification.tags
        assert clone.to_json() == report.to_json()

    def test_report_json_round_trip_keeps_direction_dependence(self):
        # The three-mode origin is direction dependent: its singular limits
        # along the coordinate axes differ from the diagonal one.
        model = builtin_model("mzi3")
        report = check_saturation(model, [0.0, 0.0], ProjectorSet.fock(model.basis))
        assert report.direction_dependent
        clone = SaturationReport.from_json(report.to_json())
        assert clone.direction_dependent
        assert clone.to_json() == report.to_json()

    def test_reports_with_limit_converged_still_load(self):
        model = builtin_model("mzi3")
        report = check_saturation(model, [0.0, 0.0], ProjectorSet.fock(model.basis))
        data = report.to_dict()
        assert all("limit_converged" not in entry for entry in data["t1"])
        for entry in data["t1"]:
            entry["limit_converged"] = True
        clone = SaturationReport.from_dict(data)
        assert clone.to_json() == report.to_json()

    def test_single_parameter_always_saturates(self):
        # Any probe-orthogonal complete set containing the probe works in
        # the single-phase case.
        rng = np.random.default_rng(61)
        for _ in range(5):
            n = int(rng.integers(2, 4))
            z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            q, r = np.linalg.qr(z)
            w = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
            probe = tuple(int(x) for x in rng.multinomial(2, np.ones(n) / n))
            model = Interferometer(w, (int(rng.integers(0, n)),), probe)
            psi = model.output_state([0.7])
            others = _orthogonal_completion(psi)
            pset = ProjectorSet(model.basis,
                                np.vstack([psi[None, :], others]), complete=True)
            report = check_saturation(model, [0.7], pset)
            assert report.verdict == SATURATES


def _orthogonal_completion(psi):
    """Orthonormal basis of the complement of one unit vector."""
    dim = psi.shape[0]
    q, _ = np.linalg.qr(np.column_stack([psi, np.eye(dim)[:, : dim - 1]]),
                        mode="complete")
    return q[:, 1:].T
