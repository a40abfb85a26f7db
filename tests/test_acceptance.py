"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its tolerance.

The quantum-ordering criterion (C12) is evaluated over every Fisher pair
produced by the earlier criteria, so it runs last in this module.
"""

import numpy as np

from multiphase import (
    Interferometer,
    ProjectorSet,
    SATURATES,
    builtin_model,
    check_saturation,
    construct_nonorthogonal_optimal,
    construct_orthogonal_optimal,
    fim,
    fim_finite_difference,
    fisher_pair,
    hermitian_eigenvalues,
    orthogonal_condition_residuals,
    classify_projectors,
    overlap_record,
    permanent,
    qfim,
    spectral_norm,
)

QFIM3 = (8.0 / 3.0) * np.array([[2.0, -1.0], [-1.0, 2.0]])
QFIM4 = 2.0 * np.array([[3.0, -1.0], [-1.0, 3.0]])
C_VALUE = 1.0 / (3.0 * np.sqrt(3.0))

_COLLECTED_PAIRS = []


def _pair(model, theta, projectors):
    pair = fisher_pair(model, theta, projectors)
    _COLLECTED_PAIRS.append(pair)
    return pair


def _report(criterion, description, passed, detail):
    line = f"{criterion} {'PASS' if passed else 'FAIL'}  {description}  [{detail}]"
    print(line)
    assert passed, line


def _random_unitary(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _random_complete_set(basis, rng):
    z = rng.normal(size=(basis.dim, basis.dim)) + 1j * rng.normal(size=(basis.dim, basis.dim))
    q, _ = np.linalg.qr(z)
    return ProjectorSet(basis, q.T, complete=True)


def test_c01_three_mode_quantum_matrix():
    rng = np.random.default_rng(101)
    model = builtin_model("mzi3")
    fock = ProjectorSet.fock(model.basis)
    thetas = [np.zeros(2)] + [rng.uniform(0, 2 * np.pi, 2) for _ in range(6)]
    worst = max(
        float(np.max(np.abs(_pair(model, theta, fock).qfim - QFIM3)))
        for theta in thetas
    )
    _report("C01", "three-mode quantum matrix equals (8/3)[[2,-1],[-1,2]] at any theta",
            worst <= 1e-9, f"max dev {worst:.2e}, tol 1e-9")


def test_c02_four_mode_quantum_matrix():
    rng = np.random.default_rng(102)
    model = builtin_model("mzi4")
    fock = ProjectorSet.fock(model.basis)
    thetas = [np.zeros(2)] + [rng.uniform(0, 2 * np.pi, 2) for _ in range(6)]
    worst = max(
        float(np.max(np.abs(_pair(model, theta, fock).qfim - QFIM4)))
        for theta in thetas
    )
    _report("C02", "four-mode quantum matrix equals 2[[3,-1],[-1,3]] at any theta",
            worst <= 1e-9, f"max dev {worst:.2e}, tol 1e-9")


def test_c03_three_mode_classical_matrix_at_singular_origin():
    model = builtin_model("mzi3")
    matrix, _ = fim(model, [0.0, 0.0], ProjectorSet.fock(model.basis))
    worst = float(np.max(np.abs(matrix - (4.0 / 3.0) * np.ones((2, 2)))))
    _report("C03", "three-mode classical matrix at theta=(0,0) equals (4/3)[[1,1],[1,1]]",
            worst <= 1e-6, f"max dev {worst:.2e}, tol 1e-6")


def test_c04_spectral_norm_pin():
    model = builtin_model("mzi3")
    value = spectral_norm(qfim(model.derivative_bundle([0.4, 1.9])))
    _report("C04", "three-mode quantum matrix has spectral norm 8",
            abs(value - 8.0) <= 1e-9, f"got {value:.12f}, tol 1e-9")


def test_c05_first_order_condition_table():
    model = builtin_model("mzi3")
    bundle = model.derivative_bundle([0.0, 0.0])
    fock = ProjectorSet.fock(model.basis)
    record = overlap_record(model, bundle, fock)
    residuals = {r.projector: r.value for r in
                 orthogonal_condition_residuals(record, classify_projectors(record).orthogonal)}

    def bilinear(state):
        y = fock.vectors[model.basis.index_of(state)]
        return (np.vdot(bundle.dpsi[0], y) * np.vdot(y, bundle.dpsi[1])).imag

    group_a = ((2, 1, 0), (1, 0, 2), (0, 2, 1))
    group_b = ((2, 0, 1), (1, 2, 0), (0, 1, 2))
    zero_states = ((1, 1, 1), (3, 0, 0), (0, 3, 0), (0, 0, 3))

    sign = np.sign(bilinear(group_a[0]))
    worst = 0.0
    for state in group_a:
        worst = max(worst, abs(bilinear(state) - sign * C_VALUE),
                    abs(residuals[model.basis.index_of(state)] - C_VALUE))
    for state in group_b:
        worst = max(worst, abs(bilinear(state) + sign * C_VALUE),
                    abs(residuals[model.basis.index_of(state)] - C_VALUE))
    for state in zero_states:
        worst = max(worst, abs(bilinear(state)))
        index = model.basis.index_of(state)
        if index in residuals:
            worst = max(worst, residuals[index])
    _report("C05", "first-order condition table: +-1/(3 sqrt 3) with opposite signs, zeros elsewhere",
            worst <= 1e-9, f"max dev {worst:.2e}, tol 1e-9")


def test_c06_three_mode_gap_floor_on_grid():
    model = builtin_model("mzi3")
    fock = ProjectorSet.fock(model.basis)
    grid = 2.0 * np.pi * np.arange(41) / 41
    lowest = min(_pair(model, [a, b], fock).gap for a in grid for b in grid)
    _report("C06", "three-mode gap exceeds 3/4 everywhere on a 41x41 grid",
            lowest > 0.75 + 1e-3, f"min gap {lowest:.6f}, margin 1e-3")


def test_c07_four_mode_saturation_locus():
    model = builtin_model("mzi4")
    fock = ProjectorSet.fock(model.basis)
    on_locus = [np.array([t, t]) for t in 2.0 * np.pi * np.arange(11) / 11]
    on_locus += [np.array([0.0, np.pi]), np.array([np.pi, 0.0])]
    worst_on = max(_pair(model, theta, fock).gap for theta in on_locus)

    rng = np.random.default_rng(107)
    off_gaps = []
    while len(off_gaps) < 20:
        theta = rng.uniform(0, 2 * np.pi, size=2)
        if abs(theta[0] - theta[1]) < 0.3:
            continue
        if min(np.linalg.norm(theta - np.array([0.0, np.pi])),
               np.linalg.norm(theta - np.array([np.pi, 0.0]))) < 0.3:
            continue
        off_gaps.append(_pair(model, theta, fock).gap)
    best_off = min(off_gaps)
    _report("C07", "four-mode gap < 1e-6 on the locus and > 1e-3 off it",
            worst_on < 1e-6 and best_off > 1e-3,
            f"on-locus max {worst_on:.2e}, off-locus min {best_off:.2e}")


def _model_pool():
    rng = np.random.default_rng(108)
    return [
        builtin_model("mzi3"),
        builtin_model("mzi4"),
        Interferometer(_random_unitary(3, rng), (0, 1), (1, 1, 0)),
        Interferometer(_random_unitary(3, rng), (0, 1), (1, 1, 1)),
        Interferometer(_random_unitary(4, rng), (0, 2), (1, 0, 1, 0)),
        Interferometer(_random_unitary(2, rng), (0,), (1, 1)),
        Interferometer(_random_unitary(3, rng), (1, 2), (1, 0, 0)),
        Interferometer(_random_unitary(4, rng), (0, 1, 2), (1, 1, 1, 0)),
    ]


def test_c08_biconditional_property_suite():
    rng = np.random.default_rng(109)
    pool = _model_pool()
    counterexamples = 0
    n_saturating = n_failing = 0
    for i in range(200):
        model = pool[i % len(pool)]
        theta = rng.uniform(0, 2 * np.pi, size=model.d)
        kind = i % 4
        if kind == 0:
            pset = ProjectorSet.fock(model.basis)
        elif kind == 1:
            pset = _random_complete_set(model.basis, rng)
        elif kind == 2:
            pset = construct_orthogonal_optimal(model, theta).projectors
        else:
            model = pool[1]
            theta = np.array([theta[0], theta[0]])
            pset = ProjectorSet.fock(model.basis)
        report = check_saturation(model, theta, pset)
        saturates = report.verdict == SATURATES
        if saturates != (report.gap < 1e-6):
            counterexamples += 1
        n_saturating += saturates
        n_failing += not saturates
    ok = counterexamples == 0 and n_saturating >= 40 and n_failing >= 40
    _report("C08", "verdict <=> gap < 1e-6 over 200 randomized triples",
            ok, f"{counterexamples} counterexamples, "
                f"{n_saturating} saturating / {n_failing} not")


def test_c09_construction_guarantees():
    rng = np.random.default_rng(110)
    worst = 0.0
    for name in ("mzi3", "mzi4"):
        model = builtin_model(name)
        for _ in range(10):
            theta = rng.uniform(0, 2 * np.pi, size=2)
            orth = construct_orthogonal_optimal(model, theta)
            nono = construct_nonorthogonal_optimal(model, theta, mix=0.5)
            assert orth.projectors.complete and nono.projectors.complete
            _COLLECTED_PAIRS.extend([orth.verification, nono.verification])
            worst = max(worst, orth.verification.gap, nono.verification.gap)
    _report("C09", "both constructions give complete sets with gap < 1e-8 "
                   "at 10 random phases per instrument",
            worst < 1e-8, f"max gap {worst:.2e}")


def test_c10_single_phase_always_saturable():
    rng = np.random.default_rng(111)
    worst = 0.0
    for _ in range(10):
        modes = int(rng.integers(2, 5))
        photons = int(rng.integers(1, 3))
        probe = np.zeros(modes, dtype=int)
        for _ in range(photons):
            probe[rng.integers(0, modes)] += 1
        model = Interferometer(_random_unitary(modes, rng),
                               (int(rng.integers(0, modes)),), tuple(probe))
        theta = rng.uniform(0, 2 * np.pi, size=1)
        psi = model.output_state(theta)
        dim = model.basis.dim
        q, _ = np.linalg.qr(np.column_stack([psi, np.eye(dim)[:, : dim - 1]]),
                            mode="complete")
        pset = ProjectorSet(model.basis, np.vstack([psi[None, :], q[:, 1:].T]),
                            complete=True)
        pair = _pair(model, theta, pset)
        worst = max(worst, float(np.max(np.abs(pair.fim - pair.qfim))))
    _report("C10", "probe-orthogonal complete sets saturate every single-phase model",
            worst <= 1e-8, f"max |F - F_Q| {worst:.2e}, tol 1e-8")


def test_c11_finite_difference_oracle_agreement():
    rng = np.random.default_rng(112)
    pool = [builtin_model("mzi3"), builtin_model("mzi4")]
    worst = 0.0
    ratios = []
    checked = 0
    while checked < 20:
        model = pool[checked % 2]
        theta = rng.uniform(0.2, 2 * np.pi - 0.2, size=2)
        fock = ProjectorSet.fock(model.basis)
        try:
            numeric = fim_finite_difference(model, theta, fock, delta=1e-4)
        except Exception:
            continue  # singular or near-singular point; not a regular point
        analytic, _ = fim(model, theta, fock)
        worst = max(worst, float(np.max(np.abs(analytic - numeric))))
        if checked % 5 == 0:
            coarse = fim_finite_difference(model, theta, fock, delta=2e-4)
            err_coarse = np.max(np.abs(analytic - coarse))
            err_fine = np.max(np.abs(analytic - numeric))
            ratios.append(err_coarse / err_fine)
        checked += 1
    ratio_ok = all(3.5 <= r <= 4.5 for r in ratios)
    _report("C11", "analytic matrix matches the finite-difference oracle with "
                   "second-order convergence",
            worst < 1e-5 and ratio_ok,
            f"max dev {worst:.2e} (tol 1e-5), ratios {[round(r, 2) for r in ratios]}")


def test_c12_matrix_ordering_everywhere():
    assert len(_COLLECTED_PAIRS) > 100, "earlier criteria must run first"
    smallest = min(
        float(np.min(hermitian_eigenvalues(pair.qfim - pair.fim)))
        for pair in _COLLECTED_PAIRS
    )
    _report("C12", f"eigenvalues of F_Q - F stay above -1e-8 across "
                   f"{len(_COLLECTED_PAIRS)} collected computations",
            smallest >= -1e-8, f"min eigenvalue {smallest:.2e}")


def test_c13_permanent_oracle():
    from tests.test_linalg import permanent_by_enumeration

    rng = np.random.default_rng(113)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 7))
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        expected = permanent_by_enumeration(a)
        deviation = abs(permanent(a) - expected) / max(1.0, abs(expected))
        worst = max(worst, deviation)
    _report("C13", "Ryser permanent equals the permutation-sum oracle on 500 "
                   "random matrices up to 6x6",
            worst <= 1e-11, f"max relative dev {worst:.2e}, tol 1e-11")
