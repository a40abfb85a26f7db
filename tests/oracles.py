"""Independent oracles for derivative states and the classical Fisher matrix.

``finite_difference_bundle`` differences the output state.
``richardson_fim`` extrapolates each below-floor outcome's term along an
approach direction from three displaced evaluations.  ``mp_fim`` sums
``dP_l dP_m / P`` for photon counting at 80 significant digits, with
amplitudes from permanents and derivatives from finite differences.
Neither uses the closed-form phases of ``multiphase.fisher``.
"""

import itertools
import math

import numpy as np

from multiphase import DerivativeBundle
from multiphase.fisher import limit_directions

RICHARDSON_STEPS = (1e-3, 5e-4, 2.5e-4)


def finite_difference_bundle(model, theta, delta=1e-5):
    """Derivative bundle with central-difference derivative states."""
    theta = np.asarray(theta, dtype=float)
    psi = model.output_state(theta)
    dpsi = []
    for l in range(model.d):
        step = np.zeros(model.d)
        step[l] = delta
        dpsi.append((model.output_state(theta + step) - model.output_state(theta - step))
                    / (2 * delta))
    return DerivativeBundle(theta=theta, psi=psi, dpsi=dpsi, basis=model.basis)


def richardson_fim(model, theta, projectors, direction, probability_floor=1e-12,
                   derivative_floor=1e-12, step_floor=1e-18):
    """Classical matrix with two-level Richardson limits at singular outcomes.

    Regular outcomes are summed directly.  A singular outcome whose
    first-order overlaps all vanish contributes zero; every other one is
    evaluated at ``theta + h u`` for the halving steps ``RICHARDSON_STEPS``
    along the first of ``limit_directions`` where every step keeps its
    probability above ``step_floor``, and the three values are
    extrapolated to ``h = 0``.
    """
    theta = np.asarray(theta, dtype=float)
    rows = projectors.vectors.conj().T
    bundle = model.derivative_bundle(theta)
    a, da = bundle.psi @ rows, bundle.dpsi @ rows
    p = np.abs(a) ** 2
    scores = 2.0 * (np.conj(da) * a).real
    regular = p >= probability_floor
    matrix = (scores[:, regular] / p[regular]) @ scores[:, regular].T
    open_ = np.flatnonzero(~regular & (np.max(np.abs(da), axis=0) >= derivative_floor))
    unit = np.asarray(direction, dtype=float) / np.linalg.norm(direction)
    for u in limit_directions(model.d, unit):
        if not open_.size:
            break
        steps = model.derivative_bundle(theta + np.outer(RICHARDSON_STEPS, u))
        a, da = steps.psi @ rows[:, open_], steps.dpsi @ rows[:, open_]
        p = np.abs(a) ** 2
        live = np.all(p >= step_floor, axis=0)
        dP = 2.0 * (np.conj(da[..., live]) * a[:, None, live]).real
        g1, g2, g3 = dP[:, :, None, :] * dP[:, None, :, :] / p[:, None, None, live]
        matrix += np.sum((4.0 * (2.0 * g3 - g2) - (2.0 * g2 - g1)) / 3.0, axis=-1)
        open_ = open_[~live]
    return matrix


def mp_fim(model, theta, offset=None, dps=80, step="1e-45"):
    """Photon-counting classical matrix at ``theta + offset`` to ``dps`` digits.

    ``theta`` holds doubles, taken exactly; ``offset`` holds decimal
    strings, so a dark point can be left by far less than a double's
    spacing, and the result then differs from the limit along the offset
    by O(|offset|).  The splitter is taken as stored, so an offset must
    exceed its unitarity error: ``quarter`` is exact in doubles.  The
    derivatives are forward differences with a step far below any offset.
    Outcomes with probability exactly zero are skipped.
    """
    import mpmath

    with mpmath.workdps(dps):
        point = [mpmath.mpf(float(t)) for t in theta]
        if offset is not None:
            point = [t + mpmath.mpf(o) for t, o in zip(point, offset)]
        h = mpmath.mpf(step)
        centre = _mp_probabilities(model, point)
        derivatives = []
        for l in range(model.d):
            moved = _mp_probabilities(model, [t + h * (j == l) for j, t in enumerate(point)])
            derivatives.append([(x - y) / h for x, y in zip(moved, centre)])
        matrix = np.zeros((model.d, model.d))
        for k, p in enumerate(centre):
            if p == 0:
                continue
            for l in range(model.d):
                for m in range(model.d):
                    matrix[l, m] += float(derivatives[l][k] * derivatives[m][k] / p)
    return matrix


def _mp_probabilities(model, point):
    """|<T|lift(W^H P(theta) W)|probe>|^2 for every Fock state T."""
    import mpmath

    w = mpmath.matrix([[mpmath.mpc(z.real, z.imag) for z in row] for row in model.splitter])
    phases = [mpmath.mpf(0)] * model.modes
    for mode, t in zip(model.phase_modes, point):
        phases[mode] = t
    u = w.H * mpmath.diag([mpmath.expj(t) for t in phases]) * w
    u = [[u[i, j] for j in range(model.modes)] for i in range(model.modes)]
    columns = [j for j, n in enumerate(model.probe) for _ in range(n)]
    probe_norm = math.prod(math.factorial(n) for n in model.probe)
    probabilities = []
    for state in model.basis.states:
        rows = [u[i] for i, n in enumerate(state) for _ in range(n)]
        permanent = mpmath.mpc(0)
        for sigma in itertools.permutations(columns):
            term = mpmath.mpc(1)
            for row, j in zip(rows, sigma):
                term *= row[j]
            permanent += term
        norm = probe_norm * math.prod(math.factorial(n) for n in state)
        probabilities.append(abs(permanent) ** 2 / norm)
    return probabilities
