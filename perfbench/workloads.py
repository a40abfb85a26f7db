"""The benchmark's three closed-loop workloads and their correctness gates.

Each workload draws its op inputs from a seeded generator and passes only
those inputs to the program.  ``build_source`` is the set-up a user pays
on every invocation (import plus model builds); it is run as written both
in the benchmark process and, for ``setup_s``, in fresh interpreters.
``check`` runs outside the timed region and raises ``GateError`` when an
output is wrong.
"""

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi

# With the default limit policy, the Richardson limit of photon counting on
# the mzi4 locus theta = (t, t) does not converge when t lies 146 to 738 urad
# below pi/2 or 132 to 138 urad below pi (mod pi), and the library raises
# LimitNonConvergentError (README, "Known failures").  Draws keep every locus
# point out of these bands, given as (end mod pi, width below the end), so
# that no op is refused.
NON_CONVERGENT_BANDS = ((0.5 * math.pi, 1e-3), (math.pi, 3e-4))


def near_non_convergent(t: float) -> bool:
    """Whether the locus point (t, t) lies in a non-convergent band."""
    return any((end - t) % math.pi <= width for end, width in NON_CONVERGENT_BANDS)


class GateError(Exception):
    """An op's output failed its correctness gate."""


class Workload:
    name = ""
    build_source = "import multiphase"
    trace_ops = 1

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.workdir = Path(workdir)
        self.mp = None

    def setup(self):
        namespace = {}
        exec(self.build_source, namespace)
        self.mp = namespace["multiphase"]
        return namespace

    def draw(self):
        raise NotImplementedError

    def op(self, inputs):
        raise NotImplementedError

    def check(self, inputs, output):
        raise NotImplementedError


class ScanMzi4(Workload):
    """``multiphase scan`` on mzi4, 7x7 cells over a seeded full period.

    With an odd grid over one period on both axes, exactly the 7 diagonal
    cells lie on the singular, saturating locus theta1 = theta2, whatever
    the offset, so every op has the same mix of regular and limit cells.
    Offsets that put a diagonal cell in a non-convergent band are redrawn.
    """

    name = "scan-mzi4"
    build_source = "import multiphase.cli\nmultiphase.builtin_model('mzi4')"
    trace_ops = 20
    cells = 7                              # 50 ms ops: enough per run for a tail
    qfim = np.array([6.0, -2.0, 6.0])     # 2[[3,-1],[-1,3]], upper triangle
    min_fd_cells = 18                      # of 42 off-diagonal cells; 22 to 26 apply

    def setup(self):
        super().setup()
        self.model = self.mp.builtin_model("mzi4")
        self.fock = self.mp.ProjectorSet.fock(self.model.basis)
        self.out = self.workdir / "scan.csv"

    def diagonal(self, offset):
        """The diagonal cells' phases, computed as ``multiphase scan`` does."""
        return offset + TWO_PI * np.arange(self.cells) / self.cells

    def draw(self):
        while True:
            offset = float(self.rng.uniform(0.0, TWO_PI))
            if not any(near_non_convergent(t) for t in self.diagonal(offset)):
                return offset

    def op(self, offset):
        span = f"{offset!r},{offset + TWO_PI!r}"
        argv = ["scan", "--model", "mzi4", "--resolution", f"{self.cells},{self.cells}",
                "--range1", span, "--range2", span, "--out", str(self.out)]
        captured, errors = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(errors):
            code = self.mp.cli.main(argv)
        message = errors.getvalue().strip()
        if code == 3 and message.startswith("numerical non-convergence"):
            raise self.mp.LimitNonConvergentError(message)
        if code != 0:
            raise RuntimeError(f"scan exited with code {code}: {message}")
        return captured.getvalue()

    def check(self, offset, output):
        n = self.cells
        summary = json.loads(output)
        with open(self.out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != n * n:
            raise GateError(f"{len(rows)} rows, expected {n * n}")
        diagonal = {(k, k) for k in range(n)}
        saturating = {(c["i"], c["j"]) for c in summary["saturating_cells"]}
        if saturating != diagonal:
            raise GateError(f"saturating cells {sorted(saturating ^ diagonal)} differ "
                            "from the diagonal")
        fq = np.array([[float(r[k]) for k in ("fq11", "fq12", "fq22")] for r in rows])
        worst = float(np.max(np.abs(fq - self.qfim)))
        if worst > 1e-9:
            raise GateError(f"F_Q deviates from 2[[3,-1],[-1,3]] by {worst:.3e}")
        compared = 0
        for index, row in enumerate(rows):
            i, j = divmod(index, n)
            if (row["verdict"] == "Saturates") != (i == j):
                raise GateError(f"cell ({i}, {j}) has verdict {row['verdict']}")
            if i == j:
                continue
            theta = [float(row["theta1"]), float(row["theta2"])]
            try:
                oracle = self.mp.fim_finite_difference(self.model, theta, self.fock)
            except self.mp.StepTooLargeError:
                continue
            f11, f12, f22 = (float(row[k]) for k in ("f11", "f12", "f22"))
            classical = np.array([[f11, f12], [f12, f22]])
            error = np.max(np.abs(oracle - classical)) / np.max(np.abs(classical))
            if error > 1e-6:
                raise GateError(f"cell ({i}, {j}): F differs from finite differences "
                                f"by {error:.3e} relative")
            compared += 1
        if compared < self.min_fd_cells:
            raise GateError(f"finite differences covered only {compared} cells")


class SaturationLocus(Workload):
    """Audit of one seeded point (t, t) on the mzi4 zero-gap locus.

    Photon counting is checked, then both constructions are built and each
    built set is checked, as ``construct-optimal`` does.  Within 0.1 of
    t = 0 mod pi the first-order-dark projectors need extra fallback
    directions (49 bundle evaluations instead of 40); the draw keeps 0.12
    clear of those points so that every op does the same work, with 26 of
    the 35 outcomes singular.  It also keeps out of the non-convergent bands.
    """

    name = "saturation-locus"
    build_source = ("import multiphase\n"
                    "model = multiphase.builtin_model('mzi4')\n"
                    "fock = multiphase.ProjectorSet.fock(model.basis)")
    trace_ops = 40
    clear_of_kpi = 0.12

    def setup(self):
        namespace = super().setup()
        self.model = namespace["model"]
        self.fock = namespace["fock"]

    def draw(self):
        while True:
            t = float(self.rng.uniform(0.0, TWO_PI))
            r = t % math.pi
            if min(r, math.pi - r) >= self.clear_of_kpi and not near_non_convergent(t):
                return t

    def op(self, t):
        mp = self.mp
        theta = np.array([t, t])
        reports = [mp.check_saturation(self.model, theta, self.fock)]
        built = [mp.construct_orthogonal_optimal(self.model, theta)]
        reports.append(mp.check_saturation(self.model, theta, built[0].projectors))
        built.append(mp.construct_nonorthogonal_optimal(self.model, theta, mix=0.5))
        reports.append(mp.check_saturation(self.model, theta, built[1].projectors))
        return reports, built

    def check(self, t, output):
        reports, built = output
        verdicts = [r.verdict for r in reports]
        if verdicts != [self.mp.SATURATES] * 3:
            raise GateError(f"t = {t!r}: verdicts {verdicts}")
        for b, report in zip(built, reports[1:]):
            gap = max(b.verification.gap, report.gap)
            if not gap < 1e-8:
                raise GateError(f"t = {t!r}: constructed set has gap {gap:.3e}")


class DesignM5(Workload):
    """A new five-mode instrument per op, then an optimal set for it.

    Seeded Haar splitter, seeded four-photon probe (Fock dimension 70) and
    phases on modes 0, 1 and 2.  The lift has the same cost for every
    probe, since all four-photon probes share one basis.
    """

    name = "design-m5"
    build_source = "import multiphase"
    trace_ops = 3
    modes, photons, phase_modes = 5, 4, (0, 1, 2)
    oracle_entries = 16

    def draw(self):
        m = self.modes
        z = self.rng.standard_normal((m, m)) + 1j * self.rng.standard_normal((m, m))
        q, r = np.linalg.qr(z)
        splitter = q * (np.diag(r) / np.abs(np.diag(r)))
        probe = np.bincount(self.rng.integers(0, m, self.photons), minlength=m)
        spec = {
            "splitter": [[[float(x.real), float(x.imag)] for x in row] for row in splitter],
            "phase_modes": list(self.phase_modes),
            "probe": [int(n) for n in probe],
        }
        theta = self.rng.uniform(0.0, TWO_PI, len(self.phase_modes))
        dim = math.comb(self.photons + m - 1, m - 1)
        entries = self.rng.integers(0, dim, size=(self.oracle_entries, 2))
        return spec, theta, entries

    def op(self, inputs):
        spec, theta, _ = inputs
        mp = self.mp
        model = mp.model_from_dict(spec)
        built = mp.construct_orthogonal_optimal(model, theta)
        report = mp.check_saturation(model, theta, built.projectors)
        return model, built, report

    def check(self, inputs, output):
        spec, theta, entries = inputs
        model, built, report = output
        splitter = np.array([[complex(re, im) for re, im in row] for row in spec["splitter"]])
        states = model.basis.states
        lifted = model.lifted_splitter
        modes = np.arange(self.modes)
        for t, s in entries:
            rows = np.repeat(modes, states[t])
            cols = np.repeat(modes, states[s])
            norm = math.sqrt(math.prod(math.factorial(n) for n in states[t] + states[s]))
            expected = self.mp.permanent(splitter[np.ix_(rows, cols)]) / norm
            if abs(lifted[t, s] - expected) > 1e-12:
                raise GateError(f"lifted entry ({t}, {s}) is {lifted[t, s]}, "
                                f"permanent gives {expected}")
        unitarity = float(np.max(np.abs(lifted.conj().T @ lifted - np.eye(len(states)))))
        if unitarity > 1e-10:
            raise GateError(f"lift deviates from unitary by {unitarity:.3e}")
        split = lifted @ self.mp.basis_state(model.basis, spec["probe"])
        p = np.abs(split) ** 2
        n = np.array(states, dtype=float)[:, list(self.phase_modes)]
        mean = p @ n
        covariance = (n * p[:, None]).T @ n - np.outer(mean, mean)
        deviation = float(np.max(np.abs(built.verification.qfim - 4.0 * covariance)))
        if deviation > 1e-9:
            raise GateError(f"F_Q deviates from 4 Cov(n_l, n_m) by {deviation:.3e}")
        if report.verdict != self.mp.SATURATES:
            raise GateError(f"constructed set verdict is {report.verdict}")


WORKLOADS = {w.name: w for w in (ScanMzi4, SaturationLocus, DesignM5)}
