"""Command-line front end.

Subcommands: ``compute`` (single-point Fisher matrices), ``scan``
(phase-grid sweep to CSV/JSON), ``check-saturation`` (condition report),
``construct-optimal`` (saturating projector sets), ``verify-paper``
(reference-value regression table).  ``scan`` and ``check-saturation``
share one verdict, read from the condition deficit (``fisher.evaluate``).

Each subcommand accepts only the options that can change its output or
its exit code.  Its tolerance keys (``tol-gap``, ``tol-orth``) are set by
flags or by a ``key = value`` file (``--config``; flags win), and a file
naming a key the subcommand does not read is rejected like one naming an
unknown key; ``compute`` reads none and takes no file.  A non-finite or
negative tolerance exits 2.  Every evaluation flags the points whose dark
limits depend on the approach direction.

Exit codes: 0 ok, 1 verification failure, 2 configuration error,
4 construction self-check failure, 6 internal inconsistency (theory and
numerics disagree, e.g. the classical matrix exceeds the quantum bound,
or ``F_Q - F`` differs from the condition deficit).  Codes 3 (numerical
non-convergence) and 5 (weak-commutativity violation) are retired:
singular outcomes are resolved in closed form, and the derivative states
of every model commute weakly.
"""

import argparse
import dataclasses
import json
import os
import sys
from functools import lru_cache

import numpy as np

from .errors import EstimationError, InternalInconsistencyError
from .fisher import ProjectorSet, fisher_pair, fisher_pairs, qfim
from .interferometer import builtin_model, load_model, tritter, quarter
from .linalg import spectral_norm
from .optimal import construct_nonorthogonal_optimal, construct_orthogonal_optimal
from .saturation import DOES_NOT_SATURATE, SATURATES, check_saturation
from .tolerances import DEFAULT_TOLERANCES, Tolerances

_CONFIG_KEYS = {
    "tol-gap": "saturation_gap",
    "tol-orth": "orthogonal_overlap",
}


def _parse_config_file(path, keys) -> dict:
    """Line-oriented ``key = value`` file; keys outside ``keys`` are rejected."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in keys:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}; "
                                 f"accepted: {', '.join(keys)}")
            values[key] = float(value.strip())
    return values


def _add_settings(parser, keys):
    """The options that set the ``Tolerances`` fields this subcommand reads."""
    if keys:
        parser.add_argument("--config", help="key = value file with tolerance overrides")
    for key in keys:
        parser.add_argument(f"--{key}", type=float, default=None,
                            help=f"override {key.replace('-', ' ')}")
    parser.add_argument("--limit-direction",
                        help="comma-separated approach direction for 0/0 limits")
    parser.add_argument("--out", help="write the primary output to this path")
    parser.set_defaults(config=None, config_keys=keys)


def _settings(args) -> Tolerances:
    """The tolerances after config file and flag overrides."""
    overrides = _parse_config_file(args.config, args.config_keys) if args.config else {}
    for key in args.config_keys:
        flag = getattr(args, key.replace("-", "_"))
        if flag is not None:
            overrides[key] = flag
    fields = {_CONFIG_KEYS[key]: value for key, value in overrides.items()}
    if args.limit_direction:
        fields["direction"] = tuple(float(x) for x in args.limit_direction.split(","))
    return dataclasses.replace(DEFAULT_TOLERANCES, **fields)


def _resolve_model(source):
    if source in ("mzi3", "mzi4"):
        return builtin_model(source)
    if os.path.exists(source):
        return load_model(source)
    raise ValueError(f"model {source!r} is neither a builtin name nor a file")


def _parse_theta(text, expected):
    theta = np.array([float(x) for x in text.split(",")])
    if theta.shape != (expected,):
        raise ValueError(f"expected {expected} phases, got {theta.shape[0]}")
    return theta


def _resolve_projectors(source, model):
    if source == "fock":
        return ProjectorSet.fock(model.basis)
    if os.path.exists(source):
        pset = ProjectorSet.load(source)
        if pset.basis != model.basis:
            raise ValueError("projector file basis does not match the model")
        return pset
    raise ValueError(f"projectors {source!r} is neither 'fock' nor a file")


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _pair_payload(pair) -> dict:
    return {
        "theta": [float(t) for t in pair.theta],
        "fim": [[float(x) for x in row] for row in pair.fim],
        "qfim": [[float(x) for x in row] for row in pair.qfim],
        "gap": pair.gap,
        "singular_outcomes": list(pair.diagnostics.singular_outcomes),
        "direction_dependent": pair.diagnostics.direction_dependent,
    }


def cmd_compute(args) -> int:
    tolerances = _settings(args)
    model = _resolve_model(args.model)
    theta = _parse_theta(args.theta, model.d)
    projectors = _resolve_projectors(args.projectors, model)
    pair = fisher_pair(model, theta, projectors, tolerances)
    print(f"theta = {np.array2string(theta, precision=6)}")
    print(f"fim   =\n{np.array2string(pair.fim, precision=10)}")
    print(f"qfim  =\n{np.array2string(pair.qfim, precision=10)}")
    print(f"gap   = {pair.gap:.10e}")
    _emit(json.dumps(_pair_payload(pair), indent=2), args.out)
    return 0


def _upper_triangle_header(d, prefix):
    return [f"{prefix}{l + 1}{m + 1}" for l in range(d) for m in range(l, d)]


def _upper_triangle(matrix):
    d = matrix.shape[0]
    return [matrix[l, m] for l in range(d) for m in range(l, d)]


def cmd_scan(args) -> int:
    tolerances = _settings(args)
    model = _resolve_model(args.model)
    sweep = tuple(int(x) for x in args.phases.split(","))
    if len(sweep) != 2 or len(set(sweep)) != 2:
        raise ValueError("exactly two distinct phase indices must be swept")
    if any(not 0 <= p < model.d for p in sweep):
        raise ValueError(f"phase index out of range for d = {model.d}")
    resolutions = [int(x) for x in args.resolution.split(",")]
    if len(resolutions) == 1:
        resolutions *= 2
    if len(resolutions) != 2:
        raise ValueError("resolution takes one or two cell counts")
    if any(r < 2 for r in resolutions):
        raise ValueError("resolution must be at least 2 per axis")
    ranges = []
    for text in (args.range1, args.range2):
        lo, hi = (float(x) for x in text.split(","))
        if not hi > lo:
            raise ValueError("ranges must be non-degenerate (hi > lo)")
        ranges.append((lo, hi))

    fixed = np.zeros(model.d)
    if args.fixed:
        for item in args.fixed.split(","):
            index, _, value = item.partition("=")
            index = int(index)
            if not 0 <= index < model.d or index in sweep:
                raise ValueError(f"--fixed index {index} is not an unswept phase of "
                                 f"d = {model.d}")
            fixed[index] = float(value)

    axis1 = ranges[0][0] + (ranges[0][1] - ranges[0][0]) * np.arange(resolutions[0]) / resolutions[0]
    axis2 = ranges[1][0] + (ranges[1][1] - ranges[1][0]) * np.arange(resolutions[1]) / resolutions[1]
    thetas = np.tile(fixed, (resolutions[0] * resolutions[1], 1))
    thetas[:, sweep[0]] = np.repeat(axis1, resolutions[1])
    thetas[:, sweep[1]] = np.tile(axis2, resolutions[0])
    pairs = fisher_pairs(model, thetas, ProjectorSet.fock(model.basis), tolerances)

    d = model.d
    header = (["theta1", "theta2", "gap", "verdict"]
              + _upper_triangle_header(d, "f") + _upper_triangle_header(d, "fq"))
    rows = []
    saturating = []
    direction_dependent = []
    for index, pair in enumerate(pairs):
        i, j = divmod(index, resolutions[1])
        theta1, theta2 = pair.theta[sweep[0]], pair.theta[sweep[1]]
        cell = {"i": i, "j": j, "theta1": float(theta1), "theta2": float(theta2)}
        if pair.saturates:
            saturating.append(cell)
        if pair.diagnostics.direction_dependent:
            direction_dependent.append(cell)
        rows.append([_fmt(theta1), _fmt(theta2), _fmt(pair.gap),
                     SATURATES if pair.saturates else DOES_NOT_SATURATE]
                    + [_fmt(float(x)) for x in _upper_triangle(pair.fim)]
                    + [_fmt(float(x)) for x in _upper_triangle(pair.qfim)])

    gaps = [pair.gap for pair in pairs]
    summary = {
        "model": args.model,
        "swept_phases": list(sweep),
        "ranges": [list(r) for r in ranges],
        "resolution": resolutions,
        "fixed": [float(x) for x in fixed],
        "min_gap": float(np.min(gaps)),
        "max_gap": float(np.max(gaps)),
        "saturating_cells": saturating,
        "direction_dependent_cells": direction_dependent,
    }

    try:
        if args.format == "csv":
            lines = [",".join(header)] + [",".join(row) for row in rows]
            _emit("\n".join(lines), args.out)
            print(json.dumps(summary, indent=2) if not args.out else json.dumps(summary))
        else:
            payload = {"summary": summary, "header": header, "cells": rows}
            _emit(json.dumps(payload, indent=2), args.out)
    except Exception:
        if args.out and os.path.exists(args.out):
            os.unlink(args.out)
        raise
    return 0


def cmd_check_saturation(args) -> int:
    tolerances = _settings(args)
    model = _resolve_model(args.model)
    theta = _parse_theta(args.theta, model.d)
    projectors = _resolve_projectors(args.projectors, model)
    report = check_saturation(model, theta, projectors, tolerances)
    _emit(report.to_json(indent=2), args.out)
    return 0


def cmd_construct_optimal(args) -> int:
    tolerances = _settings(args)
    model = _resolve_model(args.model)
    theta = _parse_theta(args.theta, model.d)
    try:
        if args.variant == "orthogonal":
            built = construct_orthogonal_optimal(model, theta, tolerances)
        else:
            built = construct_nonorthogonal_optimal(model, theta, tolerances=tolerances)
        if not built.verification.saturates:
            raise InternalInconsistencyError(f"constructed set verdict is {DOES_NOT_SATURATE}")
    except InternalInconsistencyError as exc:
        print(f"construction self-check failed: {exc}", file=sys.stderr)
        return 4
    _emit(json.dumps(built.projectors.to_dict()), args.out)
    print(f"verification: verdict={SATURATES} gap={built.verification.gap:.3e} "
          f"projectors={len(built.projectors)} in_span={built.in_span}")
    return 0


def _reference_checks():
    """Reference-value checks; each returns (expected, computed, tol, passed)."""
    sqrt3 = np.sqrt(3.0)

    def check_tritter():
        u = tritter()
        worst = max(
            abs(u[0, 0] - 1 / sqrt3),
            abs(u[0, 1] - np.exp(2j * np.pi / 3) / sqrt3),
            float(np.max(np.abs(u.conj().T @ u - np.eye(3)))),
        )
        return "entries 3^-1/2, e^{i2pi/3}/3^1/2; unitary", f"max dev {worst:.2e}", 1e-12, worst <= 1e-12

    def check_quarter():
        u = quarter()
        worst = max(
            abs(u[0, 0] - 0.5),
            abs(u[1, 0] + 0.5),
            float(np.max(np.abs(u.T @ u - np.eye(4)))),
        )
        return "entries +-1/2; orthogonal", f"max dev {worst:.2e}", 0.0, worst == 0.0

    def check_basis_dim():
        dims = (builtin_model("mzi3").basis.dim, builtin_model("mzi4").basis.dim)
        return "(10, 35)", str(dims), 0, dims == (10, 35)

    def check_qfim3():
        expected = (8.0 / 3.0) * np.array([[2.0, -1.0], [-1.0, 2.0]])
        bundle = builtin_model("mzi3").derivative_bundle([[0.0, 0.0], [0.7, 0.3], [2.0, 5.5]])
        worst = float(np.max(np.abs(qfim(bundle) - expected)))
        return "(8/3)[[2,-1],[-1,2]] at all theta", f"max dev {worst:.2e}", 1e-9, worst <= 1e-9

    def check_qfim4():
        expected = 2.0 * np.array([[3.0, -1.0], [-1.0, 3.0]])
        bundle = builtin_model("mzi4").derivative_bundle([[0.0, 0.0], [0.9, 0.9], [1.3, 0.2]])
        worst = float(np.max(np.abs(qfim(bundle) - expected)))
        return "2[[3,-1],[-1,3]] at all theta", f"max dev {worst:.2e}", 1e-9, worst <= 1e-9

    def check_norm8():
        value = spectral_norm(builtin_model("mzi3").quantum_fisher)
        return "||F_Q||_2 = 8", f"{value:.12f}", 1e-9, abs(value - 8.0) <= 1e-9

    def check_fim3_origin():
        model = builtin_model("mzi3")
        pair = fisher_pair(model, [0.0, 0.0], ProjectorSet.fock(model.basis))
        expected = (4.0 / 3.0) * np.ones((2, 2))
        worst = float(np.max(np.abs(pair.fim - expected)))
        return "(4/3)[[1,1],[1,1]]", f"max dev {worst:.2e}", 1e-6, worst <= 1e-6

    def check_ck_table():
        # The bilinear is antisymmetric in the derivative indices, so the
        # absolute sign of each group follows the theta labeling; the
        # reference pattern is one group at +1/(3 sqrt 3), the other at
        # -1/(3 sqrt 3), and zeros elsewhere.
        model = builtin_model("mzi3")
        bundle = model.derivative_bundle([0.0, 0.0])
        fock = ProjectorSet.fock(model.basis)
        value = 1.0 / (3.0 * sqrt3)

        def bilinear(state):
            y = fock.vectors[model.basis.index_of(state)]
            return (np.vdot(bundle.dpsi[0], y) * np.vdot(y, bundle.dpsi[1])).imag

        group_a = [bilinear(s) for s in ((2, 1, 0), (1, 0, 2), (0, 2, 1))]
        group_b = [bilinear(s) for s in ((2, 0, 1), (1, 2, 0), (0, 1, 2))]
        zeros = [bilinear(s) for s in ((1, 1, 1), (3, 0, 0), (0, 3, 0), (0, 0, 3))]
        sign = np.sign(group_a[0])
        worst = max(
            max(abs(c - sign * value) for c in group_a),
            max(abs(c + sign * value) for c in group_b),
            max(abs(c) for c in zeros),
        )
        return "+-1/(3 sqrt 3) pattern", f"max dev {worst:.2e}", 1e-9, worst <= 1e-9

    def check_gap3_floor():
        model = builtin_model("mzi3")
        grid = 2.0 * np.pi * np.arange(41) / 41
        thetas = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)
        pairs = fisher_pairs(model, thetas, ProjectorSet.fock(model.basis))
        lowest = min(pair.gap for pair in pairs)
        return "min gap > 3/4", f"{lowest:.6f}", 1e-3, lowest > 0.75 + 1e-3

    def check_locus4():
        model = builtin_model("mzi4")
        fock = ProjectorSet.fock(model.basis)
        on_locus = [[t, t] for t in (2.0 * np.pi * k / 11 for k in range(11))]
        on_locus += [[0.0, np.pi], [np.pi, 0.0]]
        worst_on = max(pair.gap for pair in fisher_pairs(model, on_locus, fock))
        rng = np.random.default_rng(20240)
        off_locus = []
        while len(off_locus) < 20:
            theta = rng.uniform(0.0, 2.0 * np.pi, size=2)
            if abs(theta[0] - theta[1]) < 0.3:
                continue
            if min(np.hypot(*(theta - p)) for p in
                   (np.array([0.0, np.pi]), np.array([np.pi, 0.0]))) < 0.3:
                continue
            off_locus.append(theta)
        best_off = min(pair.gap for pair in fisher_pairs(model, off_locus, fock))
        passed = worst_on < 1e-6 and best_off > 1e-3
        return ("gap < 1e-6 on locus, > 1e-3 off",
                f"on <= {worst_on:.2e}, off >= {best_off:.2e}", 1e-6, passed)

    def check_saturation_verdicts():
        m3, m4 = builtin_model("mzi3"), builtin_model("mzi4")
        verdicts = tuple(check_saturation(m, theta, ProjectorSet.fock(m.basis)).verdict
                         for m, theta in ((m3, [0.0, 0.0]), (m4, [0.0, 0.0]), (m4, [0.0, np.pi])))
        expected = (DOES_NOT_SATURATE, SATURATES, SATURATES)
        return str(expected), str(verdicts), 0, verdicts == expected

    return {
        "tritter": ("tritter matrix entries and unitarity", check_tritter),
        "quarter": ("quarter matrix entries and orthogonality", check_quarter),
        "basis-dim": ("Fock basis dimensions 10 and 35", check_basis_dim),
        "qfim3": ("three-mode quantum matrix, theta independent", check_qfim3),
        "qfim4": ("four-mode quantum matrix, theta independent", check_qfim4),
        "norm8": ("three-mode quantum matrix spectral norm", check_norm8),
        "fim3-origin": ("three-mode classical matrix at theta = 0", check_fim3_origin),
        "ck-table": ("first-order condition values at theta = 0", check_ck_table),
        "gap3-floor": ("three-mode gap exceeds 3/4 on a 41x41 grid", check_gap3_floor),
        "locus4": ("four-mode zero-gap locus", check_locus4),
        "verdicts": ("saturation verdicts at reference points", check_saturation_verdicts),
    }


def cmd_verify_paper(args) -> int:
    checks = _reference_checks()
    if args.only is not None:
        if args.only not in checks:
            raise ValueError(
                f"unknown check {args.only!r}; available: {', '.join(checks)}"
            )
        checks = {args.only: checks[args.only]}
    failures = 0
    width = max(len(k) for k in checks)
    for check_id, (description, runner) in checks.items():
        expected, computed, tol, passed = runner()
        status = "PASS" if passed else "FAIL"
        failures += 0 if passed else 1
        print(f"{check_id:<{width}}  {status}  expected {expected}; got {computed} "
              f"(tol {tol})")
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiphase",
        description="Fisher information matrices and optimal projective "
                    "measurements for multiphase interferometry",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="Fisher matrices at one phase point")
    p.add_argument("--model", required=True, help="mzi3, mzi4 or a model JSON file")
    p.add_argument("--theta", required=True, help="comma-separated phases in radians")
    p.add_argument("--projectors", default="fock", help="'fock' or a projector JSON file")
    _add_settings(p, ())
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("scan", help="two-phase grid sweep")
    p.add_argument("--model", required=True)
    p.add_argument("--phases", default="0,1", help="two phase indices to sweep")
    p.add_argument("--range1", default="0,6.283185307179586", help="lo,hi for axis 1 (end exclusive)")
    p.add_argument("--range2", default="0,6.283185307179586", help="lo,hi for axis 2 (end exclusive)")
    p.add_argument("--resolution", default="101,101", help="cells per axis")
    p.add_argument("--fixed", help="values for unswept phases, e.g. '2=0.5,3=1.0'")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_settings(p, ("tol-gap",))
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("check-saturation", help="saturation condition report")
    p.add_argument("--model", required=True)
    p.add_argument("--theta", required=True)
    p.add_argument("--projectors", default="fock")
    _add_settings(p, ("tol-gap", "tol-orth"))
    p.set_defaults(func=cmd_check_saturation)

    p = sub.add_parser("construct-optimal", help="build a saturating projector set")
    p.add_argument("--model", required=True)
    p.add_argument("--theta", required=True)
    p.add_argument("--variant", choices=("orthogonal", "nonorthogonal"),
                   default="orthogonal")
    _add_settings(p, ("tol-gap",))
    p.set_defaults(func=cmd_construct_optimal)

    p = sub.add_parser("verify-paper", help="run the reference-value checks")
    p.add_argument("--only", help="run a single check by id")
    p.set_defaults(func=cmd_verify_paper)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use; ``parse_args`` leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 6
    except (EstimationError, ValueError, OSError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
