"""Tests for the command-line interface."""

import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import multiphase
from multiphase import (
    SATURATES,
    ProjectorSet,
    builtin_model,
    fisher_pair,
    save_model,
)
from multiphase import fisher as fisher_module
from multiphase.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_three_mode_origin_values(self, capsys, tmp_path):
        out_path = tmp_path / "pair.json"
        code, out, _ = run(capsys, "compute", "--model", "mzi3",
                           "--theta", "0,0", "--out", str(out_path))
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert np.allclose(payload["qfim"],
                           (8.0 / 3.0) * np.array([[2, -1], [-1, 2]]), atol=1e-9)
        assert np.allclose(payload["fim"],
                           (4.0 / 3.0) * np.ones((2, 2)), atol=1e-6)
        assert "gap" in out

    def test_four_mode_origin_saturates(self, capsys):
        code, out, _ = run(capsys, "compute", "--model", "mzi4", "--theta", "0,0")
        assert code == 0
        payload = json.loads(out[out.index("{"):])
        assert payload["gap"] < 1e-6

    def test_matches_finite_difference_cross_check(self, capsys):
        from multiphase import ProjectorSet, fim_finite_difference

        code, out, _ = run(capsys, "compute", "--model", "mzi3",
                           "--theta", "0.7,0.3")
        assert code == 0
        payload = json.loads(out[out.index("{"):])
        model = builtin_model("mzi3")
        oracle = fim_finite_difference(model, [0.7, 0.3],
                                       ProjectorSet.fock(model.basis), delta=1e-4)
        assert np.max(np.abs(np.array(payload["fim"]) - oracle)) < 1e-5

    def test_model_file_input(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        save_model(builtin_model("mzi3"), path)
        code, out, _ = run(capsys, "compute", "--model", str(path),
                           "--theta", "0.2,0.4")
        assert code == 0

    def test_bad_model_name_is_config_error(self, capsys):
        code, _, err = run(capsys, "compute", "--model", "nope", "--theta", "0,0")
        assert code == 2
        assert "configuration error" in err

    def test_bad_theta_arity_is_config_error(self, capsys):
        code, _, _ = run(capsys, "compute", "--model", "mzi3", "--theta", "0,0,0")
        assert code == 2

    @pytest.mark.parametrize("theta", ["nan,0", "0,inf"])
    def test_non_finite_theta_is_config_error(self, capsys, theta):
        code, out, err = run(capsys, "compute", "--model", "mzi4", "--theta", theta)
        assert code == 2
        assert "finite" in err and out == ""

    @pytest.mark.parametrize("direction", ["1,2,3", "0,0"])
    def test_bad_limit_direction_rejected_without_dark_outcomes(self, capsys, direction):
        # No outcome is dark at this point, so the direction is never used.
        code, _, err = run(capsys, "compute", "--model", "mzi4", "--theta", "0.7,0.3",
                           "--limit-direction", direction)
        assert code == 2
        assert "direction" in err

    def test_ordering_failure_is_internal_inconsistency(self, capsys, monkeypatch):
        # A zero quantum matrix puts the classical one above the bound.
        monkeypatch.setattr(builtin_model("mzi3"), "quantum_fisher", np.zeros((2, 2)))
        code, _, err = run(capsys, "compute", "--model", "mzi3", "--theta", "0.4,1.1")
        assert code == 6
        assert err.startswith("internal inconsistency")

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("command", ["compute", "check-saturation"])
    @pytest.mark.parametrize("source", ["model", "projectors"])
    def test_non_finite_input_file_is_config_error(self, capsys, tmp_path, source,
                                                   command, value):
        # json writes and reads the tokens NaN and Infinity.
        model = builtin_model("mzi4")
        path = tmp_path / f"{source}.json"
        if source == "model":
            spec, field, argv = model.to_dict(), "splitter", ["--model", str(path)]
        else:
            spec, field = ProjectorSet.fock(model.basis).to_dict(), "projectors"
            argv = ["--model", "mzi4", "--projectors", str(path)]
        spec[field][0][0] = [value, 0.0]
        path.write_text(json.dumps(spec))
        code, out, err = run(capsys, command, *argv, "--theta", "0.3,0.5")
        assert code == 2
        assert err.startswith("configuration error") and out == ""

    @pytest.mark.parametrize("field, value", [
        ("probe", [1.5, 1, 1, 1]), ("phase_modes", [0, 1.9]), ("modes", 3.7),
        ("phase_modes", [0, [1]]), ("probe", "1111"),
    ])
    def test_non_integral_model_field_is_config_error(self, capsys, tmp_path, field, value):
        spec = builtin_model("mzi4").to_dict()
        spec[field] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(spec))
        code, out, err = run(capsys, "compute", "--model", str(path), "--theta", "0.3,0.5")
        assert code == 2
        assert err.startswith("configuration error") and out == ""
        assert "must be an integer" in err

    @pytest.mark.parametrize("field, value", [("photons", 4.5), ("modes", 3.5),
                                              ("modes", None)])
    def test_non_integral_projector_field_is_config_error(self, capsys, tmp_path, field,
                                                          value):
        spec = ProjectorSet.fock(builtin_model("mzi4").basis).to_dict()
        spec[field] = value
        path = tmp_path / "projectors.json"
        path.write_text(json.dumps(spec))
        code, out, err = run(capsys, "check-saturation", "--model", "mzi4",
                             "--projectors", str(path), "--theta", "0.3,0.5")
        assert code == 2
        assert err.startswith("configuration error") and out == ""
        assert f"{field} must be an integer" in err


class TestScan:
    def test_csv_layout_and_summary(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        code, out, _ = run(capsys, "scan", "--model", "mzi4",
                           "--resolution", "5,5", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header == ["theta1", "theta2", "gap", "verdict",
                          "f11", "f12", "f22", "fq11", "fq12", "fq22"]
        assert len(lines) == 1 + 25
        summary = json.loads(out)
        assert summary["min_gap"] < 1e-6
        diagonal = {(c["i"], c["j"]) for c in summary["saturating_cells"]}
        assert {(i, i) for i in range(5)} <= diagonal

    def test_deterministic_output(self, capsys, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        run(capsys, "scan", "--model", "mzi3", "--resolution", "4,4",
            "--out", str(first))
        run(capsys, "scan", "--model", "mzi3", "--resolution", "4,4",
            "--out", str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_summary_extrema_match_sequential_recount(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        _, out, _ = run(capsys, "scan", "--model", "mzi3",
                        "--resolution", "4,4", "--out", str(out_path))
        summary = json.loads(out)
        gaps = [float(line.split(",")[2])
                for line in out_path.read_text().strip().splitlines()[1:]]
        assert summary["min_gap"] == min(gaps)
        assert summary["max_gap"] == max(gaps)

    def test_degenerate_grid_rejected(self, capsys):
        code, _, err = run(capsys, "scan", "--model", "mzi3", "--resolution", "1,1")
        assert code == 2
        assert "resolution" in err

    @pytest.mark.parametrize("option, value", [
        ("--fixed", "5=1"),           # no such phase
        ("--fixed", "0=1"),           # a swept phase
        ("--resolution", "3,3,7"),    # three axes for a two-axis grid
    ])
    def test_malformed_grid_rejected(self, capsys, option, value):
        code, out, err = run(capsys, "scan", "--model", "mzi3", "--resolution", "3,3",
                             option, value)
        assert code == 2
        assert err.startswith("configuration error") and out == ""

    def test_json_format(self, capsys, tmp_path):
        out_path = tmp_path / "grid.json"
        code, _, _ = run(capsys, "scan", "--model", "mzi3",
                         "--resolution", "3,3", "--format", "json",
                         "--out", str(out_path))
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert len(payload["cells"]) == 9

    def test_three_mode_grid_gap_floor(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        _, out, _ = run(capsys, "scan", "--model", "mzi3",
                        "--resolution", "9,9", "--out", str(out_path))
        summary = json.loads(out)
        assert summary["min_gap"] > 0.75
        assert summary["saturating_cells"] == []


def read_cells(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestScanBatch:
    @pytest.mark.parametrize("name", ["mzi3", "mzi4"])
    def test_cells_match_per_point_evaluation(self, capsys, tmp_path, name):
        out_path = tmp_path / "grid.csv"
        code, _, _ = run(capsys, "scan", "--model", name, "--resolution", "9,7",
                         "--out", str(out_path))
        assert code == 0
        model = builtin_model(name)
        fock = ProjectorSet.fock(model.basis)
        cells = read_cells(out_path)
        assert len(cells) == 63
        for row in cells:
            theta = [float(row["theta1"]), float(row["theta2"])]
            pair = fisher_pair(model, theta, fock)
            assert row["verdict"] == (SATURATES if pair.gap < 1e-6 else "DoesNotSaturate")
            want = [pair.gap, pair.fim[0, 0], pair.fim[0, 1], pair.fim[1, 1],
                    pair.qfim[0, 0], pair.qfim[0, 1], pair.qfim[1, 1]]
            got = [float(row[k]) for k in ("gap", "f11", "f12", "f22", "fq11", "fq12", "fq22")]
            assert np.max(np.abs(np.subtract(got, want))) <= 1e-12 * np.max(np.abs(pair.qfim))

    @pytest.mark.parametrize("name, flagged", [("mzi4", False), ("mzi3", True)])
    def test_audit_directions_keeps_cells_and_reports_flags(self, capsys, tmp_path,
                                                            name, flagged):
        # Every scan audits its dark limits; a flagged cell keeps its row.
        out_path = tmp_path / "grid.csv"
        code, out, _ = run(capsys, "scan", "--model", name, "--resolution", "6,6",
                           "--out", str(out_path))
        assert code == 0
        model = builtin_model(name)
        fock = ProjectorSet.fock(model.basis)
        cells = read_cells(out_path)
        pairs = [fisher_pair(model, [float(row["theta1"]), float(row["theta2"])], fock)
                 for row in cells]
        assert [row["verdict"] for row in cells] == [
            SATURATES if pair.saturates else "DoesNotSaturate" for pair in pairs]
        expected = [(index // 6, index % 6) for index, pair in enumerate(pairs)
                    if pair.diagnostics.direction_dependent]
        reported = [(c["i"], c["j"]) for c in json.loads(out)["direction_dependent_cells"]]
        assert reported == expected
        assert bool(reported) == flagged


class TestRepeatedCalls:
    def test_parser_keeps_no_state_between_calls(self, capsys, tmp_path):
        # The parser is built once per process; a scan with a loose gap
        # threshold must not leak it into the next call.
        argv = ["scan", "--model", "mzi3", "--resolution", "6,6"]
        loose, plain, fresh = (tmp_path / f"{n}.csv" for n in ("loose", "plain", "fresh"))
        _, out, _ = run(capsys, *argv, "--tol-gap", "10", "--out", str(loose))
        assert len(json.loads(out)["saturating_cells"]) == 36
        code, out, _ = run(capsys, *argv, "--out", str(plain))
        assert code == 0
        assert json.loads(out)["saturating_cells"] == []
        assert loose.read_bytes() != plain.read_bytes()

        env = dict(os.environ, PYTHONPATH=str(Path(multiphase.__file__).resolve().parents[1]))
        subprocess.run([sys.executable, "-m", "multiphase.cli", *argv, "--out", str(fresh)],
                       check=True, capture_output=True, env=env)
        assert plain.read_bytes() == fresh.read_bytes()


class TestCheckSaturation:
    def test_exit_zero_for_both_verdicts(self, capsys):
        code, out, _ = run(capsys, "check-saturation", "--model", "mzi3",
                           "--theta", "0,0")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "DoesNotSaturate"
        values = {entry["projector"]: entry["value"] for entry in report["t1"]}
        expected = 1.0 / (3.0 * np.sqrt(3.0))
        nonzero = [v for v in values.values() if v > 1e-9]
        assert len(nonzero) == 6
        assert np.allclose(sorted(nonzero), [expected] * 6, atol=1e-9)

        code, out, _ = run(capsys, "check-saturation", "--model", "mzi4",
                           "--theta", "0,0")
        assert code == 0
        assert json.loads(out)["verdict"] == "Saturates"

    def test_generic_four_mode_point(self, capsys):
        code, out, _ = run(capsys, "check-saturation", "--model", "mzi4",
                           "--theta", "0.3,1.1")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "DoesNotSaturate"
        assert report["gap"] > 0

    @pytest.mark.parametrize("argv", [
        ("check-saturation", "--theta", "0.3,1.1"),
        ("compute", "--theta", "0.3,1.1"),
        ("scan", "--resolution", "3"),
    ], ids=lambda argv: argv[0])
    def test_deficit_mismatch_is_internal_inconsistency(self, capsys, monkeypatch, argv):
        # A deficit that no longer equals F_Q - F must not yield a verdict,
        # in any subcommand.
        deficit = fisher_module.condition_deficit
        monkeypatch.setattr(fisher_module, "condition_deficit",
                            lambda model, record: 1.01 * deficit(model, record))
        code, out, err = run(capsys, argv[0], "--model", "mzi4", *argv[1:])
        assert code == 6 and out == ""
        assert "differs from 4 sum_k q_k q_k^T" in err

    def test_scan_verdict_equals_check_saturation(self, capsys):
        # At (0, 0) the gap is roundoff (1e-15) and the deficit its square;
        # both subcommands decide from the deficit.
        _, out, _ = run(capsys, "scan", "--model", "mzi4", "--resolution", "3",
                        "--tol-gap", "1e-20", "--format", "json")
        scanned = json.loads(out)["cells"][0]
        assert scanned[:2] == ["0", "0"]
        _, out, _ = run(capsys, "check-saturation", "--model", "mzi4", "--theta", "0,0",
                        "--tol-gap", "1e-20")
        assert scanned[3] == json.loads(out)["verdict"] == SATURATES

    @pytest.mark.parametrize("t", [0.7, 1.9, 2.6])
    def test_verdict_follows_the_gap_beside_the_locus(self, capsys, t):
        # The condition values grow linearly off the mzi4 locus and the gap
        # quadratically; the verdict reads both from one deficit.
        for k in range(3, 13):
            for theta2 in (t + 10.0 ** -k, t - 10.0 ** -k):
                code, out, err = run(capsys, "check-saturation", "--model", "mzi4",
                                     "--theta", f"{t!r},{theta2!r}")
                assert code == 0, err
                report = json.loads(out)
                assert (report["verdict"] == SATURATES) == (report["gap"] < 1e-6)


class TestConstructOptimal:
    def test_orthogonal_emits_set_and_verification(self, capsys, tmp_path):
        out_path = tmp_path / "set.json"
        code, out, _ = run(capsys, "construct-optimal", "--model", "mzi3",
                           "--theta", "0,0", "--variant", "orthogonal",
                           "--out", str(out_path))
        assert code == 0
        assert "verification: verdict=Saturates" in out
        payload = json.loads(out_path.read_text())
        assert len(payload["projectors"]) == 10
        assert payload["complete"]

    def test_nonorthogonal_overlaps(self, capsys, tmp_path):
        out_path = tmp_path / "set.json"
        code, out, _ = run(capsys, "construct-optimal", "--model", "mzi3",
                           "--theta", "0,0", "--variant", "nonorthogonal",
                           "--out", str(out_path))
        assert code == 0
        from multiphase import ProjectorSet

        pset = ProjectorSet.from_dict(json.loads(out_path.read_text()))
        psi = builtin_model("mzi3").output_state([0.0, 0.0])
        overlaps = np.abs(pset.vectors[:3].conj() @ psi)
        assert np.all(overlaps > 1e-3)

    def test_constructed_set_round_trips_into_check(self, capsys, tmp_path):
        set_path = tmp_path / "set.json"
        run(capsys, "construct-optimal", "--model", "mzi4", "--theta", "1.0,1.0",
            "--variant", "orthogonal", "--out", str(set_path))
        code, out, _ = run(capsys, "check-saturation", "--model", "mzi4",
                           "--theta", "1.0,1.0", "--projectors", str(set_path))
        assert code == 0
        assert json.loads(out)["verdict"] == SATURATES

    @pytest.mark.parametrize("variant", ["orthogonal", "nonorthogonal"])
    def test_verdict_below_zero_threshold_is_a_failed_self_check(self, capsys, tmp_path,
                                                                 variant):
        # The deficit of a saturating set is rounding, not below zero.
        out_path = tmp_path / "set.json"
        code, out, err = run(capsys, "construct-optimal", "--model", "mzi4",
                             "--theta", "0.3,1.1", "--variant", variant,
                             "--tol-gap", "0", "--out", str(out_path))
        assert code == 4
        assert err == ("construction self-check failed: "
                       "constructed set verdict is DoesNotSaturate\n")
        assert out == "" and not out_path.exists()


class TestVerifyPaper:
    def test_single_check_selection(self, capsys):
        code, out, _ = run(capsys, "verify-paper", "--only", "qfim3")
        assert code == 0
        assert "qfim3" in out and "PASS" in out

    def test_unknown_check_rejected(self, capsys):
        code, _, err = run(capsys, "verify-paper", "--only", "bogus")
        assert code == 2
        assert "unknown check" in err


class TestConfiguration:
    def test_config_file_applies_and_flags_win(self, capsys, tmp_path):
        config = tmp_path / "settings.cfg"
        config.write_text("# thresholds\ntol-gap = 4.1\n")
        # With a loose gap threshold, mildly non-saturating cells are
        # counted as saturating in the summary.
        out_path = tmp_path / "grid.csv"
        code, out, _ = run(capsys, "scan", "--model", "mzi4",
                           "--resolution", "5,5", "--config", str(config),
                           "--out", str(out_path))
        assert code == 0
        summary = json.loads(out)
        assert len(summary["saturating_cells"]) > 5

        code, out, _ = run(capsys, "scan", "--model", "mzi4",
                           "--resolution", "5,5", "--config", str(config),
                           "--tol-gap", "1e-6", "--out", str(out_path))
        summary = json.loads(out)
        assert len(summary["saturating_cells"]) == 5

    def test_retired_limit_tolerance_rejected(self, capsys, tmp_path):
        # Singular outcomes have no extrapolation left to tolerate, and the
        # saturation verdict reads the condition deficit against tol-gap.
        config = tmp_path / "settings.cfg"
        # Hermitian and unitary checks use fixed thresholds.
        # Weak commutativity is checked against the fixed GRAM_SCHMIDT_DROP.
        for line in ("tol-limit = 1e-6", "tol-sat = 1e-8",
                     "tol-hermitian = 1e-300", "tol-unitary = 1e-300", "tol-wc = 1e-8"):
            config.write_text(line + "\n")
            for command in ("check-saturation", "construct-optimal"):
                code, _, err = run(capsys, command, "--model", "mzi3",
                                   "--theta", "0,0", "--config", str(config))
                assert code == 2
                assert "unknown key" in err

    @pytest.mark.parametrize("setting", [
        ("--tol-gap", "nan"), ("--tol-gap", "-1"), ("--tol-gap", "inf"),
        ("--tol-orth", "nan"), ("--tol-orth", "-1"), ("--tol-orth", "inf"),
    ])
    def test_bad_tolerance_is_config_error(self, capsys, setting):
        code, out, err = run(capsys, "check-saturation", "--model", "mzi4",
                             "--theta", "0,0", *setting)
        assert code == 2
        assert err.startswith("configuration error") and out == ""

    def test_zero_tolerance_accepted(self, capsys):
        code, out, _ = run(capsys, "check-saturation", "--model", "mzi4",
                           "--theta", "0,0", "--tol-orth", "0")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == SATURATES
        # No overlap is below zero, so no projector is orthogonal to the probe.
        assert all(entry["tag"] != "orthogonal" for entry in report["classification"])

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        # The probability floor is a fixed constant, and construct-optimal
        # reads no orthogonality threshold, so tol-orth is unknown to it.
        config = tmp_path / "settings.cfg"
        for command, line in (("check-saturation", "tol-bogus = 1"),
                              ("check-saturation", "p-floor = 1e-12"),
                              ("construct-optimal", "tol-orth = 0.5")):
            config.write_text(line + "\n")
            code, _, err = run(capsys, command, "--model", "mzi3",
                               "--theta", "0,0", "--config", str(config))
            assert code == 2
            assert "unknown key" in err


SETTINGS = ("--config", "--limit-direction", "--out")
OPTIONS = {
    "compute": ("--model", "--theta", "--projectors", "--limit-direction", "--out"),
    "scan": ("--model", "--phases", "--range1", "--range2", "--resolution", "--fixed",
             "--format", *SETTINGS, "--tol-gap"),
    "check-saturation": ("--model", "--theta", "--projectors", *SETTINGS,
                         "--tol-gap", "--tol-orth"),
    "construct-optimal": ("--model", "--theta", "--variant", *SETTINGS, "--tol-gap"),
    "verify-paper": ("--only",),
}


class TestOptions:
    """Each subcommand takes only the options that can change its result."""

    def test_option_lists(self):
        (subparsers,) = [action for action in build_parser()._actions
                         if isinstance(action, argparse._SubParsersAction)]
        found = {
            name: {option for action in sub._actions for option in action.option_strings
                   if option.startswith("--") and option != "--help"}
            for name, sub in subparsers.choices.items()
        }
        assert found == {name: set(options) for name, options in OPTIONS.items()}
        assert sum(map(len, found.values())) == 32

    @pytest.mark.parametrize("argv", [
        ("verify-paper", "--tol-gap", "1"),
        ("construct-optimal", "--model", "mzi3", "--theta", "0,0", "--mix", "0.5"),
        ("construct-optimal", "--model", "mzi3", "--theta", "0,0", "--audit-directions"),
        ("construct-optimal", "--model", "mzi3", "--theta", "0,0", "--tol-wc", "1e-8"),
        ("compute", "--model", "mzi3", "--theta", "0,0", "--tol-unitary", "1e-300"),
        ("check-saturation", "--model", "mzi3", "--theta", "0,0", "--tol-hermitian", "1"),
        ("compute", "--model", "mzi3", "--theta", "0,0", "--config", "settings.cfg"),
        ("compute", "--model", "mzi3", "--theta", "0,0", "--p-floor", "1e-12"),
        ("scan", "--model", "mzi3", "--p-floor", "0"),
        ("check-saturation", "--model", "mzi3", "--theta", "0,0", "--p-floor", "1"),
        ("construct-optimal", "--model", "mzi3", "--theta", "0,0", "--p-floor", "1e-12"),
        ("compute", "--model", "mzi3", "--theta", "0,0", "--audit-directions"),
        ("scan", "--model", "mzi3", "--audit-directions"),
        ("check-saturation", "--model", "mzi3", "--theta", "0,0", "--audit-directions"),
    ])
    def test_dropped_options_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(list(argv))
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, setting", [
        (("check-saturation", "--model", "mzi3", "--theta", "0.7,0.3"), ("--tol-orth", "0.5")),
        (("construct-optimal", "--model", "mzi3", "--theta", "0.7,0.3"),
         ("--variant", "nonorthogonal")),
        (("check-saturation", "--model", "mzi3", "--theta", "0.7,0.3"), ("--tol-gap", "10")),
        (("compute", "--model", "mzi3", "--theta", "0,0"), ("--limit-direction", "1,0")),
    ])
    def test_setting_changes_the_result(self, capsys, argv, setting):
        # scan's tol-gap is covered by TestRepeatedCalls.
        assert run(capsys, *argv) != run(capsys, *argv, *setting)
