"""Command-line parsing, report emission, exit codes, and determinism."""

import csv
import io
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from spinpair.cli import RunConfig, UsageError, emit_report, main, parse_args
from spinpair.dynamics_nonlinear import Trajectory
from spinpair.scenarios import (
    BasisChoice,
    ContractCheck,
    ScenarioConfig,
    ScenarioId,
    ScenarioReport,
)


class TestParseArgs:
    def test_run_maps_flags_to_config(self):
        cfg = parse_args(
            ["run", "sec7", "--epsilon", "1", "--t-max", "10", "--out", "r.csv"]
        )
        assert cfg.command == "run"
        assert cfg.scenario is ScenarioId.CHANGED_CORRELATIONS
        assert cfg.config.epsilon == 1.0
        assert cfg.config.t_max == 10.0
        assert cfg.out == "r.csv"
        assert cfg.fmt == "csv"
        assert cfg.precision == 12

    def test_entanglement_basis_flag(self):
        cfg = parse_args(["run", "sec8", "--basis", "diag"])
        assert cfg.scenario is ScenarioId.ENTANGLEMENT
        assert cfg.config.basis_choice is BasisChoice.DIAG

    def test_linear_alias(self):
        cfg = parse_args(["run", "linear", "--trials", "10", "--seed", "3"])
        assert cfg.scenario is ScenarioId.LINEAR_BASELINE
        assert cfg.config.trials == 10
        assert cfg.config.seed == 3
        assert cfg.fmt == "json"  # the suite has no trajectories for a CSV

    def test_probability_bound_enforced(self):
        with pytest.raises(UsageError):
            parse_args(["run", "sec6", "--p", "1.5"])

    def test_unknown_scenario_lists_valid_names(self):
        with pytest.raises(UsageError, match="sec5"):
            parse_args(["run", "nope"])

    def test_precision_bounds(self):
        with pytest.raises(UsageError):
            parse_args(["run", "sec5", "--precision", "5"])
        with pytest.raises(UsageError):
            parse_args(["run", "sec5", "--precision", "18"])
        assert parse_args(["run", "sec5", "--precision", "17"]).precision == 17

    def test_verify_linear_defaults_to_json(self):
        cfg = parse_args(["verify-linear", "--trials", "5"])
        assert cfg.command == "verify-linear"
        assert cfg.fmt == "json"
        assert cfg.config.trials == 5

    def test_list_command(self):
        assert parse_args(["list"]).command == "list"

    def test_missing_command_rejected(self):
        with pytest.raises(UsageError):
            parse_args([])


def tiny_report(passed=True):
    times = np.array([0.0, 0.5, 1.0])
    arm_a = Trajectory(times, np.zeros((3, 3)))
    arm_b = Trajectory(times, np.full((3, 3), 0.25))
    check = ContractCheck("made-up bound", 0.0 if passed else 1.0, 0.5)
    return ScenarioReport(
        ScenarioId.NO_CORRELATIONS,
        ScenarioConfig(t_max=1.0, dt=0.5),
        {"armA": arm_a, "armB": arm_b},
        0.25,
        {"description": "fixture", "value": 0.1},
        (check,),
    )


def run_config(out, fmt="csv", precision=12):
    return RunConfig("run", ScenarioId.NO_CORRELATIONS, ScenarioConfig(), out, fmt, precision)


class TestEmitReport:
    def test_csv_layout(self, tmp_path):
        path = tmp_path / "out.csv"
        code = emit_report(tiny_report(), run_config(str(path)))
        assert code == 0
        rows = list(csv.reader(io.StringIO(path.read_text())))
        assert rows[0] == ["t", "arm", "sigma1", "sigma2", "sigma3"]
        assert len(rows) == 1 + 2 * 3
        arms = {row[1] for row in rows[1:]}
        assert arms == {"armA", "armB"}

    def test_csv_round_trip(self, tmp_path):
        """Parsing the emitted file reproduces the trajectory values."""
        path = tmp_path / "out.csv"
        report = tiny_report()
        emit_report(report, run_config(str(path)))
        rows = list(csv.reader(io.StringIO(path.read_text())))[1:]
        for row, expected_t, expected_point in zip(
            rows[:3], report.arms["armA"].times, report.arms["armA"].points
        ):
            assert float(row[0]) == pytest.approx(expected_t, abs=1e-12)
            np.testing.assert_allclose([float(x) for x in row[2:]], expected_point, atol=1e-12)

    def test_json_layout(self, tmp_path):
        path = tmp_path / "out.json"
        code = emit_report(tiny_report(), run_config(str(path), fmt="json"))
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["scenario"] == "no-correlations"
        assert set(doc["arms"]) == {"armA", "armB"}
        assert doc["arms"]["armA"]["times"] == [0.0, 0.5, 1.0]
        assert doc["divergence"] == 0.25
        assert doc["narrative"]["description"] == "fixture"
        assert doc["contracts_ok"] is True

    def test_failed_contract_returns_two(self, tmp_path):
        path = tmp_path / "out.csv"
        assert emit_report(tiny_report(passed=False), run_config(str(path))) == 2

    def test_stdout_when_no_path(self, capsys):
        assert emit_report(tiny_report(), run_config(None)) == 0
        out = capsys.readouterr().out
        assert out.startswith("t,arm,sigma1,sigma2,sigma3")


class TestMain:
    def test_scenario_run_exit_zero(self, tmp_path):
        path = tmp_path / "sec5.csv"
        code = main(["run", "sec5", "--t-max", "1", "--dt", "0.1", "--out", str(path)])
        assert code == 0
        assert path.exists()

    def test_verify_linear_stdout(self, capsys):
        code = main(["verify-linear", "--trials", "20", "--seed", "7"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["contracts_ok"] is True
        assert doc["narrative"]["trials"] == 20

    def test_silent_arm_rows_in_csv(self, tmp_path):
        """Every armA row of the changed-correlations export has |sigma2| < 1e-10."""
        path = tmp_path / "sec7.csv"
        assert main(["run", "sec7", "--t-max", "2", "--dt", "0.01", "--out", str(path)]) == 0
        rows = list(csv.reader(io.StringIO(path.read_text())))[1:]
        arm_a_rows = [row for row in rows if row[1] == "armA"]
        assert arm_a_rows
        assert all(abs(float(row[3])) < 1e-10 for row in arm_a_rows)

    def test_uncorrelated_json_divergence_field(self, tmp_path):
        path = tmp_path / "sec5.json"
        code = main(
            ["run", "sec5", "--t-max", "2", "--dt", "0.01", "--format", "json", "--out", str(path)]
        )
        assert code == 0
        assert json.loads(path.read_text())["divergence"] < 1e-10

    def test_usage_error_exit_one(self, capsys):
        assert main(["run", "sec6", "--p", "1.5"]) == 1
        assert "probability" in capsys.readouterr().err

    def test_degenerate_config_exit_one(self, capsys):
        assert main(["run", "sec6", "--p", "1.0", "--t-max", "1", "--dt", "0.1"]) == 1
        assert "mixture" in capsys.readouterr().err

    def test_unwritable_path_exit_one(self, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "out.csv"
        code = main(["run", "sec5", "--t-max", "1", "--dt", "0.1", "--out", str(target)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_list_exit_zero(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("sec3", "sec5", "sec6", "sec7", "sec8", "linear"):
            assert name in out

    def test_byte_identical_reruns(self, tmp_path):
        """Identical invocations produce byte-identical files."""
        args = ["run", "sec8", "--t-max", "2", "--dt", "0.01", "--format", "json"]
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("command", [["run", "sec3"], ["run", "linear"], ["verify-linear"]])
    def test_linear_suite_refuses_csv(self, command, tmp_path, capsys):
        """The linear suite has no trajectories, so a CSV would hold only its header."""
        path = tmp_path / "suite.csv"
        assert main(command + ["--format", "csv", "--out", str(path)]) == 1
        assert "--format json" in capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--t-max", "inf"], "t_max must be finite"),
            (["--t-max", "1e12", "--dt", "1"], "grid points"),
            (["--epsilon", "inf"], "epsilon must be finite"),
            (["--trials", "1000001"], "trials"),
            (["--epsilon", "1e308"], "precession angle"),
            (["--epsilon", "1e306", "--t-max", "1000", "--dt", "1"], "precession angle"),
        ],
        ids=[
            "t-max-inf",
            "grid-too-large",
            "epsilon-inf",
            "too-many-trials",
            "angle-overflow",
            "angle-overflow-at-t-max",
        ],
    )
    def test_bad_numbers_exit_one_before_any_work(self, flags, message, tmp_path, capsys):
        """Refused before the grid or the suite is allocated, with no warnings."""
        path = tmp_path / "out.csv"
        tracemalloc.start()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", "sec5", *flags, "--out", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not path.exists()
        assert peak < 1_000_000

    def test_negative_exponent_notation_is_a_number(self, tmp_path):
        """"--epsilon -1e-3" is the value -1e-3, not an unknown option."""
        args = ["run", "sec5", "--t-max", "1", "--dt", "0.1", "--out"]
        spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
        assert main([*args, str(spaced), "--epsilon", "-1e-3"]) == 0
        assert main([*args, str(joined), "--epsilon=-1e-3"]) == 0
        assert spaced.read_bytes() == joined.read_bytes()

    def test_precision_caps_emitted_digits(self, tmp_path):
        path = tmp_path / "out.csv"
        main(["run", "sec5", "--t-max", "1", "--dt", "0.1", "--precision", "6", "--out", str(path)])
        for line in path.read_text().splitlines()[1:]:
            for field in (line.split(",")[0], *line.split(",")[2:]):
                mantissa = field.split("e")[0].lstrip("-").replace(".", "")
                assert len(mantissa.lstrip("0")) <= 6
