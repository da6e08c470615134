"""Command-line parsing, report emission, exit codes, and determinism."""

import contextlib
import csv
import io
import json
import os
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import GivenPoints, assert_same_document
from spinpair import cli
from spinpair.cli import RunConfig, UsageError, emit_report, main, parse_args
from spinpair.scenarios import (
    MAX_ANGLE,
    MIN_CONTRAST,
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

    def test_precision_refusals_name_the_input(self):
        with pytest.raises(UsageError, match=r"invalid int value: '6\.5'"):
            parse_args(["run", "sec5", "--precision", "6.5"])
        with pytest.raises(UsageError, match=r"^precision must lie in \[6, 17\], got 18$"):
            parse_args(["run", "sec5", "--precision", "18"])

    def test_verify_linear_defaults_to_json(self):
        cfg = parse_args(["verify-linear", "--trials", "5"])
        assert cfg.command == "verify-linear"
        assert cfg.fmt == "json"
        assert cfg.config.trials == 5

    def test_parser_keeps_no_state_between_calls(self, monkeypatch):
        """The parser is built once, at import; flags given to one call do
        not leak into the next."""
        monkeypatch.setattr(cli, "build_parser", None)  # parse_args must not call it
        parse_args(["run", "sec8", "--basis", "diag", "--p", "0.3", "--precision", "6"])
        first_time = RunConfig("run", ScenarioId.ENTANGLEMENT, ScenarioConfig(), None, "csv", 12)
        assert parse_args(["run", "sec8"]) == first_time

    def test_list_command(self):
        assert parse_args(["list"]).command == "list"

    def test_missing_command_rejected(self):
        with pytest.raises(UsageError):
            parse_args([])


def tiny_report(passed=True):
    check = ContractCheck("made-up bound", 0.0 if passed else 1.0, 0.5)
    times = np.array([0.0, 0.5, 1.0])
    return ScenarioReport(
        ScenarioId.NO_CORRELATIONS,
        ScenarioConfig(t_max=1, dt=0.5),  # an int, as a library caller may pass
        times,
        {"armA": GivenPoints(times, np.zeros((3, 3))), "armB": GivenPoints(times, np.full((3, 3), 0.25))},
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
            rows[:3], report.times, report.arms["armA"].rows()
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
        assert doc["schema_version"] == 2
        assert doc["times"] == [0.0, 0.5, 1.0]
        assert list(doc["arms"]["armA"]) == ["points"]
        assert len(doc["arms"]["armA"]["points"]) == 3
        assert doc["divergence"] == 0.25
        assert isinstance(doc["config"]["t_max"], float)
        assert doc["narrative"]["description"] == "fixture"
        assert doc["contracts_ok"] is True

    def test_failed_contract_returns_two(self, tmp_path):
        path = tmp_path / "out.csv"
        assert emit_report(tiny_report(passed=False), run_config(str(path))) == 2


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
        assert doc["schema_version"] == 2 and "times" not in doc  # no arms, no grid

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
        doc = json.loads(path.read_text())
        assert doc["divergence"] < 1e-10
        assert doc["checks"][-1]["name"] == "linear control" and doc["checks"][-1]["passed"] is True

    def test_usage_error_exit_one(self, capsys):
        assert main(["run", "sec6", "--p", "1.5"]) == 1
        assert "probability" in capsys.readouterr().err

    def test_degenerate_config_exit_one(self, capsys):
        assert main(["run", "sec6", "--p", "1.0", "--t-max", "1", "--dt", "0.1"]) == 1
        assert "mixture" in capsys.readouterr().err

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
        assert_same_document(first.read_bytes(), second.read_bytes())

    @pytest.mark.parametrize("command", [["run", "sec3"], ["run", "linear"], ["verify-linear"]])
    def test_linear_suite_refuses_csv(self, command, tmp_path, capsys):
        """The linear suite has no trajectories, so a CSV would hold only its header."""
        path = tmp_path / "suite.csv"
        assert main(command + ["--format", "csv", "--out", str(path)]) == 1
        assert "--format json" in capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["sec5", "--t-max", "inf"], "t_max must be finite"),
            (["sec5", "--t-max", "1e12", "--dt", "1"], "grid points"),
            (["sec5", "--epsilon", "inf"], "epsilon must be finite"),
            (["sec5", "--trials", "1000001"], "trials"),
            (["sec5", "--epsilon", "1e308"], "precession angle"),
            (["sec5", "--epsilon", "1e306", "--t-max", "1000", "--dt", "1"], "precession angle"),
            (["sec8", "--epsilon", "1048577", "--t-max", "8", "--dt", "0.01"], "exceeds the cap"),
            (["sec5", "--epsilon", "-inf"], "epsilon must be finite"),
            (["sec5", "--p", "-nan"], "p must be finite"),
            (["sec5", "--seed", "-1"], "seed must be an integer >= 0"),
            (["sec6", "--epsilon", "0"], "epsilon 0 stops the precession"),
            (["sec6", "--epsilon", "-0"], "epsilon 0 stops the precession"),
            (["sec5", "--t-max", "1", "--dt", "2"], "dt (2.0) must not exceed t_max (1.0)"),
        ],
        ids=[
            "t-max-inf",
            "grid-too-large",
            "epsilon-inf",
            "too-many-trials",
            "angle-overflow",
            "angle-overflow-at-t-max",
            "angle-over-the-cap",
            "epsilon-minus-inf",
            "p-minus-nan",
            "negative-seed",
            "sec6-epsilon-zero",
            "sec6-epsilon-minus-zero",
            "dt-past-t-max",
        ],
    )
    def test_bad_numbers_exit_one_before_any_work(self, args, message, tmp_path, capsys):
        """Refused before the grid or the suite is allocated, with no warnings."""
        path = tmp_path / "out.csv"
        tracemalloc.start()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", *args, "--out", str(path)])
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
        assert_same_document(spaced.read_bytes(), joined.read_bytes())

    def test_precision_caps_emitted_digits(self, tmp_path):
        path = tmp_path / "out.csv"
        main(["run", "sec5", "--t-max", "1", "--dt", "0.1", "--precision", "6", "--out", str(path)])
        for line in path.read_text().splitlines()[1:]:
            for field in (line.split(",")[0], *line.split(",")[2:]):
                mantissa = field.split("e")[0].lstrip("-").replace(".", "")
                assert len(mantissa.lstrip("0")) <= 6


def refusal_expected(scenario, p, epsilon, t_max, dt, precision):
    """Whether a command line with these values must end in exit 1: the
    refusal rules, written out apart from the parser, ScenarioConfig and
    run_scenario."""
    if not 6 <= precision <= 17:
        return True
    if not 0.0 <= p <= 1.0 or t_max <= 0.0 or dt <= 0.0 or dt > t_max:
        return True
    if 2.0 * abs(epsilon) * t_max > MAX_ANGLE:
        return True
    # sec6 needs a contrast that rounding cannot erase: a mixture and a precession
    contrast = (1.0 - (2.0 * p - 1.0) ** 2) * min(1.0, 2.0 * abs(epsilon) * t_max)
    return scenario == "sec6" and contrast <= MIN_CONTRAST


# |epsilon| from the smallest subnormal up, either sign
SIGNED = st.one_of(st.floats(5e-324, 1e-3), st.floats(1e-3, 4e6)).flatmap(lambda x: st.sampled_from([x, -x]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    scenario=st.sampled_from(["sec5", "sec6", "sec7", "sec8"]),
    p=st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), st.sampled_from([0.0, 1.0, -0.25, 1.25])),
    epsilon=st.one_of(SIGNED, st.sampled_from([0.0, -0.0, 5e6, -5e6])),
    t_max=st.one_of(st.floats(0.01, 2.0), st.sampled_from([0.0, -1.0])),
    dt=st.one_of(st.floats(0.01, 1.0), st.sampled_from([0.0, -0.1, 2.5])),
    basis=st.sampled_from([b.value for b in BasisChoice]),
    fmt=st.sampled_from(["csv", "json"]),
    precision=st.one_of(st.integers(6, 17), st.sampled_from([5, 18])),
)
@example("sec5", 0.75, 1.0, 1.0, 2.0, "updown", "csv", 12)  # dt past t_max
@example("sec6", 0.5, -(2.0**22), 2.0, 0.5, "diag", "json", 17)  # at the angle cap
@example("sec6", 0.75, -0.0, 1.0, 0.1, "updown", "csv", 12)  # no precession, no contrast
@example("sec6", 1.0, 1.0, 1.0, 0.1, "updown", "json", 12)  # no mixture, no contrast
@example("sec7", 1.0, 0.0, 1.0, 0.1, "updown", "csv", 12)  # p and epsilon 0 are fine elsewhere
@example("sec8", 0.5, -5e-324, 1.0, 0.1, "diag", "json", 17)  # a subnormal epsilon is fine elsewhere
def test_every_small_config_exits_zero_or_is_refused(scenario, p, epsilon, t_max, dt, basis, fmt, precision):
    """Through main, an accepted config writes its report and exits 0; a
    refused one exits 1 with a one-line message and leaves no file, not
    even a temporary one, in the --out directory."""
    argv = [
        "run", scenario, "--p", repr(p), "--epsilon", repr(epsilon), "--t-max", repr(t_max),
        "--dt", repr(dt), "--basis", basis, "--format", fmt, "--precision", str(precision),
    ]
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, f"report.{fmt}")
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([*argv, "--out", path])
        if refusal_expected(scenario, p, epsilon, t_max, dt, precision):
            assert code == 1
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            assert os.listdir(folder) == []
        else:
            assert code == 0, err.getvalue()
            assert err.getvalue() == ""
            assert os.listdir(folder) == [f"report.{fmt}"]


@pytest.mark.parametrize(
    "args",
    [
        ["--p", "1e-17", "--t-max", "1", "--dt", "0.1"],
        ["--p", "0.5", "--epsilon", "5e-324", "--t-max", "1", "--dt", "0.1"],
        [
            "--p", "0.9999999999999999", "--epsilon", "-9.949794061113311e-08",
            "--t-max", "0.016025941075185724", "--dt", "0.008012970537592862",
        ],
    ],
    # 2p - 1 rounds to -1, so both arms start from one Bloch vector; every
    # precession angle underflows; the arms differ by less than their rounding
    ids=["p-within-rounding-of-zero", "subnormal-epsilon", "arms-within-rounding"],
)
def test_sec6_refuses_a_contrast_that_rounding_erases(args, capsys):
    """A config whose contrast is lost to rounding would fail its "divergence
    is strictly positive" contract with exit 2; it is refused with exit 1,
    like p in {0, 1} and epsilon 0."""
    assert main(["run", "sec6", *args, "--out", os.devnull]) == 1
    assert "rounding would erase it" in capsys.readouterr().err
