"""Scenario table: contracts, cross-scenario consistency, linearity restoration.

Expected waveforms are recomputed locally from their closed forms; every
SPECS entry must reproduce them through the ensemble/measurement machinery.
"""

import importlib
import json
import math
import os
import random
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import assert_computed_ensemble
from spinpair import cli, dynamics_nonlinear, measurement, scenarios
from spinpair.cli import BY_NAME, main
from spinpair.dynamics_nonlinear import ROWS, time_grid
from spinpair.scenarios import (
    KEEP_BYTES,
    MAX_ANGLE,
    MAX_GRID_POINTS,
    MAX_TRIALS,
    MIN_CONTRAST,
    SPECS,
    BasisChoice,
    ContractCheck,
    DegenerateConfigError,
    ScenarioConfig,
    ScenarioId,
    run_scenario,
)
from spinpair.measurement import MeasurementBasis
from spinpair.states import Branch, Ensemble

SQRT2 = np.sqrt(2.0)

# Short grid keeps unit tests fast; the acceptance suite runs the defaults.
FAST = ScenarioConfig(t_max=4.0, dt=1e-3)

# The grid end of the cap run, t_max = 1000 at the default dt, and the
# largest |epsilon| the angle cap accepts there.
LONGEST_T_MAX = 1000.0
LONGEST_EPSILON_CAP = MAX_ANGLE / (2.0 * LONGEST_T_MAX)

# sec8 keeps three trajectories that vary, the diag arm and its two
# outcomes, 24 bytes a row each: grids of at most KEPT_POINTS points fit.
KEPT_POINTS = KEEP_BYTES // (3 * 24)

# Every entry that contrasts two trajectories, read from the table itself.
NONLINEAR = [scenario for scenario, spec in SPECS.items() if spec.arms]
NONLINEAR_IDS = [SPECS[scenario].name for scenario in NONLINEAR]


def mixture_s2(p, eps, times):
    return ((2.0 * p - 1.0) / SQRT2) * np.sin(SQRT2 * (2.0 * p - 1.0) * eps * times)


def pure_s2(eps, times):
    return np.sin(SQRT2 * eps * times) / SQRT2


class TestScenarioConfig:
    def test_defaults(self):
        cfg = ScenarioConfig()
        assert cfg.p == 0.75
        assert cfg.epsilon == 1.0
        assert cfg.basis_choice is BasisChoice.UPDOWN

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ScenarioConfig(p=1.2)
        with pytest.raises(ValueError):
            ScenarioConfig(dt=0.0)
        with pytest.raises(ValueError):
            ScenarioConfig(t_max=-1.0)
        with pytest.raises(ValueError):
            ScenarioConfig(trials=0)

    def test_rejects_a_step_longer_than_the_grid(self):
        """A step past t_max is refused by the config, before any grid is
        built."""
        assert ScenarioConfig(t_max=1, dt=1).dt == 1.0  # two points: 0 and t_max
        with pytest.raises(ValueError, match=r"dt \(2\.0\) must not exceed t_max \(1\.0\)"):
            ScenarioConfig(t_max=1, dt=2)
        with pytest.raises(ValueError, match="must not exceed t_max"):
            ScenarioConfig(t_max=1.0, dt=np.nextafter(1.0, 2.0))

    @pytest.mark.parametrize("name", ["p", "epsilon", "t_max", "dt"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_values(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ScenarioConfig(**{name: value})

    def test_grid_cap_is_exact(self):
        """The cap counts points the way time_grid does: t_max = 1000 at the
        default dt is the largest grid allowed."""
        assert MAX_GRID_POINTS == 1_000_001
        ScenarioConfig(t_max=1000.0, dt=1e-3)
        with pytest.raises(ValueError, match="grid points"):
            ScenarioConfig(t_max=1000.0005, dt=1e-3)
        with pytest.raises(ValueError, match="grid points"):
            ScenarioConfig(t_max=1e12, dt=1.0)
        with pytest.raises(ValueError, match="grid points"):
            ScenarioConfig(t_max=1e300, dt=1e-300)

    def test_rejects_an_overflowing_precession_angle(self):
        """2 * |epsilon| * t_max bounds every angle the precession reaches."""
        assert MAX_ANGLE == 2.0**24
        ScenarioConfig(epsilon=-np.nextafter(2.0**20, 0.0), t_max=8.0)  # just under the cap
        ScenarioConfig(epsilon=-(2.0**20), t_max=8.0)  # at the cap
        with pytest.raises(ValueError, match="precession angle .* exceeds the cap 16777216.0"):
            ScenarioConfig(epsilon=-np.nextafter(2.0**20, np.inf), t_max=8.0)
        with pytest.raises(ValueError, match="precession angle"):
            ScenarioConfig(epsilon=1e308)
        with pytest.raises(ValueError, match="precession angle"):
            ScenarioConfig(epsilon=-1e306, t_max=1000.0, dt=1.0)

    def test_trials_cap(self):
        ScenarioConfig(trials=1)
        ScenarioConfig(trials=MAX_TRIALS)
        with pytest.raises(ValueError, match="trials"):
            ScenarioConfig(trials=MAX_TRIALS + 1)

    @pytest.mark.parametrize("value", [2.5, 3.0, "3", True])
    def test_rejects_a_trial_count_that_is_not_an_integer(self, value):
        with pytest.raises(ValueError, match="trials must be an integer"):
            ScenarioConfig(trials=value)

    def test_seed_zero_is_accepted(self):
        assert ScenarioConfig(seed=0).seed == 0

    @pytest.mark.parametrize("value", [-1, 1.5, None])
    def test_rejects_a_seed_that_is_not_a_non_negative_integer(self, value):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            ScenarioConfig(seed=value)


class TestContractCheck:
    def test_comparisons(self):
        assert ContractCheck("a", 1e-12, 1e-10).passed
        assert not ContractCheck("a", 1e-9, 1e-10).passed
        assert ContractCheck("b", 0.5, 0.0, ">").passed
        assert not ContractCheck("b", 0.0, 0.0, ">").passed


class TestLinearBaseline:
    def test_contracts_hold(self):
        report = run_scenario(ScenarioId.LINEAR_BASELINE, ScenarioConfig(trials=200, seed=42))
        assert report.scenario is ScenarioId.LINEAR_BASELINE
        assert report.contracts_ok
        assert report.divergence < 1e-10
        assert report.arms == {}
        assert report.times is None

    def test_deterministic_given_seed(self):
        cfg = ScenarioConfig(trials=50, seed=11)
        first = run_scenario(ScenarioId.LINEAR_BASELINE, cfg)
        second = run_scenario(ScenarioId.LINEAR_BASELINE, cfg)
        assert first.divergence == second.divergence
        assert first.narrative == second.narrative


class TestNoCorrelations:
    def test_both_arms_follow_the_mixture_solution(self):
        report = run_scenario(ScenarioId.NO_CORRELATIONS, FAST)
        times = report.times
        expected = mixture_s2(FAST.p, FAST.epsilon, times)
        assert np.max(np.abs(report.arms["armA"].rows()[:, 1] - expected)) < 1e-8
        assert np.max(np.abs(report.arms["armB"].rows()[:, 1] - expected)) < 1e-8
        assert report.divergence < 1e-10
        assert report.contracts_ok

    def test_balanced_mixture_is_silent(self):
        report = run_scenario(ScenarioId.NO_CORRELATIONS, ScenarioConfig(p=0.5, t_max=2.0, dt=1e-2))
        for arm in report.arms.values():
            assert np.max(np.abs(arm.rows()[:, 1])) < 1e-12

    def test_pure_limit_reaches_full_amplitude(self):
        report = run_scenario(ScenarioId.NO_CORRELATIONS, ScenarioConfig(p=1.0, t_max=2.0, dt=1e-3))
        times = report.times
        expected = pure_s2(1.0, times)
        assert np.max(np.abs(report.arms["armA"].rows()[:, 1] - expected)) < 1e-8

    def test_narrative_records_outcomes(self):
        report = run_scenario(ScenarioId.NO_CORRELATIONS, FAST)
        assert report.narrative["p"] == FAST.p
        assert "per_outcome_trajectories" in report.narrative


class TestClassicalCorrelations:
    @pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
    def test_measured_arm_is_independent_of_p(self, p):
        """armA follows the full-amplitude pure solution whatever p is."""
        report = run_scenario(ScenarioId.CLASSICAL_CORRELATIONS, ScenarioConfig(p=p, t_max=4.0, dt=1e-3))
        times = report.times
        assert np.max(np.abs(report.arms["armA"].rows()[:, 1] - pure_s2(1.0, times))) < 1e-8

    def test_divergence_from_uncorrelated_baseline(self):
        report = run_scenario(ScenarioId.CLASSICAL_CORRELATIONS, FAST)
        assert report.contracts_ok
        assert report.divergence > 0.3

    def test_both_outcomes_yield_the_same_trajectory(self):
        """One arm is measured, and its outcomes are keyed by that arm as
        they are when both arms are."""
        report = run_scenario(ScenarioId.CLASSICAL_CORRELATIONS, FAST)
        assert list(report.narrative["outcomes"]) == ["armA"]
        per = report.narrative["per_outcome_trajectories"]
        assert set(per) == {"armA/outcome0", "armA/outcome1"}
        assert np.max(np.abs(per["armA/outcome0"].rows()[:, 1] - per["armA/outcome1"].rows()[:, 1])) < 1e-12

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_degenerate_weight_rejected(self, p):
        with pytest.raises(DegenerateConfigError):
            run_scenario(ScenarioId.CLASSICAL_CORRELATIONS, ScenarioConfig(p=p))

    def test_contrast_at_the_rounding_floor_rejected(self):
        """At p = 1/2 the contrast is the largest angle 2 * |epsilon| * t_max:
        refused at MIN_CONTRAST, run with positive divergence just above it."""
        at_floor = ScenarioConfig(epsilon=-MIN_CONTRAST / 2.0, p=0.5, t_max=1.0, dt=0.1)
        with pytest.raises(DegenerateConfigError, match="rounding would erase it"):
            run_scenario(ScenarioId.CLASSICAL_CORRELATIONS, at_floor)
        above = ScenarioConfig(epsilon=-MIN_CONTRAST, p=0.5, t_max=1.0, dt=0.1)
        report = run_scenario(ScenarioId.CLASSICAL_CORRELATIONS, above)
        assert report.contracts_ok and report.divergence > 0.0

    def test_pure_limit_consistency_with_uncorrelated_scenario(self):
        """The measured correlated arm equals the uncorrelated scenario run at
        p = 1: collapsing onto one branch is the pure-state limit."""
        measured = run_scenario(ScenarioId.CLASSICAL_CORRELATIONS, FAST)
        pure_limit = run_scenario(ScenarioId.NO_CORRELATIONS, ScenarioConfig(p=1.0, t_max=4.0, dt=1e-3))
        gap = np.max(np.abs(measured.arms["armA"].rows()[:, 1] - pure_limit.arms["armA"].rows()[:, 1]))
        assert gap < 1e-8


class TestChangedCorrelations:
    def test_contracts_hold(self):
        report = run_scenario(ScenarioId.CHANGED_CORRELATIONS, FAST)
        assert report.contracts_ok
        times = report.times
        assert np.max(np.abs(report.arms["armA"].rows()[:, 1])) < 1e-10
        assert np.max(np.abs(report.arms["armB"].rows()[:, 1] - pure_s2(1.0, times))) < 1e-8

    def test_preparations_share_the_reduced_state(self):
        report = run_scenario(ScenarioId.CHANGED_CORRELATIONS, FAST)
        assert report.narrative["reduced_density_gap"] < 1e-12
        assert report.narrative["composite_density_gap"] > 0.1

    def test_divergence_reaches_the_envelope(self):
        """A grid covering a quarter period puts the divergence at 1/sqrt(2)."""
        report = run_scenario(ScenarioId.CHANGED_CORRELATIONS, FAST)
        assert report.divergence == pytest.approx(1.0 / SQRT2, abs=1e-6)


class TestEntanglement:
    def test_contracts_hold(self):
        report = run_scenario(ScenarioId.ENTANGLEMENT, FAST)
        assert report.contracts_ok
        times = report.times
        assert np.max(np.abs(report.arms["armA"].rows()[:, 1])) < 1e-10
        assert np.max(np.abs(report.arms["armB"].rows()[:, 1] - pure_s2(1.0, times))) < 1e-8

    def test_outcome_probabilities_are_half(self):
        report = run_scenario(ScenarioId.ENTANGLEMENT, FAST)
        for arm in ("armA", "armB"):
            for outcome in report.narrative["outcomes"][arm]:
                assert outcome["probability"] == pytest.approx(0.5, abs=1e-12)

    def test_signal_magnitude(self):
        report = run_scenario(ScenarioId.ENTANGLEMENT, FAST)
        assert report.divergence == pytest.approx(1.0 / SQRT2, abs=1e-6)

    def test_basis_choice_feature_flag(self):
        updown = run_scenario(ScenarioId.ENTANGLEMENT, ScenarioConfig(t_max=1.0, dt=0.1))
        diag = run_scenario(
            ScenarioId.ENTANGLEMENT,
            ScenarioConfig(t_max=1.0, dt=0.1, basis_choice=BasisChoice.DIAG),
        )
        assert updown.narrative["featured_arm"] == "armA"
        assert diag.narrative["featured_arm"] == "armB"

    def test_diag_arm_matches_changed_correlations_arm(self):
        """The post-measurement branch sets agree up to remote labels, so the
        trajectories coincide."""
        entangled = run_scenario(ScenarioId.ENTANGLEMENT, FAST)
        classical = run_scenario(ScenarioId.CHANGED_CORRELATIONS, FAST)
        gap = np.max(np.abs(entangled.arms["armB"].rows()[:, 1] - classical.arms["armB"].rows()[:, 1]))
        assert gap < 1e-8


class TestSpecTable:
    """Properties of every nonlinear SPECS entry over random off-default configs."""

    @pytest.mark.parametrize("scenario", NONLINEAR, ids=NONLINEAR_IDS)
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        p=st.floats(0.05, 0.95),
        # either sign, up to the largest |epsilon| the angle cap allows at t_max
        epsilon=st.one_of(st.floats(0.25, LONGEST_EPSILON_CAP), st.floats(-LONGEST_EPSILON_CAP, -0.25)),
    )
    @example(p=0.75, epsilon=LONGEST_EPSILON_CAP)
    @example(p=0.05, epsilon=-LONGEST_EPSILON_CAP)
    def test_contracts_hold(self, scenario, p, epsilon):
        """At the longest grid the cap allows, on a coarse step (1,001 points),
        the contracts hold up to the angle cap: no rounding reaches a bound."""
        cfg = ScenarioConfig(p=p, epsilon=epsilon, t_max=LONGEST_T_MAX, dt=1.0)
        report = run_scenario(scenario, cfg)
        assert report.checks[-1].name == "linear control"
        assert report.contracts_ok, [check for check in report.checks if not check.passed]

    @pytest.mark.parametrize("scenario", NONLINEAR, ids=NONLINEAR_IDS)
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        p=st.floats(0.05, 0.95),
        # either sign, up to the largest |epsilon| the angle cap allows at t_max 2
        epsilon=st.one_of(st.floats(0.25, MAX_ANGLE / 4.0), st.floats(-MAX_ANGLE / 4.0, -0.25)),
        basis=st.sampled_from(BasisChoice),
    )
    @example(p=0.75, epsilon=1.0, basis=BasisChoice.UPDOWN)
    @example(p=0.05, epsilon=-MAX_ANGLE / 4.0, basis=BasisChoice.DIAG)
    def test_linear_control_restores_linearity(self, scenario, p, epsilon, basis):
        """With a state-independent precession the arms cannot be told apart:
        the `linear control` check of a JSON export holds."""
        argv = [
            "run", SPECS[scenario].name, "--p", repr(p), "--epsilon", repr(epsilon),
            "--t-max", "2", "--dt", "0.01", "--basis", basis.value, "--format", "json",
        ]
        with tempfile.TemporaryDirectory() as folder:
            path = os.path.join(folder, "report.json")
            assert main([*argv, "--out", path]) == 0
            with open(path, encoding="utf-8") as handle:
                checks = json.load(handle)["checks"]
        assert checks[-1]["name"] == "linear control"
        assert checks[-1]["value"] <= 1e-10 and checks[-1]["passed"] is True
        assert (checks[-1]["bound"], checks[-1]["comparison"]) == (1e-10, "<=")


class TestRunScenario:
    def test_dispatch_covers_every_id(self):
        cfg = ScenarioConfig(t_max=1.0, dt=0.1, trials=5)
        for scenario in ScenarioId:
            report = run_scenario(scenario, cfg)
            assert report.scenario is scenario

    def test_arms_share_the_grid(self):
        cfg = ScenarioConfig(t_max=1.0, dt=0.1)
        for scenario in NONLINEAR:
            report = run_scenario(scenario, cfg)
            grid = time_grid(cfg.t_max, cfg.dt)
            np.testing.assert_array_equal(report.times, grid)
            for arm in report.arms.values():
                assert arm.times is report.times
                assert arm.rows().shape == (grid.size, 3)
            assert report.divergence >= 0.0

    @pytest.mark.parametrize(
        "slot, failed",
        [
            (0, "signal magnitude matches the solution envelope"),  # the divergence
            (2, "linear control"),
            (3, "updown arm second component is zero"),
            (4, "diag arm matches the pure-state solution"),
        ],
    )
    def test_a_nan_in_a_later_chunk_fails_its_check(self, slot, failed):
        """The checks read maxima over the chunks; a NaN in the last chunk
        of a two-chunk grid reaches its check and fails it."""
        chunk_gaps = scenarios._chunk_gaps

        def poisoned(spec, cfg, times, arms, controls, start, kept):
            gaps = list(chunk_gaps(spec, cfg, times, arms, controls, start, kept))
            if start + ROWS >= times.size:
                gaps[slot] = math.nan
            return tuple(gaps)

        with mock.patch.object(scenarios, "_chunk_gaps", poisoned):
            report = run_scenario(ScenarioId.ENTANGLEMENT, ScenarioConfig(t_max=ROWS, dt=1.0))
        assert report.times.size == ROWS + 1
        assert [check.name for check in report.checks if not check.passed] == [failed]

    def test_a_report_retains_one_grid(self):
        """A report stores the time grid, 8 bytes per grid point, and closed
        forms: every trajectory, in the arms and in the narrative, shares
        that grid and holds no point array. On a grid whose rows exceed
        KEEP_BYTES, as these do, it keeps no rows either: what a sec8 run
        keeps is the grid and a fixed allowance, and so is its peak. The
        checks evaluate the arms a chunk of ROWS rows at a time, which took
        1.0 MiB at these sizes; the allowance is twice that."""
        allowance = 2**21
        for t_max in (100.0, 400.0):
            cfg = ScenarioConfig(t_max=t_max)
            points = time_grid(cfg.t_max, cfg.dt).size
            tracemalloc.start()
            try:
                report = run_scenario(ScenarioId.ENTANGLEMENT, cfg)
                retained, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert retained <= 8 * points + allowance
            assert peak <= 8 * points + allowance
            trajectories = [*report.arms.values(), *report.narrative["per_outcome_trajectories"].values()]
            assert len(trajectories) == 6
            assert all(trajectory.times is report.times for trajectory in trajectories)
            assert report.times.nbytes == 8 * points
            assert report.kept == {}

    @pytest.mark.parametrize(
        "points, evaluated_again", [(ROWS, False), (KEPT_POINTS, False), (KEPT_POINTS + 1, True)]
    )
    def test_a_grid_within_the_budget_is_evaluated_once(self, points, evaluated_again):
        """The report keeps the rows the checks evaluate when the rows of its
        trajectories that vary fit KEEP_BYTES: the CSV export then evaluates
        no rotation again. A longer grid keeps none. Either way the CSV has
        the bytes of a run that keeps nothing."""
        cfg = ScenarioConfig(t_max=points - 1, dt=1.0)
        calls = []

        def counted(*args):
            calls.append(args)
            return rotation_points(*args)

        def written(report):
            parts = []
            cli._render_csv(report, 12)(lambda data: parts.append(bytes(data)))  # bytes() refuses a str
            return b"".join(parts)

        rotation_points = dynamics_nonlinear._rotation_points
        with mock.patch.object(dynamics_nonlinear, "_rotation_points", counted):
            report = run_scenario(ScenarioId.ENTANGLEMENT, cfg)
            evaluated = len(calls)
            text = written(report)
        assert report.times.size == points and evaluated > 0
        assert (len(calls) > evaluated) is evaluated_again
        assert bool(report.kept) is not evaluated_again
        with mock.patch.object(scenarios, "KEEP_BYTES", 0):
            assert written(run_scenario(ScenarioId.ENTANGLEMENT, cfg)) == text

    @pytest.mark.parametrize(
        "name, checks, again", [("sec5", 6, 9), ("sec6", 12, 15), ("sec7", 9, 12), ("sec8", 9, 12)]
    )
    def test_each_chunk_takes_its_cos_and_sin_once_per_command(self, name, checks, again):
        """On the default grid of three chunks the checks take one cos/sin
        pair per distinct rate and chunk, and the JSON export, which reads the
        rows they kept, takes none. With nothing kept (KEEP_BYTES 0) the
        export evaluates every arm and outcome again: `again` pairs."""
        counted = []

        class CountingNumpy:  # numpy as dynamics_nonlinear sees it, with its cos calls counted
            def __getattr__(self, attr):
                return getattr(np, attr)

            def cos(self, angles):
                counted.append(angles.size)
                return np.cos(angles)

        counting = mock.patch.object(dynamics_nonlinear, "np", CountingNumpy())
        for budget, exported in ((KEEP_BYTES, 0), (0, again)):
            with counting, mock.patch.object(scenarios, "KEEP_BYTES", budget):
                report = run_scenario(BY_NAME[name], ScenarioConfig())
                evaluated = len(counted)
                cli._render_json(report, 12)(memoryview)
            assert (evaluated, len(counted) - evaluated) == (checks, exported)
            # each chunk takes the same rates: a third of the pairs cover the grid
            assert sum(counted) == (checks + exported) // 3 * report.times.size
            counted.clear()


class TestSharedState:
    """The fixed states, preparations and bases are built once, at import, and
    every command shares them; nothing a command can change lives on."""

    MODULES = ("qmath", "states", "measurement", "dynamics_nonlinear", "dynamics_linear", "scenarios", "cli")
    SHARED = {
        "qmath": ("PAULI", "IDENTITY_2"),
        "states": ("UP", "DOWN", "DIAG_PLUS", "DIAG_MINUS", "SINGLET"),
        "scenarios": (
            "UPDOWN_PREPARATION", "DIAG_PREPARATION", "SINGLET_PREPARATION", "MARKER_BASIS", "DIAG_BASIS",
        ),
    }

    def test_every_module_level_array_is_read_only(self):
        arrays = []  # (the module-level name that holds the array, the array)
        for name in self.MODULES:
            module = importlib.import_module(f"spinpair.{name}")
            for attr, value in vars(module).items():
                owner = f"{name}.{attr}"
                if isinstance(value, np.ndarray):
                    arrays.append((owner, value))
                elif isinstance(value, MeasurementBasis):
                    arrays += [(owner, effect) for effect in (*value.projectors, value.embedded)]
                elif isinstance(value, Ensemble):
                    arrays += [(owner, branch.vector) for branch in value.branches]
        shared = {f"{name}.{attr}" for name, attrs in self.SHARED.items() for attr in attrs}
        assert shared <= {owner for owner, _ in arrays}
        assert [owner for owner, array in arrays if array.flags.writeable] == []

    def test_commands_write_the_same_bytes_in_any_order(self, tmp_path):
        """A sweep of small CSV runs, and two JSON runs, through one interpreter
        twice, in two different orders: every argv writes the same bytes both
        times, so no command leaves state behind that the next one reads."""
        rng = random.Random(11)
        variants = [["sec5"], ["sec6"], ["sec7"], ["sec8", "--basis", "updown"], ["sec8", "--basis", "diag"]]
        pool = [
            ("run", *variant, "--t-max", "10", "--dt", "0.1",
             "--p", f"{rng.uniform(0.05, 0.95):.6f}", "--epsilon", f"{rng.uniform(0.25, 4.0):.6f}")
            for variant in variants * 4
        ]
        pool += [("run", "sec7", "--format", "json", "--t-max", "2"), ("run", "sec8", "--format", "json", "--t-max", "2")]
        rng.shuffle(pool)
        path = tmp_path / "out"
        written = []
        for order in (pool, pool[::-1]):
            outputs = {}
            for argv in order:
                assert main([*argv, "--out", str(path)]) == 0
                outputs[argv] = path.read_bytes()
            written.append(outputs)
        assert written[0] == written[1]

    @pytest.mark.parametrize(
        "variant", [["sec5"], ["sec6"], ["sec7"], ["sec8", "--basis", "updown"], ["sec8", "--basis", "diag"]]
    )
    def test_computed_states_skip_the_constructor_checks(self, variant, tmp_path, monkeypatch):
        """A 101-point command, after import, checks in Branch.__post_init__
        and Ensemble.__post_init__ only the preparations it builds from its
        config: none of the branches or ensembles measurement._collapse
        returns. Each of those still passes the constructors' checks, here
        in the oracle."""
        checked, collapsed = [], []  # held, so no id is reused

        def spy(post_init):
            def checking(self):
                checked.append(self)
                post_init(self)
            return checking

        def collapse(ensemble, embedded, _collapse=measurement._collapse):
            collapsed.append(_collapse(ensemble, embedded))
            return collapsed[-1]

        for cls in (Branch, Ensemble):
            monkeypatch.setattr(cls, "__post_init__", spy(cls.__post_init__))
        monkeypatch.setattr(measurement, "_collapse", collapse)
        argv = ["run", *variant, "--t-max", "10", "--dt", "0.1", "--p", "0.3", "--epsilon", "1.5", "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        assert collapsed  # every contrast measures the remote spin in one arm at least
        seen = {id(value) for value in checked}
        for ensemble in collapsed:
            assert_computed_ensemble(ensemble)
            assert seen.isdisjoint(map(id, (ensemble, *ensemble.branches)))
