"""Scenario table: contracts, cross-scenario consistency, linearity restoration.

Expected waveforms are recomputed locally from their closed forms; every
SPECS entry must reproduce them through the ensemble/measurement machinery.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinpair.dynamics_nonlinear import fixed_rate, time_grid
from spinpair.scenarios import (
    MAX_GRID_POINTS,
    MAX_TRIALS,
    SPECS,
    BasisChoice,
    ContractCheck,
    DegenerateConfigError,
    ScenarioConfig,
    ScenarioId,
    run_scenario,
)

SQRT2 = np.sqrt(2.0)

# Short grid keeps unit tests fast; the acceptance suite runs the defaults.
FAST = ScenarioConfig(t_max=4.0, dt=1e-3)

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
        ScenarioConfig(epsilon=-5e306, t_max=10.0)
        with pytest.raises(ValueError, match="precession angle"):
            ScenarioConfig(epsilon=1e308)
        with pytest.raises(ValueError, match="precession angle"):
            ScenarioConfig(epsilon=-1e306, t_max=1000.0, dt=1.0)

    def test_trials_cap(self):
        ScenarioConfig(trials=MAX_TRIALS)
        with pytest.raises(ValueError, match="trials"):
            ScenarioConfig(trials=MAX_TRIALS + 1)


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

    def test_deterministic_given_seed(self):
        cfg = ScenarioConfig(trials=50, seed=11)
        first = run_scenario(ScenarioId.LINEAR_BASELINE, cfg)
        second = run_scenario(ScenarioId.LINEAR_BASELINE, cfg)
        assert first.divergence == second.divergence
        assert first.narrative == second.narrative


class TestNoCorrelations:
    def test_both_arms_follow_the_mixture_solution(self):
        report = run_scenario(ScenarioId.NO_CORRELATIONS, FAST)
        times = report.arms["armA"].times
        expected = mixture_s2(FAST.p, FAST.epsilon, times)
        assert np.max(np.abs(report.arms["armA"].sigma2 - expected)) < 1e-8
        assert np.max(np.abs(report.arms["armB"].sigma2 - expected)) < 1e-8
        assert report.divergence < 1e-10
        assert report.contracts_ok

    def test_balanced_mixture_is_silent(self):
        report = run_scenario(ScenarioId.NO_CORRELATIONS, ScenarioConfig(p=0.5, t_max=2.0, dt=1e-2))
        for arm in report.arms.values():
            assert np.max(np.abs(arm.sigma2)) < 1e-12

    def test_pure_limit_reaches_full_amplitude(self):
        report = run_scenario(ScenarioId.NO_CORRELATIONS, ScenarioConfig(p=1.0, t_max=2.0, dt=1e-3))
        times = report.arms["armA"].times
        expected = pure_s2(1.0, times)
        assert np.max(np.abs(report.arms["armA"].sigma2 - expected)) < 1e-8

    def test_narrative_records_outcomes(self):
        report = run_scenario(ScenarioId.NO_CORRELATIONS, FAST)
        assert report.narrative["p"] == FAST.p
        assert "per_outcome_trajectories" in report.narrative


class TestClassicalCorrelations:
    @pytest.mark.parametrize("p", [0.25, 0.5, 0.75])
    def test_measured_arm_is_independent_of_p(self, p):
        """armA follows the full-amplitude pure solution whatever p is."""
        report = run_scenario(ScenarioId.CLASSICAL_CORRELATIONS, ScenarioConfig(p=p, t_max=4.0, dt=1e-3))
        times = report.arms["armA"].times
        assert np.max(np.abs(report.arms["armA"].sigma2 - pure_s2(1.0, times))) < 1e-8

    def test_divergence_from_uncorrelated_baseline(self):
        report = run_scenario(ScenarioId.CLASSICAL_CORRELATIONS, FAST)
        assert report.contracts_ok
        assert report.divergence > 0.3

    def test_both_outcomes_yield_the_same_trajectory(self):
        report = run_scenario(ScenarioId.CLASSICAL_CORRELATIONS, FAST)
        per = report.narrative["per_outcome_trajectories"]
        assert set(per) == {"outcome0", "outcome1"}
        assert np.max(np.abs(per["outcome0"].sigma2 - per["outcome1"].sigma2)) < 1e-12

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_degenerate_weight_rejected(self, p):
        with pytest.raises(DegenerateConfigError):
            run_scenario(ScenarioId.CLASSICAL_CORRELATIONS, ScenarioConfig(p=p))

    def test_pure_limit_consistency_with_uncorrelated_scenario(self):
        """The measured correlated arm equals the uncorrelated scenario run at
        p = 1: collapsing onto one branch is the pure-state limit."""
        measured = run_scenario(ScenarioId.CLASSICAL_CORRELATIONS, FAST)
        pure_limit = run_scenario(ScenarioId.NO_CORRELATIONS, ScenarioConfig(p=1.0, t_max=4.0, dt=1e-3))
        gap = np.max(np.abs(measured.arms["armA"].sigma2 - pure_limit.arms["armA"].sigma2))
        assert gap < 1e-8


class TestChangedCorrelations:
    def test_contracts_hold(self):
        report = run_scenario(ScenarioId.CHANGED_CORRELATIONS, FAST)
        assert report.contracts_ok
        times = report.arms["armA"].times
        assert np.max(np.abs(report.arms["armA"].sigma2)) < 1e-10
        assert np.max(np.abs(report.arms["armB"].sigma2 - pure_s2(1.0, times))) < 1e-8

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
        times = report.arms["armA"].times
        assert np.max(np.abs(report.arms["armA"].sigma2)) < 1e-10
        assert np.max(np.abs(report.arms["armB"].sigma2 - pure_s2(1.0, times))) < 1e-8

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
        gap = np.max(np.abs(entangled.arms["armB"].sigma2 - classical.arms["armB"].sigma2))
        assert gap < 1e-8


class TestSpecTable:
    """Properties of every nonlinear SPECS entry over random off-default configs."""

    @pytest.mark.parametrize("scenario", NONLINEAR, ids=NONLINEAR_IDS)
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(p=st.floats(0.05, 0.95), epsilon=st.floats(0.25, 4.0))
    def test_contracts_hold(self, scenario, p, epsilon):
        report = run_scenario(scenario, ScenarioConfig(p=p, epsilon=epsilon, t_max=2.0, dt=1e-2))
        assert report.checks
        assert report.contracts_ok, [check for check in report.checks if not check.passed]

    @pytest.mark.parametrize("scenario", NONLINEAR, ids=NONLINEAR_IDS)
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        p=st.floats(0.05, 0.95),
        epsilon=st.floats(0.25, 4.0),
        omega=st.floats(-4.0, 4.0),
    )
    @example(p=0.75, epsilon=1.0, omega=0.8)
    def test_fixed_rate_restores_linearity(self, scenario, p, epsilon, omega):
        """With a state-independent precession the arms cannot be told apart."""
        cfg = ScenarioConfig(p=p, epsilon=epsilon, t_max=2.0, dt=1e-2)
        report = run_scenario(scenario, cfg, rate_fn=fixed_rate(omega))
        assert report.divergence < 1e-10
        assert report.checks == ()
        assert report.narrative["rate_override"] is True


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
            for arm in report.arms.values():
                np.testing.assert_array_equal(arm.times, grid)
            assert report.divergence >= 0.0
