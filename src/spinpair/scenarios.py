"""End-to-end contrast runs on the two-spin pair.

Every contrast is one entry of SPECS, and run_scenario executes any entry.
A nonlinear entry has two arms; each arm is a preparation, an optional
remote measurement and an evolution policy. A measured arm evolves every
outcome and averages the results by outcome probability; an unmeasured arm
evolves the preparation directly. Each run returns a ScenarioReport with:

* named arms ("armA", "armB"): the contrasted trajectories on one shared grid;
* divergence: the largest gap in the second Bloch component between arms,
  which is where every contrast in this package shows up;
* checks: the entry's contract assertions, which the command line turns
  into exit codes;
* narrative: probabilities, branch listings, per-outcome trajectories and
  non-contractual metrics.

The linear baseline is the one entry without arms: it runs the seeded
randomized linear-theory suite, and its divergence is the suite's worst
deviation.

All clocks start at the measurement where one occurs: a scenario's time
zero is the moment the post-measurement state is in hand.

Passing rate_fn=fixed_rate(omega) to a nonlinear run replaces the
state-dependent precession with a state-independent one; every divergence
then collapses to zero, which pins the contrasts on the nonlinearity and
nothing else. Contract checks are suspended under such an override since
they encode the state-dependent solutions.
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass
from typing import Callable, Mapping

import numpy as np

from .dynamics_linear import no_signalling_suite
from .dynamics_nonlinear import (
    EvolutionPolicy,
    RateFn,
    Trajectory,
    evolve_ensemble,
    grid_points,
    time_grid,
)
from .measurement import MeasurementBasis, basis_from_vectors, measure_all
from .qmath import trace_out_remote
from .states import (
    DOWN,
    UP,
    Branch,
    Ensemble,
    correlated_ensemble,
    density_of,
    diag_eigenstates,
    product_ensemble,
    singlet,
)

# Work bounds, checked before anything is allocated: grid points per arm
# (t_max = 1000 at the default dt) and trials of the randomized suite.
MAX_GRID_POINTS = 1_000_001
MAX_TRIALS = 1_000_000


class ScenarioId(enum.Enum):
    """The five runnable contrasts."""

    LINEAR_BASELINE = "linear-baseline"
    NO_CORRELATIONS = "no-correlations"
    CLASSICAL_CORRELATIONS = "classical-correlations"
    CHANGED_CORRELATIONS = "changed-correlations"
    ENTANGLEMENT = "entanglement"


class BasisChoice(enum.Enum):
    """Remote measurement basis for the entanglement scenario."""

    UPDOWN = "updown"
    DIAG = "diag"


class DegenerateConfigError(ValueError):
    """The configuration collapses the scenario's contrast (e.g. p in {0, 1})."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs shared by the scenarios; defaults resolve every contrast cleanly."""

    p: float = 0.75
    epsilon: float = 1.0
    t_max: float = 10.0
    dt: float = 1e-3
    basis_choice: BasisChoice = BasisChoice.UPDOWN
    seed: int = 42
    trials: int = 1000

    def __post_init__(self) -> None:
        for name in ("p", "epsilon", "t_max", "dt"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not 0.0 <= float(self.p) <= 1.0:
            raise ValueError(f"p is a probability and must lie in [0, 1], got {self.p!r}")
        if float(self.dt) <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        if float(self.t_max) <= 0.0:
            raise ValueError(f"t_max must be positive, got {self.t_max!r}")
        if not math.isfinite(2.0 * abs(self.epsilon) * self.t_max):  # largest precession angle
            raise ValueError(
                f"precession angle 2 * |epsilon| * t_max overflows for epsilon {self.epsilon!r}"
            )
        too_fine = self.t_max / self.dt >= MAX_GRID_POINTS  # also catches a ratio of inf
        if too_fine or grid_points(self.t_max, self.dt) > MAX_GRID_POINTS:
            raise ValueError(f"t_max / dt asks for over {MAX_GRID_POINTS} grid points per arm")
        if not 1 <= int(self.trials) <= MAX_TRIALS:
            raise ValueError(f"trials must lie in [1, {MAX_TRIALS}], got {self.trials!r}")


@dataclass(frozen=True)
class ContractCheck:
    """One named contract: a value compared against a bound."""

    name: str
    value: float
    bound: float
    comparison: str = "<="

    @property
    def passed(self) -> bool:
        if self.comparison == "<=":
            return self.value <= self.bound
        if self.comparison == ">":
            return self.value > self.bound
        raise ValueError(f"unknown comparison {self.comparison!r}")


@dataclass(frozen=True, eq=False)
class ScenarioReport:
    """Everything one run produces; a pure function of its config."""

    scenario: ScenarioId
    config: ScenarioConfig
    arms: Mapping[str, Trajectory]
    divergence: float
    narrative: dict
    checks: tuple[ContractCheck, ...]

    @property
    def contracts_ok(self) -> bool:
        return all(check.passed for check in self.checks)


# ---------------------------------------------------------------------------
# preparations and bases


def uncorrelated_preparation(cfg: ScenarioConfig) -> Ensemble:
    """Mixture of the two diagonal-axis system states at weight p, product
    with a fixed remote state: no correlations between the spins."""
    plus, minus = diag_eigenstates()
    return product_ensemble([(cfg.p, plus), (1.0 - cfg.p, minus)], [(1.0, UP)])


def classical_preparation(cfg: ScenarioConfig) -> Ensemble:
    """Diagonal-axis system mixture at weight p whose branches are flagged by
    orthogonal remote markers: classical correlations, no entanglement."""
    plus, minus = diag_eigenstates()
    return correlated_ensemble(cfg.p, plus, UP, minus, DOWN)


def updown_preparation(cfg: ScenarioConfig) -> Ensemble:
    """Half-half mixture of the third-axis eigenstates, flagged by remote
    markers; p is 1/2 by construction."""
    return correlated_ensemble(0.5, UP, UP, DOWN, DOWN)


def diag_preparation(cfg: ScenarioConfig) -> Ensemble:
    """Half-half mixture of the diagonal-axis eigenstates, flagged by remote
    markers; p is 1/2 by construction."""
    plus, minus = diag_eigenstates()
    return correlated_ensemble(0.5, plus, UP, minus, DOWN)


def singlet_preparation(cfg: ScenarioConfig) -> Ensemble:
    """The total-spin-zero pure state as a one-branch ensemble."""
    return Ensemble((Branch(1.0, singlet()),))


def marker_basis() -> MeasurementBasis:
    """Remote measurement along the marker (up/down) directions."""
    return basis_from_vectors(UP, DOWN)


def diag_basis() -> MeasurementBasis:
    """Remote measurement along the diagonal-axis directions."""
    return basis_from_vectors(*diag_eigenstates())


# ---------------------------------------------------------------------------
# expected closed-form solutions, written out once for contract evaluation


def _mixture_s2(p: float, epsilon: float, times: np.ndarray) -> np.ndarray:
    """Second component for the diagonal mixture: amplitude and frequency both
    scale with 2p - 1."""
    amplitude = (2.0 * p - 1.0) / np.sqrt(2.0)
    return amplitude * np.sin(np.sqrt(2.0) * (2.0 * p - 1.0) * epsilon * times)


def _pure_s2(epsilon: float, times: np.ndarray) -> np.ndarray:
    """Second component for either pure diagonal state; the sign of the state
    cancels against the sign of its precession frequency."""
    return np.sin(np.sqrt(2.0) * epsilon * times) / np.sqrt(2.0)


def _max_abs(values) -> float:
    return float(np.max(np.abs(values)))


def _describe_ensemble(ensemble: Ensemble) -> list[dict]:
    return [
        {
            "weight": branch.weight,
            "vector": [[float(z.real), float(z.imag)] for z in branch.vector],
        }
        for branch in ensemble.branches
    ]


# ---------------------------------------------------------------------------
# the contrasts as data


@dataclass(frozen=True)
class Arm:
    """One side of a contrast: prepare the pair, optionally measure the remote
    spin along basis(), evolve the system spin under policy."""

    label: str
    prepare: Callable[[ScenarioConfig], Ensemble]
    basis: Callable[[], MeasurementBasis] | None
    policy: EvolutionPolicy


@dataclass(frozen=True)
class ScenarioSpec:
    """One contrast as data: command-line name, `list` summary, description,
    arms (two, or none for the linear suite), checks(cfg, times, armA, armB,
    divergence, extras) -> contract checks, and extras(cfg, preparations) ->
    the narrative keys only this contrast reports."""

    name: str
    summary: str
    description: str
    arms: tuple[Arm, ...]
    checks: Callable[..., tuple[ContractCheck, ...]]
    extras: Callable[[ScenarioConfig, tuple[Ensemble, ...]], dict]
    needs_mixture: bool = False  # p in {0, 1} leaves a single branch


# The linear suite's three gaps; the largest is its divergence.
SUITE_DEVIATIONS = ("outcome_sum_deviation", "remote_choice_deviation", "interposed_deviation")


def _suite_extras(cfg, preps):
    return asdict(no_signalling_suite(cfg.trials, cfg.seed))


def _suite_checks(cfg, times, arm_a, arm_b, divergence, extras):
    return (ContractCheck("max linear-theory deviation", divergence, 1e-10),)


def _p_extras(cfg, preps):
    return {"p": cfg.p, "preparation_branches": _describe_ensemble(preps[0])}


def _no_correlations_checks(cfg, times, arm_a, arm_b, divergence, extras):
    expected = _mixture_s2(cfg.p, cfg.epsilon, times)
    gap_a, gap_b = (_max_abs(arm.sigma2 - expected) for arm in (arm_a, arm_b))
    return (
        ContractCheck("armA matches the mixture solution", gap_a, 1e-8),
        ContractCheck("armB matches the mixture solution", gap_b, 1e-8),
        ContractCheck("remote measurement changes nothing", divergence, 1e-10),
    )


def _classical_checks(cfg, times, arm_a, arm_b, divergence, extras):
    pure = _pure_s2(cfg.epsilon, times)
    gap = _max_abs(pure - _mixture_s2(cfg.p, cfg.epsilon, times))
    return (
        ContractCheck("armA matches the pure-state solution", _max_abs(arm_a.sigma2 - pure), 1e-8),
        ContractCheck("divergence matches the analytic gap", abs(divergence - gap), 1e-8),
        ContractCheck("divergence is strictly positive", divergence, 0.0, ">"),
    )


def _changed_extras(cfg, preps):
    rho_a, rho_b = (density_of(prep) for prep in preps)
    return {
        "preparation_branches": dict(zip(ARM_KEYS, map(_describe_ensemble, preps))),
        "reduced_density_gap": _max_abs(trace_out_remote(rho_a) - trace_out_remote(rho_b)),
        "composite_density_gap": _max_abs(rho_a - rho_b),
    }


def _changed_checks(cfg, times, arm_a, arm_b, divergence, extras):
    pure = _pure_s2(cfg.epsilon, times)
    return (
        ContractCheck("armA second component is zero", _max_abs(arm_a.sigma2), 1e-10),
        ContractCheck("armB matches the pure-state solution", _max_abs(arm_b.sigma2 - pure), 1e-8),
        ContractCheck("reduced system densities agree", extras["reduced_density_gap"], 1e-12),
        ContractCheck("composite densities differ", extras["composite_density_gap"], 0.1, ">"),
    )


def _entanglement_extras(cfg, preps):
    featured = "armA" if cfg.basis_choice is BasisChoice.UPDOWN else "armB"
    return {"basis_choice": cfg.basis_choice.value, "featured_arm": featured}


def _entanglement_checks(cfg, times, arm_a, arm_b, divergence, extras):
    pure = _pure_s2(cfg.epsilon, times)
    diag_gap = _max_abs(arm_b.sigma2 - pure)
    envelope_gap = abs(divergence - _max_abs(pure))
    return (
        ContractCheck("updown arm second component is zero", _max_abs(arm_a.sigma2), 1e-10),
        ContractCheck("diag arm matches the pure-state solution", diag_gap, 1e-8),
        ContractCheck("signal magnitude matches the solution envelope", envelope_gap, 1e-8),
    )


ARM_KEYS = ("armA", "armB")
AGGREGATE = EvolutionPolicy.AGGREGATE_MEANS
BRANCHWISE = EvolutionPolicy.BRANCH_MEANS

SPECS: dict[ScenarioId, ScenarioSpec] = {
    ScenarioId.LINEAR_BASELINE: ScenarioSpec(
        "sec3",
        "randomized linear-theory suite",
        "randomized linear-theory suite: remote operations move no system probability",
        (),
        _suite_checks,
        _suite_extras,
    ),
    # Measuring the remote spin of an uncorrelated pair changes nothing.
    ScenarioId.NO_CORRELATIONS: ScenarioSpec(
        "sec5",
        "uncorrelated preparation; remote measurement changes nothing",
        "no correlations: the remote measurement cannot move the system trajectory",
        (
            Arm("aggregate evolution, no measurement", uncorrelated_preparation, None, AGGREGATE),
            Arm("remote markers measured, outcomes evolved and averaged",
                uncorrelated_preparation, marker_basis, AGGREGATE),
        ),
        _no_correlations_checks,
        _p_extras,
    ),
    # Measuring the markers resets the system to a pure state whatever p was,
    # although both arms start from the same reduced system density.
    ScenarioId.CLASSICAL_CORRELATIONS: ScenarioSpec(
        "sec6",
        "classically correlated preparation vs the uncorrelated baseline",
        "classical correlations: measured arm follows the pure-state solution, independent of p",
        (
            Arm("correlated preparation, remote markers measured, branch-wise evolution",
                classical_preparation, marker_basis, BRANCHWISE),
            Arm("uncorrelated preparation at the same p, aggregate evolution, no measurement",
                uncorrelated_preparation, None, AGGREGATE),
        ),
        _classical_checks,
        _p_extras,
        needs_mixture=True,
    ),
    # Third-axis branches sit at the poles and never precess; diagonal-axis
    # branches precess at full amplitude.
    ScenarioId.CHANGED_CORRELATIONS: ScenarioSpec(
        "sec7",
        "two decompositions of the same reduced state, different dynamics",
        "changed correlations: same reduced density matrix, different decompositions, "
        "different dynamics",
        (
            Arm("third-axis mixture, markers measured, branch-wise evolution",
                updown_preparation, marker_basis, BRANCHWISE),
            Arm("diagonal-axis mixture, markers measured, branch-wise evolution",
                diag_preparation, marker_basis, BRANCHWISE),
        ),
        _changed_checks,
        _changed_extras,
    ),
    # The divergence is the signal a remote basis choice would imprint. Both
    # arms always run; cfg.basis_choice marks the one the narrative features.
    ScenarioId.ENTANGLEMENT: ScenarioSpec(
        "sec8",
        "singlet preparation; remote basis choice selects the dynamics",
        "entanglement: the remote basis choice alone selects which dynamics the system shows",
        (
            Arm("remote measured along marker (updown) directions",
                singlet_preparation, marker_basis, BRANCHWISE),
            Arm("remote measured along diagonal directions",
                singlet_preparation, diag_basis, BRANCHWISE),
        ),
        _entanglement_checks,
        _entanglement_extras,
    ),
}


def run_scenario(
    scenario: ScenarioId, cfg: ScenarioConfig, rate_fn: RateFn | None = None
) -> ScenarioReport:
    """Run the contrast SPECS[scenario] at cfg.

    With one measured arm the narrative's outcomes and per-outcome
    trajectories are flat; with two they are keyed by arm. The linear suite
    has no precession, so rate_fn does not apply to it.
    """
    spec = SPECS[scenario]
    if spec.needs_mixture and cfg.p in (0.0, 1.0):
        raise DegenerateConfigError(
            "p in {0, 1} leaves a single branch; the contrast needs a genuine mixture"
        )
    # arms that share a preparation share one ensemble instead of building it twice
    made = {prepare: prepare(cfg) for prepare in dict.fromkeys(arm.prepare for arm in spec.arms)}
    preps = tuple(made[arm.prepare] for arm in spec.arms)
    if not spec.arms:
        extras = spec.extras(cfg, preps)
        divergence = max(extras[key] for key in SUITE_DEVIATIONS)
        checks = spec.checks(cfg, None, None, None, divergence, extras)
        narrative = {"description": spec.description, **extras}
        return ScenarioReport(scenario, cfg, {}, divergence, narrative, checks)

    times = time_grid(cfg.t_max, cfg.dt)
    arms, outcomes, per_outcome = {}, {}, {}
    for key, arm, prepared in zip(ARM_KEYS, spec.arms, preps):
        if arm.basis is None:
            arms[key] = evolve_ensemble(prepared, arm.policy, cfg.epsilon, times, rate_fn=rate_fn)
            continue
        points = np.zeros((times.size, 3))
        outcomes[key] = []
        for outcome in measure_all(prepared, arm.basis()):
            post = outcome.post_state
            traj = evolve_ensemble(post, arm.policy, cfg.epsilon, times, rate_fn=rate_fn)
            points += outcome.probability * traj.points
            per_outcome[f"{key}/outcome{outcome.outcome_index}"] = traj
            outcomes[key].append(
                {
                    "outcome": outcome.outcome_index,
                    "probability": outcome.probability,
                    "post_branches": _describe_ensemble(post),
                }
            )
        arms[key] = Trajectory(times, points)
    if len(outcomes) == 1:  # a single measured arm needs no arm prefix
        (outcomes,) = outcomes.values()
        per_outcome = {name.partition("/")[2]: traj for name, traj in per_outcome.items()}

    arm_a, arm_b = arms["armA"], arms["armB"]
    divergence = _max_abs(arm_a.sigma2 - arm_b.sigma2)
    extras = spec.extras(cfg, preps)
    checks = spec.checks(cfg, times, arm_a, arm_b, divergence, extras) if rate_fn is None else ()
    narrative = {
        "description": spec.description,
        "arms": {key: arm.label for key, arm in zip(ARM_KEYS, spec.arms)},
        "epsilon": cfg.epsilon,
        **extras,
        "outcomes": outcomes,
        "per_outcome_trajectories": per_outcome,
        "bloch_divergence": float(np.max(np.linalg.norm(arm_a.points - arm_b.points, axis=1))),
        "rate_override": rate_fn is not None,
    }
    return ScenarioReport(scenario, cfg, arms, divergence, narrative, checks)
