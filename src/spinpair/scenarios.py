"""End-to-end contrast runs on the two-spin pair.

Every contrast is one entry of SPECS, and run_scenario executes any entry.
A nonlinear entry has two arms; each arm is a preparation, an optional
remote measurement and an evolution policy. A measured arm evolves every
outcome and averages the results by outcome probability; an unmeasured arm
evolves the preparation directly. Each run returns a ScenarioReport with:

* times: the one time grid every trajectory of the run is evaluated on;
* named arms ("armA", "armB"): the contrasted trajectories, each in
  closed form (`dynamics_nonlinear.Trajectory`), which evaluates the system
  spin's Bloch vector on any rows of the grid on demand;
* divergence: the largest gap in the second Bloch component between arms,
  which is where every contrast in this package shows up;
* checks: the entry's contract assertions, then the linear control, which
  the command line turns into exit codes;
* narrative: probabilities, branch listings, per-outcome trajectories and
  non-contractual metrics.

The linear baseline is the one entry without arms: it runs the seeded
randomized linear-theory suite, and its divergence is the suite's worst
deviation.

All clocks start at the measurement where one occurs: a scenario's time
zero, the first point of its one grid, is the moment the post-measurement
state is in hand.

Every run with arms also checks the linear control: each arm is evolved a
second time, from the same Bloch vectors, at the state-independent rate
2 * epsilon, and the two arms must then agree to 1e-10. That pins each
contrast on the state-dependent rate and nothing else. The control is
summed like the arm it belongs to and is not kept in the report.

A run stores no trajectory's points. It walks the grid in chunks of ROWS
rows, evaluates both arms and both controls on each chunk, and keeps only
the largest gap of every check, the divergences and the control: a
maximum is exact, so the chunks change no value, and a run's memory is
one chunk's whatever the grid.
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass
from typing import Callable, Mapping

import numpy as np

from .dynamics_linear import no_signalling_suite
from .dynamics_nonlinear import (
    ROWS,
    EvolutionPolicy,
    Kept,
    Trajectory,
    WeightedSum,
    evolve_ensemble,
    grid_points,
    time_grid,
)
from .measurement import MeasurementBasis, basis_from_vectors, measure_all
from .qmath import trace_out_remote
from .states import (
    DIAG_MINUS,
    DIAG_PLUS,
    DOWN,
    SINGLET,
    UP,
    Branch,
    Ensemble,
    correlated_ensemble,
    density_of,
    product_ensemble,
)

# Work bounds, checked before anything is allocated: grid points per arm
# (t_max = 1000 at the default dt) and trials of the randomized suite.
MAX_GRID_POINTS = 1_000_001
MAX_TRIALS = 1_000_000
# Largest precession angle 2 * |epsilon| * t_max, in radians. The kernel and
# the closed-form references round the angle apart by about one ulp, and sin
# carries that difference into the 1e-8 checks; at 2**24 it uses about a
# third of their bound.
MAX_ANGLE = 2.0**24
# Smallest sec6 contrast, amplitude 1 - (2p - 1)**2 times the largest angle
# capped at 1 rad. Rounding left the arms identical (divergence 0) only at
# products up to 2.2e-16 in sweeps over log-spread p and angles; the bound
# sits over 4000 times higher and still far below the 1e-8 checks.
MIN_CONTRAST = 1e-12


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
    """The configuration leaves the scenario no contrast above MIN_CONTRAST."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


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
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, float(value))  # an int from a library caller, too
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p is a probability and must lie in [0, 1], got {self.p!r}")
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        if self.t_max <= 0.0:
            raise ValueError(f"t_max must be positive, got {self.t_max!r}")
        if self.dt > self.t_max:
            raise ValueError(f"dt ({self.dt!r}) must not exceed t_max ({self.t_max!r})")
        too_fine = self.t_max / self.dt >= MAX_GRID_POINTS  # also catches a ratio of inf
        if too_fine or grid_points(self.t_max, self.dt) > MAX_GRID_POINTS:
            raise ValueError(f"t_max / dt asks for over {MAX_GRID_POINTS} grid points per arm")
        angle = 2.0 * abs(self.epsilon) * self.t_max
        if not angle <= MAX_ANGLE:  # also catches an angle of inf
            raise ValueError(
                f"precession angle 2 * |epsilon| * t_max = {angle!r} exceeds the cap {MAX_ANGLE!r}"
            )
        if not _is_int(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not _is_int(self.trials) or not 1 <= self.trials <= MAX_TRIALS:
            raise ValueError(
                f"trials must be an integer in [1, {MAX_TRIALS}], got {self.trials!r}"
            )


@dataclass(frozen=True)
class ContractCheck:
    """One named contract: a value compared against a bound."""

    name: str
    value: float
    bound: float
    comparison: str = "<="  # or ">"

    @property
    def passed(self) -> bool:
        if self.comparison == "<=":
            return self.value <= self.bound
        return self.value > self.bound


@dataclass(frozen=True, eq=False)
class ScenarioReport:
    """Everything one run produces; a pure function of its config. Every
    trajectory, in arms and in the narrative, is a closed form on the grid
    `times` (None for the linear suite, which has none)."""

    scenario: ScenarioId
    config: ScenarioConfig
    times: np.ndarray | None
    arms: Mapping[str, Trajectory]
    divergence: float
    narrative: dict
    checks: tuple[ContractCheck, ...]

    @property
    def contracts_ok(self) -> bool:
        return all(check.passed for check in self.checks)


# ---------------------------------------------------------------------------
# preparations and bases; those that do not depend on the config are built
# once, at import, and shared read-only by every run


def uncorrelated_preparation(cfg: ScenarioConfig) -> Ensemble:
    """Mixture of the two diagonal-axis system states at weight p, product
    with a fixed remote state: no correlations between the spins."""
    return product_ensemble([(cfg.p, DIAG_PLUS), (1.0 - cfg.p, DIAG_MINUS)], [(1.0, UP)])


def classical_preparation(cfg: ScenarioConfig) -> Ensemble:
    """Diagonal-axis system mixture at weight p whose branches are flagged by
    orthogonal remote markers: classical correlations, no entanglement."""
    return correlated_ensemble(cfg.p, DIAG_PLUS, UP, DIAG_MINUS, DOWN)


# Half-half mixtures of the third-axis and of the diagonal-axis eigenstates,
# flagged by remote markers; p is 1/2 by construction.
UPDOWN_PREPARATION = correlated_ensemble(0.5, UP, UP, DOWN, DOWN)
DIAG_PREPARATION = correlated_ensemble(0.5, DIAG_PLUS, UP, DIAG_MINUS, DOWN)
# The total-spin-zero pure state as a one-branch ensemble.
SINGLET_PREPARATION = Ensemble((Branch(1.0, SINGLET),))

# Remote measurements along the marker (up/down) and the diagonal-axis directions.
MARKER_BASIS = basis_from_vectors(UP, DOWN)
DIAG_BASIS = basis_from_vectors(DIAG_PLUS, DIAG_MINUS)


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


def _max_distance(points_a: np.ndarray, points_b: np.ndarray) -> float:
    """Largest Euclidean distance between two trajectories' Bloch vectors."""
    return float(np.max(np.linalg.norm(points_a - points_b, axis=1)))


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
    """One side of a contrast: the pair's preparation (an ensemble, or a
    function of the config that builds one), optionally a measurement of the
    remote spin along basis, and the policy the system spin evolves under."""

    label: str
    prepare: Ensemble | Callable[[ScenarioConfig], Ensemble]
    basis: MeasurementBasis | None
    policy: EvolutionPolicy


@dataclass(frozen=True)
class ScenarioSpec:
    """One contrast as data: command-line name, `list` summary, description,
    arms (two, or none for the linear suite), deviations(cfg, times, armA,
    armB) -> the arrays on one chunk of the grid whose largest magnitudes
    (gaps) the checks read, checks(cfg, gaps, divergence, extras) -> contract
    checks, and extras(cfg, preparations) -> the narrative keys only this
    contrast reports."""

    name: str
    summary: str
    description: str
    arms: tuple[Arm, ...]
    deviations: Callable[..., tuple[np.ndarray, ...]] | None
    checks: Callable[..., tuple[ContractCheck, ...]]
    extras: Callable[[ScenarioConfig, tuple[Ensemble, ...]], dict]
    needs_contrast: bool = False  # refuse configs with no contrast above MIN_CONTRAST


# The linear suite's three gaps; the largest is its divergence.
SUITE_DEVIATIONS = ("outcome_sum_deviation", "remote_choice_deviation", "interposed_deviation")


def _suite_extras(cfg, preps):
    return asdict(no_signalling_suite(cfg.trials, cfg.seed))


def _suite_checks(cfg, gaps, divergence, extras):
    return (ContractCheck("max linear-theory deviation", divergence, 1e-10),)


def _p_extras(cfg, preps):
    return {"p": cfg.p, "preparation_branches": _describe_ensemble(preps[0])}


def _no_correlations_deviations(cfg, times, arm_a, arm_b):
    expected = _mixture_s2(cfg.p, cfg.epsilon, times)
    return arm_a[:, 1] - expected, arm_b[:, 1] - expected


def _no_correlations_checks(cfg, gaps, divergence, extras):
    gap_a, gap_b = gaps
    return (
        ContractCheck("armA matches the mixture solution", gap_a, 1e-8),
        ContractCheck("armB matches the mixture solution", gap_b, 1e-8),
        ContractCheck("remote measurement changes nothing", divergence, 1e-10),
    )


def _classical_deviations(cfg, times, arm_a, arm_b):
    pure = _pure_s2(cfg.epsilon, times)
    return arm_a[:, 1] - pure, pure - _mixture_s2(cfg.p, cfg.epsilon, times)


def _classical_checks(cfg, gaps, divergence, extras):
    gap_a, gap = gaps
    return (
        ContractCheck("armA matches the pure-state solution", gap_a, 1e-8),
        ContractCheck("divergence matches the analytic gap", abs(divergence - gap), 1e-8),
        ContractCheck("divergence is strictly positive", divergence, 0.0, ">"),
    )


def _density_gaps(prep_a: Ensemble, prep_b: Ensemble) -> dict:
    rho_a, rho_b = density_of(prep_a), density_of(prep_b)
    return {
        "reduced_density_gap": _max_abs(trace_out_remote(rho_a) - trace_out_remote(rho_b)),
        "composite_density_gap": _max_abs(rho_a - rho_b),
    }


# sec7's preparations are the constants above, so their gaps are computed once
_CHANGED_GAPS = _density_gaps(UPDOWN_PREPARATION, DIAG_PREPARATION)


def _changed_extras(cfg, preps):
    return {"preparation_branches": dict(zip(ARM_KEYS, map(_describe_ensemble, preps))), **_CHANGED_GAPS}


def _changed_deviations(cfg, times, arm_a, arm_b):
    return arm_a[:, 1], arm_b[:, 1] - _pure_s2(cfg.epsilon, times)


def _changed_checks(cfg, gaps, divergence, extras):
    silent, gap_b = gaps
    return (
        ContractCheck("armA second component is zero", silent, 1e-10),
        ContractCheck("armB matches the pure-state solution", gap_b, 1e-8),
        ContractCheck("reduced system densities agree", extras["reduced_density_gap"], 1e-12),
        ContractCheck("composite densities differ", extras["composite_density_gap"], 0.1, ">"),
    )


def _entanglement_extras(cfg, preps):
    featured = "armA" if cfg.basis_choice is BasisChoice.UPDOWN else "armB"
    return {"basis_choice": cfg.basis_choice.value, "featured_arm": featured}


def _entanglement_deviations(cfg, times, arm_a, arm_b):
    pure = _pure_s2(cfg.epsilon, times)
    return arm_a[:, 1], arm_b[:, 1] - pure, pure


def _entanglement_checks(cfg, gaps, divergence, extras):
    silent, diag_gap, envelope = gaps
    return (
        ContractCheck("updown arm second component is zero", silent, 1e-10),
        ContractCheck("diag arm matches the pure-state solution", diag_gap, 1e-8),
        ContractCheck("signal magnitude matches the solution envelope", abs(divergence - envelope), 1e-8),
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
        None,
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
                uncorrelated_preparation, MARKER_BASIS, AGGREGATE),
        ),
        _no_correlations_deviations,
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
                classical_preparation, MARKER_BASIS, BRANCHWISE),
            Arm("uncorrelated preparation at the same p, aggregate evolution, no measurement",
                uncorrelated_preparation, None, AGGREGATE),
        ),
        _classical_deviations,
        _classical_checks,
        _p_extras,
        needs_contrast=True,
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
                UPDOWN_PREPARATION, MARKER_BASIS, BRANCHWISE),
            Arm("diagonal-axis mixture, markers measured, branch-wise evolution",
                DIAG_PREPARATION, MARKER_BASIS, BRANCHWISE),
        ),
        _changed_deviations,
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
                SINGLET_PREPARATION, MARKER_BASIS, BRANCHWISE),
            Arm("remote measured along diagonal directions",
                SINGLET_PREPARATION, DIAG_BASIS, BRANCHWISE),
        ),
        _entanglement_deviations,
        _entanglement_checks,
        _entanglement_extras,
    ),
}


def _refuse_without_contrast(cfg: ScenarioConfig) -> None:
    if cfg.p in (0.0, 1.0):
        raise DegenerateConfigError(
            "p in {0, 1} leaves a single branch; the contrast needs a genuine mixture"
        )
    if cfg.epsilon == 0.0:
        raise DegenerateConfigError(
            "epsilon 0 stops the precession; the contrast needs a nonzero epsilon"
        )
    contrast = (1.0 - (2.0 * cfg.p - 1.0) ** 2) * min(1.0, 2.0 * abs(cfg.epsilon) * cfg.t_max)
    if contrast <= MIN_CONTRAST:
        raise DegenerateConfigError(
            f"contrast (1 - (2p - 1)**2) * min(1, 2 * |epsilon| * t_max) = {contrast!r} "
            f"is at most {MIN_CONTRAST!r}; rounding would erase it"
        )


def _chunk_gaps(spec: ScenarioSpec, cfg: ScenarioConfig, times, arms: dict, controls: dict, start: int) -> tuple:
    """On the grid rows [start, start + ROWS): the divergence, the largest
    Bloch distance between the arms and between their controls, then the
    gaps of spec.deviations."""
    stop = start + ROWS
    turns = {}  # cos and sin per distinct rate, shared by every rotation of the chunk
    arm_a, arm_b = (arms[key].rows(start, stop, turns) for key in ARM_KEYS)
    control_a, control_b = (controls[key].rows(start, stop, turns) for key in ARM_KEYS)
    deviations = spec.deviations(cfg, times[start:stop], arm_a, arm_b)
    return (
        _max_abs(arm_a[:, 1] - arm_b[:, 1]),
        _max_distance(arm_a, arm_b),
        _max_distance(control_a, control_b),
        *map(_max_abs, deviations),
    )


def run_scenario(scenario: ScenarioId, cfg: ScenarioConfig) -> ScenarioReport:
    """Run the contrast SPECS[scenario] at cfg.

    The narrative's outcomes are keyed by measured arm, and its per-outcome
    trajectories by "armX/outcomeK", however many arms are measured.
    """
    spec = SPECS[scenario]
    if spec.needs_contrast:
        _refuse_without_contrast(cfg)
    # arms that share a preparation share one ensemble instead of building it twice
    made = {
        prepare: prepare(cfg) if callable(prepare) else prepare
        for prepare in dict.fromkeys(arm.prepare for arm in spec.arms)
    }
    preps = tuple(made[arm.prepare] for arm in spec.arms)
    if not spec.arms:
        extras = spec.extras(cfg, preps)
        divergence = max(extras[key] for key in SUITE_DEVIATIONS)
        checks = spec.checks(cfg, (), divergence, extras)
        narrative = {"description": spec.description, **extras}
        return ScenarioReport(scenario, cfg, None, {}, divergence, narrative, checks)

    times = time_grid(cfg.t_max, cfg.dt)
    # The checks evaluate a grid of one chunk whole; its arms keep those rows
    # for the exporter instead of evaluating them again, which made 101-point
    # CSV runs 4.5% slower (BENCH_closed_forms.json, kept_ablation).
    keep = Kept if times.size <= ROWS else lambda trajectory: trajectory
    arms, controls, outcomes, per_outcome = {}, {}, {}, {}
    for key, arm, prepared in zip(ARM_KEYS, spec.arms, preps):
        if arm.basis is None:
            traj, controls[key] = evolve_ensemble(prepared, arm.policy, cfg.epsilon, times)
            arms[key] = keep(traj)
            continue
        terms, fixed_terms = [], []
        outcomes[key] = []
        for outcome in measure_all(prepared, arm.basis):
            post = outcome.post_state
            traj, fixed = evolve_ensemble(post, arm.policy, cfg.epsilon, times)
            terms.append((outcome.probability, traj))
            fixed_terms.append((outcome.probability, fixed))
            per_outcome[f"{key}/outcome{outcome.outcome_index}"] = traj
            outcomes[key].append(
                {
                    "outcome": outcome.outcome_index,
                    "probability": outcome.probability,
                    "post_branches": _describe_ensemble(post),
                }
            )
        arms[key], controls[key] = keep(WeightedSum(times, tuple(terms))), WeightedSum(times, tuple(fixed_terms))

    # a maximum over the grid is the maximum of the chunks' maxima; np.max
    # keeps a NaN of any chunk, so the check it reaches fails
    chunks = [_chunk_gaps(spec, cfg, times, arms, controls, start) for start in range(0, times.size, ROWS)]
    divergence, bloch_divergence, control_gap, *gaps = np.array(chunks).max(axis=0).tolist()
    extras = spec.extras(cfg, preps)
    checks = (
        *spec.checks(cfg, gaps, divergence, extras),
        ContractCheck("linear control", control_gap, 1e-10),
    )
    narrative = {
        "description": spec.description,
        "arms": {key: arm.label for key, arm in zip(ARM_KEYS, spec.arms)},
        "epsilon": cfg.epsilon,
        **extras,
        "outcomes": outcomes,
        "per_outcome_trajectories": per_outcome,
        "bloch_divergence": bloch_divergence,
    }
    return ScenarioReport(scenario, cfg, times, arms, divergence, narrative, checks)
