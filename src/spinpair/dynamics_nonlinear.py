"""Mean-value precession whose frequency depends on the state it evolves.

The system spin precesses about axis 3 at angular frequency 2*epsilon*s3:
the third Bloch component is conserved and sets the rate at which the first
two rotate. Because the rate is itself a mean value, evolving a mixture's
aggregate Bloch vector and evolving each pure branch separately are
genuinely different operations; EvolutionPolicy makes that choice explicit
instead of guessing. There is no defined rule here for evolving an
entangled branch on its own, so BRANCH_MEANS refuses entangled branches
with NotProductError.

Every trajectory is its closed form: s3 stays constant and (s1, s2) rotate
by the angle (rate * t). A Rotation is one initial Bloch vector and its
rate; a WeightedSum is a weighted sum of trajectories, accumulated from
zeros in the order of its terms. Either is bound to the time grid it was
built on, which it shares and never copies, and `rows(start, stop)`
evaluates rows [start, stop) of that grid on demand with _rotation_points,
so neither holds a point array: its caller walks the grid in chunks of ROWS
rows. Kept wraps an arm on a grid of one chunk, whose rows are then
evaluated once and kept. Evaluated whole or in chunks, every row comes from
the same float operations, in the same order. The linearity control
rotates the same Bloch vectors at the state-independent rate 2*epsilon,
under which evolution is linear in the state: any two ensembles with one
reduced density matrix then give the same control. The equations of
motion, a single-point closed form on that same kernel and an independent
Runge-Kutta integrator of the equations are test oracles in
tests/oracles.py; the integrator never sees the closed form, and the two
must agree to tight tolerance.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .states import BlochVector, Ensemble, branch_bloch, reduced_bloch

ROWS = 4096  # grid rows evaluated, checked and written at a time


class EvolutionPolicy(enum.Enum):
    """How an ensemble's Bloch trajectory is computed."""

    AGGREGATE_MEANS = "aggregate-means"
    BRANCH_MEANS = "branch-means"


def time_grid(t_max: float, dt: float) -> np.ndarray:
    """Uniform grid of spacing dt from 0 to exactly t_max, last step
    shortened; the caller's config guarantees 0 < dt <= t_max."""
    times = dt * np.arange(grid_points(t_max, dt), dtype=float)
    times[-1] = t_max
    return times


def grid_points(t_max: float, dt: float) -> int:
    """Number of points time_grid(t_max, dt) returns, counted without building
    them: a last step shorter than dt adds one point."""
    count = math.floor(t_max / dt + 1e-9)
    return count + 1 if dt * count >= t_max - 1e-9 * dt else count + 2


def _rotation_points(b0: BlochVector, omega: float, times: np.ndarray, turns: dict | None = None) -> np.ndarray:
    """b0 rotated about axis 3 at rate omega, at each time. `turns` keeps the
    cos and sin of each rate's angles for later calls on the same times."""
    turns = {} if turns is None else turns
    key = float(omega).hex()  # not the float: 0.0 and -0.0 turn alike but give zeros of different signs
    if key not in turns:
        angles = float(omega) * times
        turns[key] = np.cos(angles), np.sin(angles)
    c, s = turns[key]
    points = np.empty((times.size, 3))
    points[:, 0] = b0.s1 * c - b0.s2 * s
    points[:, 1] = b0.s2 * c + b0.s1 * s
    points[:, 2] = b0.s3
    return points


class Trajectory:
    """The system spin's Bloch vector on the time grid `times`, in closed
    form. `rows(start=0, stop=None, turns=None)` evaluates the rows
    [start, stop) of the grid: a `(k, 3)` array, one Bloch vector per time.
    Calls on one slice of the grid that share a `turns` dict evaluate cos
    and sin once per distinct rate."""

    times: np.ndarray


@dataclass(frozen=True, eq=False)
class Rotation(Trajectory):
    """b0 rotated about axis 3 at rate omega."""

    times: np.ndarray
    b0: BlochVector
    omega: float

    def rows(self, start: int = 0, stop: int | None = None, turns: dict | None = None) -> np.ndarray:
        return _rotation_points(self.b0, self.omega, self.times[start:stop], turns)


@dataclass(frozen=True, eq=False)
class WeightedSum(Trajectory):
    """The sum of weight * trajectory over terms, all on the grid times:
    zeros, then each term added in order."""

    times: np.ndarray
    terms: tuple[tuple[float, Trajectory], ...]

    def rows(self, start: int = 0, stop: int | None = None, turns: dict | None = None) -> np.ndarray:
        turns = {} if turns is None else turns
        points = np.zeros((self.times[start:stop].size, 3))
        for weight, term in self.terms:
            points += weight * term.rows(start, stop, turns)
        return points


class Kept(Trajectory):
    """A trajectory that evaluates its rows on the whole grid once, at the
    first call, and keeps them read-only; for a grid of at most ROWS rows."""

    def __init__(self, trajectory: Trajectory) -> None:
        self.trajectory, self.times, self.points = trajectory, trajectory.times, None

    def rows(self, start: int = 0, stop: int | None = None, turns: dict | None = None) -> np.ndarray:
        if self.points is None:
            self.points = self.trajectory.rows(0, None, turns)
            self.points.setflags(write=False)
        return self.points[start:stop]


def evolve_ensemble(
    ensemble: Ensemble, policy: EvolutionPolicy, epsilon: float, times: np.ndarray
) -> tuple[Trajectory, Trajectory]:
    """Bloch trajectory of the system spin under the chosen evolution policy,
    and its linearity control, as closed forms on the grid `times`.

    AGGREGATE_MEANS evolves the ensemble's reduced Bloch vector as one
    initial condition: a Rotation. BRANCH_MEANS evolves every branch's own
    Bloch vector and weight-averages the results at each time, a
    WeightedSum over the branches in ensemble order; it requires every
    branch to be a product state.

    The trajectory rotates each vector at its own rate 2 * epsilon * s3; the
    control rotates the same vectors at the fixed rate 2 * epsilon, under
    which the two policies cannot be told apart.
    """
    eps = float(epsilon)
    if policy is EvolutionPolicy.AGGREGATE_MEANS:
        b0 = reduced_bloch(ensemble)
        return Rotation(times, b0, 2.0 * eps * b0.s3), Rotation(times, b0, 2.0 * eps)
    parts = [(branch.weight, branch_bloch(branch)) for branch in ensemble.branches]
    return (
        WeightedSum(times, tuple((weight, Rotation(times, b, 2.0 * eps * b.s3)) for weight, b in parts)),
        WeightedSum(times, tuple((weight, Rotation(times, b, 2.0 * eps)) for weight, b in parts)),
    )
