"""Mean-value precession whose frequency depends on the state it evolves.

The system spin precesses about axis 3 at angular frequency 2*epsilon*s3:
the third Bloch component is conserved and sets the rate at which the first
two rotate. Because the rate is itself a mean value, evolving a mixture's
aggregate Bloch vector and evolving each pure branch separately are
genuinely different operations; EvolutionPolicy makes that choice explicit
instead of guessing. There is no defined rule here for evolving an
entangled branch on its own, so BRANCH_MEANS refuses entangled branches
with NotProductError.

Every trajectory is the closed-form solution: s3 stays constant and
(s1, s2) rotate by the angle (rate * t), computed by _rotation_points. A
trajectory is a plain `(n, 3)` array of Bloch vectors, one row per point of
the time grid it was evaluated on; the grid itself is the caller's. Its
linearity control rotates the same Bloch vectors at the state-independent
rate 2*epsilon, under which evolution is linear in the state: any two
ensembles with one reduced density matrix then give the same control. The
equations of motion, a single-point closed form on that same kernel and an
independent Runge-Kutta integrator of the equations are test oracles in
tests/oracles.py; the integrator never sees the closed form, and the two
must agree to tight tolerance.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .states import BlochVector, Ensemble, branch_bloch, reduced_bloch


class EvolutionPolicy(enum.Enum):
    """How an ensemble's Bloch trajectory is computed."""

    AGGREGATE_MEANS = "aggregate-means"
    BRANCH_MEANS = "branch-means"


def time_grid(t_max: float, dt: float) -> np.ndarray:
    """Uniform grid of spacing dt from 0 to exactly t_max, last step shortened."""
    t_max = float(t_max)
    dt = float(dt)
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    if t_max < 0.0:
        raise ValueError(f"t_max must be nonnegative, got {t_max!r}")
    if t_max == 0.0:
        return np.zeros(1)
    if dt > t_max:
        raise ValueError(f"dt ({dt!r}) must not exceed t_max ({t_max!r})")
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
    cos and sin of each rate's angles for later calls on the same grid."""
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


def evolve_ensemble(
    ensemble: Ensemble, policy: EvolutionPolicy, epsilon: float, times, turns: dict | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Bloch trajectory of the system spin under the chosen evolution policy,
    and its linearity control: two `(len(times), 3)` arrays of Bloch vectors,
    one row per time.

    AGGREGATE_MEANS evolves the ensemble's reduced Bloch vector as one
    initial condition. BRANCH_MEANS evolves every branch's own Bloch vector
    and weight-averages the results at each time; it requires every branch
    to be a product state.

    The trajectory rotates each vector at its own rate 2 * epsilon * s3; the
    control rotates the same vectors at the fixed rate 2 * epsilon, under
    which the two policies cannot be told apart. Calls on one grid that share
    a `turns` dict evaluate cos and sin once per distinct rate: the control's
    rate is shared by every branch.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValueError("time grid must not be empty")
    eps = float(epsilon)
    if policy is EvolutionPolicy.AGGREGATE_MEANS:
        b0 = reduced_bloch(ensemble)
        return _rotation_points(b0, 2.0 * eps * b0.s3, times, turns), _rotation_points(b0, 2.0 * eps, times, turns)
    if policy is not EvolutionPolicy.BRANCH_MEANS:
        raise ValueError(f"unknown evolution policy {policy!r}")
    points = np.zeros((times.size, 3))
    control = np.zeros((times.size, 3))
    for branch in ensemble.branches:
        b = branch_bloch(branch)
        points += branch.weight * _rotation_points(b, 2.0 * eps * b.s3, times, turns)
        control += branch.weight * _rotation_points(b, 2.0 * eps, times, turns)
    return points, control
