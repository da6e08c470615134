"""Slow reference routes kept for the tests.

Every fast route in `spinpair` is compared against an independent slow one
here; none of these run in a `spinpair` command.

* Export. The exporter in `spinpair.cli` evaluates each trajectory's
  closed form a chunk of rows at a time, renders its float columns and the
  report's one time grid to text, splices them into a `json.dumps` of the
  rest of the report, and streams the result. render_csv and render_json
  materialise every trajectory whole, with `Trajectory.rows()`, and are
  per-float routes: every float is
  formatted with `format(x, ".{p}g")`, and in JSON parsed back and written
  by the json encoder, the grid once as the top-level `times` and each
  trajectory row as `json.dumps` of its three rounded floats. The fast
  routes must match them byte for byte; `rendered` joins what they stream.
* Linear dynamics. ProductUnitary, evolve and heisenberg_probability are the
  per-trial forms of the routes that `dynamics_linear.trial_probabilities`
  evaluates on stacks of trials.
* Measurement. outcome_probability, collapse and joint_probability_total
  take one projector at a time; collapse goes through the production
  branch-wise `measurement._collapse`, which the tests check against the
  projected density matrix. joint_probability_total embeds its proposition
  on the system side, which no production route does.
* Nonlinear dynamics. integrate_rk4 steps eom_rhs with classical
  Runge-Kutta and never sees the rotation kernel; closed_form evaluates the
  production kernel `dynamics_nonlinear._rotation_points` at one time, so
  their agreement covers the production path.
* Matrix algebra. pauli returns one spin matrix as a fresh copy, and
  mean_value checks both arrays and takes one trace at a time; the
  production kernel `qmath._real_traces` takes the traces of a stack of
  operators unchecked and must give the same bits.
* Matrix predicates: dagger, is_hermitian, is_unitary, is_projector and
  is_density.
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import asdict, dataclass

import numpy as np

from spinpair.dynamics_nonlinear import Trajectory, _rotation_points, time_grid
from spinpair.measurement import OutcomeBranch, _collapse
from spinpair.qmath import ATOL, IDENTITY_2, MEAN_IMAG_TOL, PAULI, ConsistencyError, checked
from spinpair.scenarios import ScenarioReport
from spinpair.states import BlochVector, Branch, Ensemble, density_of


def rendered(render) -> str:
    """The whole text that a writer from `spinpair.cli` passes to `write`."""
    parts = []
    render(parts.append)
    return "".join(parts)


def fmt(value: float, precision: int) -> str:
    return format(float(value), f".{precision}g")


def rounded(value: float, precision: int) -> float:
    return float(fmt(value, precision))


# a trajectory row's text, marked; as json.dumps writes it in a string
ROW = "\x01"
ROW_STRING = r'"\\u0001(\[[^"]*\])"'


def jsonable(value, precision: int):
    """Report value -> json-ready value, each float rounded on its own. An
    array (the time grid) becomes a list; a trajectory becomes
    `{"points": rows}`, each row the json.dumps text of its floats behind
    ROW, which render_json unquotes onto one line."""
    if isinstance(value, np.ndarray):
        return [rounded(t, precision) for t in value]
    if isinstance(value, Trajectory):
        return {"points": [ROW + json.dumps([rounded(c, precision) for c in row]) for row in value.rows()]}
    if isinstance(value, dict):
        return {str(k): jsonable(v, precision) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v, precision) for v in value]
    if isinstance(value, float):
        return rounded(value, precision)
    if isinstance(value, enum.Enum):
        return value.value
    return value


@dataclass(frozen=True, eq=False)
class GivenPoints(Trajectory):
    """A trajectory given by its `(n, 3)` points on the grid `times`, for
    hand-made reports that hold floats no closed form produces."""

    times: np.ndarray
    points: np.ndarray

    def rows(self, start=0, stop=None, turns=None) -> np.ndarray:
        return self.points[start:stop]


def render_csv(report: ScenarioReport, precision: int) -> str:
    lines = ["t,arm,sigma1,sigma2,sigma3"]
    for arm_name, trajectory in report.arms.items():
        for t, (s1, s2, s3) in zip(report.times, trajectory.rows()):
            lines.append(
                f"{fmt(t, precision)},{arm_name},"
                f"{fmt(s1, precision)},{fmt(s2, precision)},{fmt(s3, precision)}"
            )
    return "\n".join(lines) + "\n"


def render_json(report: ScenarioReport, precision: int) -> str:
    doc = {
        "schema_version": 2,
        "scenario": report.scenario,
        "config": asdict(report.config),
        "divergence": report.divergence,
        "contracts_ok": report.contracts_ok,
        "checks": [{**asdict(check), "passed": check.passed} for check in report.checks],
        "arms": report.arms,
        "narrative": report.narrative,
    }
    if report.times is not None:
        doc["times"] = report.times
    text = json.dumps(jsonable(doc, precision), indent=2, sort_keys=True) + "\n"
    return re.sub(ROW_STRING, r"\1", text)


# ---------------------------------------------------------------------------
# matrix algebra and predicates


def pauli(axis: int) -> np.ndarray:
    """Return the 2x2 spin matrix for the given axis (1, 2, or 3)."""
    if axis not in (1, 2, 3):
        raise ValueError(f"axis must be 1, 2, or 3, got {axis!r}")
    return PAULI[axis - 1].copy()


def mean_value(operator, rho) -> float:
    """Real expectation Tr[operator @ rho] of a hermitian operator on a state."""
    a = checked(operator, "operator", (2, 2), (4, 4))
    r = checked(rho, "rho", (2, 2), (4, 4))
    if a.shape != r.shape:
        raise ValueError(f"operator and state dimensions differ: {a.shape} vs {r.shape}")
    value = complex(np.trace(a @ r))
    if abs(value.imag) > MEAN_IMAG_TOL:
        raise ConsistencyError(
            f"expectation value has imaginary residue {value.imag:.3e}; "
            "operator or state is not what it claims to be"
        )
    return value.real


def dagger(matrix) -> np.ndarray:
    """Conjugate transpose."""
    return checked(matrix, "matrix", (2, 2), (4, 4)).conj().T.copy()


def is_hermitian(matrix, atol: float = ATOL) -> bool:
    m = checked(matrix, "matrix", (2, 2), (4, 4))
    return bool(np.max(np.abs(m - m.conj().T)) <= atol)


def is_unitary(matrix, atol: float = ATOL) -> bool:
    m = checked(matrix, "matrix", (2, 2), (4, 4))
    return bool(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) <= atol)


def is_projector(matrix, atol: float = ATOL) -> bool:
    m = checked(matrix, "matrix", (2, 2), (4, 4))
    return is_hermitian(m, atol) and bool(np.max(np.abs(m @ m - m)) <= atol)


def is_density(matrix, atol: float = ATOL) -> bool:
    """Hermitian, unit trace, and no negative real part on the diagonal."""
    m = checked(matrix, "matrix", (2, 2), (4, 4))
    if not is_hermitian(m, atol):
        return False
    if abs(complex(np.trace(m)) - 1.0) > atol:
        return False
    return bool(np.min(np.diag(m).real) >= -atol)


# ---------------------------------------------------------------------------
# measurement, one projector at a time


def _require_projector(effect, name: str = "effect") -> np.ndarray:
    arr = checked(effect, name, (2, 2))
    if not is_projector(arr):
        raise ValueError(f"{name} must be a hermitian projector")
    return arr


def outcome_probability(ensemble: Ensemble, effect) -> float:
    """Probability that the remote projector's proposition is true for this preparation."""
    embedded = np.kron(IDENTITY_2, _require_projector(effect))
    return mean_value(embedded, density_of(ensemble))


def collapse(ensemble: Ensemble, effect) -> Ensemble:
    """Project every branch onto the remote outcome, drop annihilated branches, reweight.

    Raises ImpossibleOutcomeError when the outcome has zero probability.
    """
    return _collapse(ensemble, np.kron(IDENTITY_2, _require_projector(effect)))


def joint_probability_total(proposition, outcomes: tuple[OutcomeBranch, ...]) -> float:
    """Sum over remote outcomes of P(outcome) * P(system proposition | outcome),
    computed the long way round over a measure_all outcome decomposition."""
    embedded = np.kron(_require_projector(proposition, "proposition"), IDENTITY_2)
    total = 0.0
    for outcome in outcomes:
        total += outcome.probability * mean_value(embedded, density_of(outcome.post_state))
    return total


# ---------------------------------------------------------------------------
# linear dynamics, one trial at a time


@dataclass(frozen=True, eq=False)
class ProductUnitary:
    """One time step of the pair: a system unitary times a remote unitary."""

    system_u: np.ndarray
    remote_u: np.ndarray

    def __post_init__(self) -> None:
        frozen = []
        for name, raw in (("system_u", self.system_u), ("remote_u", self.remote_u)):
            arr = checked(raw, name, (2, 2))
            if not is_unitary(arr):
                raise ValueError(f"{name} is not unitary within tolerance")
            arr = arr.copy()
            arr.setflags(write=False)
            frozen.append(arr)
        object.__setattr__(self, "system_u", frozen[0])
        object.__setattr__(self, "remote_u", frozen[1])

    def composite(self) -> np.ndarray:
        return np.kron(self.system_u, self.remote_u)


def evolve(ensemble: Ensemble, uv: ProductUnitary) -> Ensemble:
    """Apply the product unitary to every branch; weights are untouched."""
    w = uv.composite()
    return Ensemble(tuple(Branch(b.weight, w @ b.vector) for b in ensemble.branches))


def heisenberg_probability(proposition, uv: ProductUnitary, ensemble: Ensemble) -> float:
    """Probability of a system proposition after one time step, computed in the
    Heisenberg picture on the full composite state.

    The full composite expression is evaluated on purpose: that the result
    never depends on the remote factor is a consequence to be verified, not
    an assumption to be baked in.
    """
    prop = _require_projector(proposition, "proposition")
    w = uv.composite()
    advanced = dagger(w) @ np.kron(prop, IDENTITY_2) @ w
    return mean_value(advanced, density_of(ensemble))


# ---------------------------------------------------------------------------
# nonlinear dynamics


def bloch_array(b: BlochVector) -> np.ndarray:
    """The components (s1, s2, s3) as a float array."""
    return np.array([b.s1, b.s2, b.s3], dtype=float)


def _as_bloch(value) -> BlochVector:
    if isinstance(value, BlochVector):
        return value
    return BlochVector(*value)


def eom_rhs(bloch, epsilon: float) -> np.ndarray:
    """Time derivative of the mean values: (-2*eps*s3*s2, 2*eps*s3*s1, 0);
    bloch is a BlochVector or any 3 components, inside the ball or not."""
    comps = bloch_array(bloch) if isinstance(bloch, BlochVector) else bloch
    s1, s2, s3 = (float(c) for c in comps)
    eps = float(epsilon)
    return np.array([-2.0 * eps * s3 * s2, 2.0 * eps * s3 * s1, 0.0])


def closed_form(b0, epsilon: float, t: float) -> BlochVector:
    """Exact solution: s3 constant, (s1, s2) rotated by the angle 2*eps*s3*t,
    evaluated by the same rotation kernel as evolve_ensemble."""
    b0 = _as_bloch(b0)
    return BlochVector(*_rotation_points(b0, 2.0 * epsilon * b0.s3, np.array([t]))[0])


def integrate_rk4(b0, epsilon: float, t_max: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Classical fourth-order Runge-Kutta on the mean-value equations: the
    grid time_grid(t_max, dt) and the `(n, 3)` Bloch vectors on it.

    Consumes only eom_rhs; serves as the independent check on closed_form.
    """
    times = time_grid(t_max, dt)
    points = np.empty((times.size, 3))
    y = bloch_array(_as_bloch(b0))
    points[0] = y
    for i in range(times.size - 1):
        h = times[i + 1] - times[i]
        k1 = eom_rhs(y, epsilon)
        k2 = eom_rhs(y + 0.5 * h * k1, epsilon)
        k3 = eom_rhs(y + 0.5 * h * k2, epsilon)
        k4 = eom_rhs(y + h * k3, epsilon)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        points[i + 1] = y
    return times, points
