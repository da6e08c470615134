"""Slow reference routes kept for the tests.

The exporter in `spinpair.cli` renders each trajectory's float columns to
text, splices them into a `json.dumps` of the rest of the report, and
streams the result in chunks of rows. The routes below are the per-float
originals it replaced: every float is formatted with `format(x, ".{p}g")`,
and in JSON parsed back and written by the json encoder. The fast routes
must match them byte for byte; `rendered` joins what they stream.
"""

from __future__ import annotations

import enum
import json
from dataclasses import asdict

from spinpair.dynamics_nonlinear import Trajectory
from spinpair.scenarios import ScenarioReport


def rendered(render) -> str:
    """The whole text that a writer from `spinpair.cli` passes to `write`."""
    parts = []
    render(parts.append)
    return "".join(parts)


def fmt(value: float, precision: int) -> str:
    return format(float(value), f".{precision}g")


def rounded(value: float, precision: int) -> float:
    return float(fmt(value, precision))


def jsonable(value, precision: int):
    if isinstance(value, Trajectory):
        return {
            "times": [rounded(t, precision) for t in value.times],
            "points": [[rounded(c, precision) for c in row] for row in value.points],
        }
    if isinstance(value, dict):
        return {str(k): jsonable(v, precision) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v, precision) for v in value]
    if isinstance(value, float):
        return rounded(value, precision)
    if isinstance(value, enum.Enum):
        return value.value
    return value


def render_csv(report: ScenarioReport, precision: int) -> str:
    lines = ["t,arm,sigma1,sigma2,sigma3"]
    for arm_name, traj in report.arms.items():
        for i in range(len(traj)):
            lines.append(
                f"{fmt(traj.times[i], precision)},{arm_name},"
                f"{fmt(traj.points[i, 0], precision)},"
                f"{fmt(traj.points[i, 1], precision)},"
                f"{fmt(traj.points[i, 2], precision)}"
            )
    return "\n".join(lines) + "\n"


def render_json(report: ScenarioReport, precision: int) -> str:
    doc = {
        "scenario": report.scenario,
        "config": asdict(report.config),
        "divergence": report.divergence,
        "contracts_ok": report.contracts_ok,
        "checks": [{**asdict(check), "passed": check.passed} for check in report.checks],
        "arms": report.arms,
        "narrative": report.narrative,
    }
    return json.dumps(jsonable(doc, precision), indent=2, sort_keys=True) + "\n"
