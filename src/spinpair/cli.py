"""Command-line front end: run scenarios, verify the linear suite, export results.

Exit codes: 0 when every scenario contract holds, 2 when a contract check
fails, 1 on usage or I/O errors. Output is deterministic: identical
invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics_nonlinear import Trajectory
from .scenarios import (
    SPECS,
    BasisChoice,
    ScenarioConfig,
    ScenarioId,
    ScenarioReport,
    run_scenario,
)

ALIASES = {"linear": "sec3"}
BY_NAME = {spec.name: scenario for scenario, spec in SPECS.items()}


class UsageError(Exception):
    """Malformed command line; reported on stderr with exit code 1."""


@dataclass(frozen=True)
class RunConfig:
    """Parsed command line: what to run and how to emit it."""

    command: str
    scenario: ScenarioId | None
    config: ScenarioConfig
    out: str | None
    fmt: str
    precision: int


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads "-1e-3" as an option; take exponent notation as a number too
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$", re.I)

    def error(self, message: str):  # argparse would sys.exit(2); route to exit code 1
        raise UsageError(message)


def _precision(text: str) -> int:
    value = int(text)
    if not 6 <= value <= 17:
        raise argparse.ArgumentTypeError(f"precision must lie in [6, 17], got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spinpair",
        description="Two-spin pair simulator: contrast linear dynamics with state-dependent precession.",
    )
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="run one scenario and export its report")
    run_p.add_argument("scenario", help="scenario name; see 'spinpair list'")
    run_p.add_argument("--p", type=float, default=None, help="mixing weight (default 0.75)")
    run_p.add_argument("--epsilon", type=float, default=None, help="precession scale (default 1.0)")
    run_p.add_argument("--t-max", type=float, default=None, help="end of the time grid (default 10)")
    run_p.add_argument("--dt", type=float, default=None, help="grid spacing (default 1e-3)")
    run_p.add_argument(
        "--basis",
        choices=[b.value for b in BasisChoice],
        default=None,
        help="remote basis to feature in the entanglement scenario",
    )
    run_p.add_argument("--seed", type=int, default=None, help="seed for the randomized suite (default 42)")
    run_p.add_argument("--trials", type=int, default=None, help="trials for the randomized suite (default 1000)")
    run_p.add_argument("--out", default=None, help="output file (default: stdout)")
    run_p.add_argument(
        "--format", choices=["csv", "json"], default=None, help="default csv; sec3 is json only"
    )
    run_p.add_argument("--precision", type=_precision, default=12)

    verify_p = sub.add_parser("verify-linear", help="run the randomized linear-theory suite")
    verify_p.add_argument("--trials", type=int, default=None)
    verify_p.add_argument("--seed", type=int, default=None)
    verify_p.add_argument("--out", default=None)
    verify_p.add_argument("--format", choices=["csv", "json"], default="json")
    verify_p.add_argument("--precision", type=_precision, default=12)

    sub.add_parser("list", help="list scenario names")
    return parser


def _build_scenario_config(ns: argparse.Namespace) -> ScenarioConfig:
    overrides = {}
    for key in ("p", "epsilon", "t_max", "dt", "seed", "trials"):
        value = getattr(ns, key, None)
        if value is not None:
            overrides[key] = value
    basis = getattr(ns, "basis", None)
    if basis is not None:
        overrides["basis_choice"] = BasisChoice(basis)
    try:
        return ScenarioConfig(**overrides)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def parse_args(argv) -> RunConfig:
    """Parse the command line; raises UsageError on any malformed input."""
    ns = build_parser().parse_args(list(argv))
    if ns.command is None:
        raise UsageError("a command is required: run, verify-linear, or list")
    if ns.command == "list":
        return RunConfig("list", None, ScenarioConfig(), None, "csv", 12)
    # verify-linear is the linear suite under its own flags
    requested = "linear" if ns.command == "verify-linear" else ns.scenario
    name = ALIASES.get(requested, requested)
    if name not in BY_NAME:
        valid = ", ".join([*BY_NAME, *ALIASES])
        raise UsageError(f"unknown scenario {requested!r}; valid names: {valid}")
    scenario = BY_NAME[name]
    has_arms = bool(SPECS[scenario].arms)
    if ns.format == "csv" and not has_arms:
        raise UsageError(f"{name} has no trajectories to write as CSV; use --format json")
    fmt = ns.format or ("csv" if has_arms else "json")
    return RunConfig(ns.command, scenario, _build_scenario_config(ns), ns.out, fmt, ns.precision)


def _fmt(value: float, precision: int) -> str:
    return format(float(value), f".{precision}g")


def _round(value: float, precision: int) -> float:
    return float(_fmt(value, precision))


def _jsonable(value, precision: int):
    if isinstance(value, Trajectory):
        return {
            "times": [_round(t, precision) for t in value.times],
            "points": [[_round(c, precision) for c in row] for row in value.points],
        }
    if isinstance(value, dict):
        return {str(k): _jsonable(v, precision) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v, precision) for v in value]
    if isinstance(value, (float, np.floating)):
        return _round(float(value), precision)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist(), precision)
    return value


def _render_csv(report: ScenarioReport, precision: int) -> str:
    lines = ["t,arm,sigma1,sigma2,sigma3"]
    for arm_name, traj in report.arms.items():
        for i in range(len(traj)):
            lines.append(
                f"{_fmt(traj.times[i], precision)},{arm_name},"
                f"{_fmt(traj.points[i, 0], precision)},"
                f"{_fmt(traj.points[i, 1], precision)},"
                f"{_fmt(traj.points[i, 2], precision)}"
            )
    return "\n".join(lines) + "\n"


def _render_json(report: ScenarioReport, precision: int) -> str:
    doc = {
        "scenario": report.scenario.value,
        "config": {
            "p": _round(report.config.p, precision),
            "epsilon": _round(report.config.epsilon, precision),
            "t_max": _round(report.config.t_max, precision),
            "dt": _round(report.config.dt, precision),
            "basis_choice": report.config.basis_choice.value,
            "seed": report.config.seed,
            "trials": report.config.trials,
        },
        "divergence": _round(report.divergence, precision),
        "contracts_ok": report.contracts_ok,
        "checks": [
            {
                "name": check.name,
                "value": _round(check.value, precision),
                "bound": _round(check.bound, precision),
                "comparison": check.comparison,
                "passed": check.passed,
            }
            for check in report.checks
        ],
        "arms": {name: _jsonable(traj, precision) for name, traj in report.arms.items()},
        "narrative": _jsonable(report.narrative, precision),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def emit_report(report: ScenarioReport, cfg: RunConfig) -> int:
    """Write the report in the configured format; 0 if all contracts hold, else 2."""
    if cfg.fmt == "csv":
        text = _render_csv(report, cfg.precision)
    elif cfg.fmt == "json":
        text = _render_json(report, cfg.precision)
    else:
        raise UsageError(f"unknown format {cfg.fmt!r}")
    if cfg.out is None:
        sys.stdout.write(text)
    else:
        Path(cfg.out).write_text(text, encoding="utf-8")
    return 0 if report.contracts_ok else 2


def _print_scenario_list() -> None:
    print("available scenarios:")
    aliases = {target: alias for alias, target in ALIASES.items()}
    for name, scenario in BY_NAME.items():
        note = f" (alias: {aliases[name]})" if name in aliases else ""
        print(f"  {name:10s} {SPECS[scenario].summary}{note}")
    for alias, target in ALIASES.items():
        print(f"  {alias:10s} alias for {target}")


def main(argv=None) -> int:
    try:
        cfg = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if cfg.command == "list":
        _print_scenario_list()
        return 0
    try:
        report = run_scenario(cfg.scenario, cfg.config)
    except ValueError as exc:  # DegenerateConfigError or an invalid grid
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return emit_report(report, cfg)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())
