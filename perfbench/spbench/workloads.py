"""Seeded command pools for the benchmark workloads.

Each workload is a short pool of distinct argv lists that the runner cycles
through for the whole run, so every argv is issued several times and a repeat
that writes different bytes is caught. The program receives only argv; every
value in it is drawn from the workload seed.

Why these workloads:

* linear-suite: `verify-linear` at the 1000-trial acceptance-gate size, the
  slowest path. dynamics_linear, measurement, states and qmath do almost all
  of the work; cli writes about 1 KB.
* export-json: `run secN --format json` on the default grid (10,001 points
  per arm). Export is 100-200x the compute, so an export change shows here
  and a compute change does not.
* param-sweep: many small CSV runs on a 101-point grid. Per-command fixed
  cost (parsing, preparation, measurement, contract evaluation) dominates;
  this is where scenarios, dynamics_nonlinear and argument parsing carry a
  measurable share, and it exercises the CSV renderer beside the JSON one.

The scenario mix is balanced, not drawn per command: each of the five
variants (sec5, sec6, sec7, and sec8 with either remote basis) appears equally
often in a pool, and the runner measures whole passes over the pool. The
medians of a run then do not depend on how many of the slow sec8 exports a
seed happened to draw, and with an odd number of variants the median falls
inside one variant's cluster instead of on the gap between two.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("linear-suite", "export-json", "param-sweep")

LINEAR_TRIALS = 1000
LINEAR_POOL = 3
SWEEP_POOL = 200
DEFAULT_T_MAX = 10.0
DEFAULT_DT = 1e-3
SWEEP_DT = 0.1

# sec8 is listed once per remote basis; the others ignore --basis.
VARIANTS = (("sec5", None), ("sec6", None), ("sec7", None), ("sec8", "updown"), ("sec8", "diag"))


@dataclass(frozen=True)
class Command:
    """One argv (without --out) and what its output must look like."""

    argv: tuple[str, ...]
    fmt: str  # "csv" or "json"
    grid: int  # grid points per arm; 0 for the linear suite
    trials: int  # requested trials; 0 for scenario runs

    @property
    def is_linear(self) -> bool:
        return self.trials > 0


def grid_points(t_max: float, dt: float) -> int:
    """Points per arm on a uniform grid from 0 to t_max whose last step may be short."""
    count = math.floor(t_max / dt + 1e-9)
    return count + 1 if dt * count >= t_max - 1e-9 * dt else count + 2


def _num(rng: random.Random, low: float, high: float) -> str:
    """A value drawn strictly inside (low, high), written with six decimals."""
    while True:
        text = f"{rng.uniform(low, high):.6f}"
        if low < float(text) < high:
            return text


def _p(rng: random.Random) -> str:
    return _num(rng, 0.05, 0.95)


def _epsilon(rng: random.Random) -> str:
    return _num(rng, 0.25, 4.0)


def _linear_suite(rng: random.Random) -> list[Command]:
    seeds = rng.sample(range(2**31), LINEAR_POOL)
    return [
        Command(("verify-linear", "--trials", str(LINEAR_TRIALS), "--seed", str(s)), "json", 0, LINEAR_TRIALS)
        for s in seeds
    ]


def _export_json(rng: random.Random) -> list[Command]:
    grid = grid_points(DEFAULT_T_MAX, DEFAULT_DT)
    pool = []
    for name, basis in VARIANTS:
        argv = ["run", name, "--format", "json", "--p", _p(rng), "--epsilon", _epsilon(rng)]
        if basis is not None:
            argv += ["--basis", basis]
        pool.append(Command(tuple(argv), "json", grid, 0))
    rng.shuffle(pool)
    return pool


def _param_sweep(rng: random.Random) -> list[Command]:
    grid = grid_points(DEFAULT_T_MAX, SWEEP_DT)
    variants = list(VARIANTS) * (SWEEP_POOL // len(VARIANTS))
    rng.shuffle(variants)
    return [
        Command(
            (
                "run", name,
                "--t-max", f"{DEFAULT_T_MAX:g}", "--dt", f"{SWEEP_DT:g}",
                "--p", _p(rng), "--epsilon", _epsilon(rng),
                "--basis", basis or rng.choice(("updown", "diag")),
            ),
            "csv",
            grid,
            0,
        )
        for name, basis in variants
    ]


_BUILDERS = {"linear-suite": _linear_suite, "export-json": _export_json, "param-sweep": _param_sweep}


def commands(workload: str, seed: int) -> list[Command]:
    """The workload's command pool; a pure function of (workload, seed)."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
