"""The per-array exporter against the per-float route it replaced.

`tests/oracles.py` keeps the old route: every float formatted on its own
and, in JSON, parsed back and written by the json encoder. These tests pin
the fast route to it byte for byte, from single float texts up to whole
reports, and bound the exporter's memory.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from spinpair import cli
from spinpair.cli import RunConfig, emit_report
from spinpair.dynamics_nonlinear import Trajectory
from spinpair.scenarios import (
    SPECS,
    BasisChoice,
    ContractCheck,
    ScenarioConfig,
    ScenarioId,
    ScenarioReport,
    run_scenario,
)

# Floats whose %g text and repr spelling part ways: integral values, signed
# zeros, subnormals, the smallest normals, the switch to exponent notation on
# both sides (1e-5, 1e12-1e16), and values that need all 17 digits.
EDGE_FLOATS = [
    0.0, -0.0, 1.0, -1.0, 2.0, 100.0, 123456.0, 1234567.0,
    5e-324, -5e-324, 1e-310, 3.5e-320, 2.2250738585072014e-308, 2.225073858507201e-308, 1e-308,
    1e-5, 1.5e-5, 9.99999999999e-5, 1e-4, 0.1, 0.2 + 0.1, 1 / 3, 2 / 3,
    0.9999999999999999, 0.99999999999995, 1.0000000000000002,
    1e12, 1e13, 1e14, 1e15, 1e16, 1.5e15, 9.999999999999999e14, 123456789012345.6,
    2.0**53, 2.0**53 + 2, 1.7976931348623157e308, 5.551115123125783e-17,
]

FLOATS = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.integers(-(10**17), 10**17).map(float),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-10.0, 10.0), st.integers(-20, 20)),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(values=st.lists(FLOATS, min_size=1, max_size=24), precision=st.integers(6, 17))
@example(values=[5e-324], precision=12)
@example(values=[1e-310], precision=15)
@example(values=[0.0, -0.0, 1e12, 1e15, 1e16], precision=12)
def test_float_texts_match_the_per_float_route(values, precision):
    array = np.array(values, dtype=float)
    assert cli._float_texts(array, precision) == [format(x, f".{precision}g") for x in values]
    assert cli._float_texts(array, precision, as_json=True) == [
        repr(float(format(x, f".{precision}g"))) for x in values
    ]


ARM_SCENARIOS = [scenario for scenario, spec in SPECS.items() if spec.arms]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    scenario=st.sampled_from(ARM_SCENARIOS),
    p=st.floats(0.05, 0.95),
    # a subnormal epsilon turns subnormal rotation angles into subnormal points
    epsilon=st.one_of(st.floats(-4.0, 4.0), st.sampled_from([5e-324, -1e-310, 1e-310])),
    t_max=st.floats(0.01, 20.0),
    steps=st.floats(1.0, 40.0),
    basis=st.sampled_from(list(BasisChoice)),
    precision=st.integers(6, 17),
)
@example(ScenarioId.CHANGED_CORRELATIONS, 0.75, 1e-310, 2.0, 20.0, BasisChoice.UPDOWN, 12)
def test_reports_match_the_per_float_route(scenario, p, epsilon, t_max, steps, basis, precision):
    """Arms and per-outcome trajectories sit at different depths of the
    document and share one time grid; every one must come out as before."""
    cfg = ScenarioConfig(p=p, epsilon=epsilon, t_max=t_max, dt=t_max / steps, basis_choice=basis)
    report = run_scenario(scenario, cfg)
    assert cli._render_json(report, precision) == oracles.render_json(report, precision)
    assert cli._render_csv(report, precision) == oracles.render_csv(report, precision)


def nested_report(narrative_extra=None):
    """A hand-made report with trajectories in lists, in nested dicts and on
    two time grids, holding the floats whose spellings differ."""
    grid = np.array([0.0, 1e-5, 1.0, 1e12])
    odd = Trajectory(grid, np.array([[0.0, -0.0, 5e-324], [1e-310, 1.0, -1.0],
                                     [1e15, 1 / 3, 0.1 + 0.2], [2.0**53, -5e-324, 1e16]]))
    flat = Trajectory(grid, np.full((4, 3), 0.25))
    other = Trajectory(np.array([0.5]), np.array([[0.5, -0.5, 0.0]]))
    narrative = {
        "per_outcome_trajectories": {"outcome0": flat, "outcome1": odd},
        "deeper": {"list": [other, {"again": flat}], "value": -0.0},
        **(narrative_extra or {}),
    }
    return ScenarioReport(
        ScenarioId.ENTANGLEMENT,
        ScenarioConfig(t_max=1, dt=0.5),
        {"armA": odd, "arm%B": flat},
        1e-5,
        narrative,
        (ContractCheck("made-up bound", 5e-324, 1e12),),
    )


@pytest.mark.parametrize("precision", [6, 12, 15, 16, 17])
def test_nested_trajectories_match_the_per_float_route(precision):
    report = nested_report()
    assert cli._render_json(report, precision) == oracles.render_json(report, precision)
    assert cli._render_csv(report, precision) == oracles.render_csv(report, precision)


def test_a_stray_placeholder_refuses_to_write(tmp_path):
    """A string that reads as a trajectory slot leaves the slot count wrong:
    the render fails and no file is written."""
    path = tmp_path / "out.json"
    report = nested_report({"note": "\x000\x00"})
    cfg = RunConfig("run", ScenarioId.ENTANGLEMENT, ScenarioConfig(), str(path), "json", 12)
    with pytest.raises(RuntimeError, match="slots"):
        emit_report(report, cfg)
    assert not path.exists()


def test_json_memory_stays_near_the_output_size():
    """Rendering the default sec8 JSON peaks at no more than 3x the text it
    returns; building nested lists of Python floats peaks near 7x."""
    report = run_scenario(ScenarioId.ENTANGLEMENT, ScenarioConfig())
    tracemalloc.start()
    try:
        text = cli._render_json(report, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * len(text)
    assert json.loads(text)["scenario"] == "entanglement"
