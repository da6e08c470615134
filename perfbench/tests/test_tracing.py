import json

import pytest

from spbench import tracing


def table(spans):
    """SpanTable from (name, parent, cmd, start, end) tuples."""
    names = sorted({s[0] for s in spans})
    return tracing.SpanTable(
        names,
        [names.index(s[0]) for s in spans],
        [s[1] for s in spans],
        [s[2] for s in spans],
        [s[3] for s in spans],
        [s[4] for s in spans],
        [0] * len(spans),
    )


# One command: cli.main [0, 10] holds scenarios.run [1, 6] and cli.emit [7, 9];
# scenarios.run holds qmath.tensor [2, 3] and states.Branch [4, 5.5], which
# holds qmath.tensor [4.5, 5]. A second command runs qmath.tensor alone.
NESTED = [
    ("cli.main", -1, 0, 0.0, 10.0),
    ("scenarios.run_scenario", 0, 0, 1.0, 6.0),
    ("qmath.tensor", 1, 0, 2.0, 3.0),
    ("states.Branch", 1, 0, 4.0, 5.5),
    ("qmath.tensor", 3, 0, 4.5, 5.0),
    ("cli.emit_report", 0, 0, 7.0, 9.0),
    ("cli.main", -1, 1, 20.0, 21.0),
    ("qmath.tensor", 6, 1, 20.25, 20.5),
]


def test_self_time_subtracts_direct_children_only():
    own = list(table(NESTED).self_times())
    assert own == [3.0, 2.5, 1.0, 1.0, 0.5, 2.0, 0.75, 0.25]


def test_layer_self_times_add_up_to_each_root_span():
    summary = tracing.summarize(table(NESTED))
    assert summary["cmd_root"] == {0: 10.0, 1: 1.0}
    assert summary["cmd_self"][0] == pytest.approx(10.0)
    assert summary["cmd_self"][1] == pytest.approx(1.0)
    assert summary["layer_self"] == {"cli": 5.75, "scenarios": 2.5, "qmath": 1.75, "states": 1.0}
    assert summary["layer_calls"] == {"scenarios": 1, "qmath": 3, "states": 1, "cli": 1}
    assert summary["name_time"]["qmath.tensor"] == pytest.approx(1.75)
    assert summary["name_calls"]["qmath.tensor"] == 3


def test_spans_file_has_one_object_per_span(tmp_path):
    path = tmp_path / "spans.jsonl"
    table(NESTED).write_jsonl(path, origin=1.0)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == len(NESTED)
    assert rows[3] == {"id": 3, "name": "states.Branch", "start": 3.0, "end": 4.5, "parent": 1, "cmd": 0, "raised": False}
    assert rows[0]["parent"] is None


def test_tracer_on_a_real_command(tmp_path):
    from spinpair import cli, measurement

    out = tmp_path / "r.csv"
    argv = ["run", "sec6", "--t-max", "1", "--dt", "0.1", "--out", str(out)]
    assert cli.main(argv) == 0
    plain = out.read_bytes()
    originals = (cli.parse_args, measurement.Branch)

    tracer = tracing.Tracer()
    assert tracer.run_command(0, cli.main, argv) == 0
    assert out.read_bytes() == plain
    assert (cli.parse_args, measurement.Branch) == originals

    spans = tracer.spans()
    summary = tracing.summarize(spans)
    assert summary["cmd_self"][0] == pytest.approx(summary["cmd_root"][0], abs=1e-12)
    names = summary["name_calls"]
    for name in ("cli.main", "cli.parse_args", "scenarios.run_scenario", "cli.emit_report"):
        assert names[name] == 1
    assert names["dynamics_nonlinear.evolve_ensemble"] == 3
    assert tracer.counts["grid_points"] == 3 * 11
    assert tracer.counts["outcomes"] == tracer.counts["projectors_tried"] == 2
    assert not any(spans.raised)


def test_tracer_marks_spans_that_raised():
    from spinpair import cli

    tracer = tracing.Tracer()
    argv = ["run", "sec6", "--p", "0", "--t-max", "1", "--dt", "0.1"]
    assert tracer.run_command(0, cli.main, argv) == 1
    spans = tracer.spans()
    raised = [spans.names[spans.name_ids[i]] for i, r in enumerate(spans.raised) if r]
    assert raised == ["scenarios.run_scenario"]


def test_classes_used_as_types_are_not_rebound():
    wrapped = {f"{m.__name__.rpartition('.')[2]}.{attr}" for m, attr, _, _ in tracing.traced_bindings()}
    assert "cli.Trajectory" not in wrapped  # isinstance in cli
    assert "dynamics_nonlinear.BlochVector" not in wrapped  # isinstance in dynamics_nonlinear
    assert "cli.BasisChoice" not in wrapped  # an enum
    assert {"cli.parse_args", "cli.run_scenario", "cli.emit_report", "measurement.Branch",
            "scenarios.evolve_ensemble", "dynamics_linear.measure_all", "states.trace_out_remote"} <= wrapped
