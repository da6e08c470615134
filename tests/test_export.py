"""The streamed exporter against a per-float route.

`tests/oracles.py` keeps that route: every float formatted on its own
and, in JSON, parsed back and written by the json encoder. These tests pin
the fast route to it byte for byte, from single float texts up to whole
reports cut into chunks of any row count, and check how the exporter
writes: atomically to `--out`, the same bytes to stdout, and in memory that
stays near one chunk.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import oracles
from spinpair import cli
from spinpair.cli import RunConfig, emit_report, main
from spinpair.scenarios import (
    SPECS,
    BasisChoice,
    ContractCheck,
    DegenerateConfigError,
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
    2.0**53, 2.0**53 + 2, 1.7976931348623157e308, 5.551115123125783e-17, 2.0**-1016,
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
@example(values=[0.0, -0.0], precision=12)  # equal values, two bit patterns
@example(values=[-0.0, -0.0, -0.0], precision=12)
@example(values=[-0.0, 0.0, -0.0], precision=12)  # ends agree, the middle's sign does not
@example(values=[1.0, 2.0, 1.0], precision=12)  # ends agree, the middle's value does not
@example(values=[5e-324] * 3, precision=15)
@example(values=[1e15] * 2, precision=12)
@example(values=[2.0**-1016] * 2, precision=16)
def test_float_texts_match_the_per_float_route(values, precision):
    array = np.array(values, dtype=float)
    assert cli._float_texts(array, precision) == [format(x, f".{precision}g") for x in values]
    assert cli._float_texts(array, precision, as_json=True) == [
        repr(float(format(x, f".{precision}g"))) for x in values
    ]


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_powers_of_two_match_the_per_float_route(sign):
    """A power of two has a narrower rounding interval below it than above,
    so at precision 16 its shortest repr can read back from a 16-digit text
    that the nearest 16-digit decimal does not (2**-1016 is one)."""
    values = [sign * 2.0**k for k in range(-1074, 1024)]
    for precision in (16, 17):
        assert cli._float_texts(np.array(values), precision, as_json=True) == [
            repr(float(format(x, f".{precision}g"))) for x in values
        ]


ARM_SCENARIOS = [scenario for scenario, spec in SPECS.items() if spec.arms]


def neighbour(x, side):
    """x, or the next float above (side 1) or below (side -1) it."""
    with np.errstate(over="ignore"):  # beyond the largest float lies inf
        return x if side == 0 else float(np.nextafter(x, side * np.inf))


# Floats that the numpy formatter must round as the per-float route does:
# halfway cases at every digit position and their neighbours, values that
# round up into the next decade (and so into another form), signed zeros and
# subnormals, integral values, and values in exponent form.
KERNEL_FLOATS = st.one_of(
    st.sampled_from(EDGE_FLOATS + [9.99999999999995e-05, 9.999999999995, 9.9999995, 0.000999999999999995]),
    st.builds(
        lambda k, j, side: neighbour((k + 0.5) * 10.0**-j, side),
        st.integers(0, 10**14), st.integers(-5, 25), st.sampled_from([-1, 0, 1]),
    ),
    st.builds(
        lambda j, gap, side: neighbour(10.0**j * (1.0 - gap), side),
        st.integers(-300, 300), st.sampled_from([0.0, 5e-7, 5e-13, 5e-14, 5e-15, 2e-16]), st.sampled_from([-1, 0, 1]),
    ),
    st.integers(-(10**17), 10**17).map(float),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-10.0, 10.0), st.integers(-300, 300)),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    values=st.lists(KERNEL_FLOATS, min_size=1, max_size=32),
    negate=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    precision=st.integers(6, 17),
    as_json=st.booleans(),
)
@example(values=[9.99999999999995e-05, 9.999999999995, 0.0, -0.0, 5e-324], negate=False, seed=0, precision=12, as_json=True)
@example(values=[1e12, 1e13, 123456.0, 2.0**53], negate=True, seed=1, precision=12, as_json=False)
def test_long_columns_match_the_per_float_route(values, negate, seed, precision, as_json):
    """A column of CROSSOVER values, which numpy formats up to precision 13:
    the drawn values, the float nearest the decimal halfway between each
    one's two neighbours at this precision and that float's own neighbours,
    at random places among values of a trajectory's size, written by the row
    emitter as one value per line."""
    halves = [float("5e".join(f"{x:.{precision - 1}e}".split("e"))) for x in values]
    values = values + [y for x in halves for y in (neighbour(x, -1), x, neighbour(x, 1)) if np.isfinite(y)]
    rng = np.random.default_rng(seed)
    column = rng.uniform(-1.0, 1.0, cli.CROSSOVER)
    column[rng.choice(cli.CROSSOVER, len(values), replace=False)] = values
    if negate:
        column = -column
    expected = [format(x, f".{precision}g") for x in column.tolist()]
    if as_json:
        expected = [repr(float(text)) for text in expected]
    written = []
    cli._write_rows(written.append, len(column), lambda start, stop: [column[start:stop]], ["", ""], precision, as_json, "\n")
    assert "".join(written).split("\n") == expected


def nonconstant_chunks(report):
    """Every chunk of ROWS values of the report's grid and of each column of
    its trajectories, but for columns of one bit pattern."""
    trajectories = [*report.arms.values(), *report.narrative["per_outcome_trajectories"].values()]
    for array in [report.times, *(trajectory.rows() for trajectory in trajectories)]:
        for column in array.reshape(len(array), -1).T:
            for start in range(0, len(column), cli.ROWS):
                chunk = column[start : start + cli.ROWS]
                if not cli._one_bit_pattern(chunk):
                    yield chunk


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize("scenario", ARM_SCENARIOS)
def test_numpy_formats_nearly_every_value_of_a_default_report(scenario, as_json):
    """At most 1% of the values in the default reports' varying columns go
    to the per-float route, so a change that quietly sends every value back
    through Python fails here."""
    per_float, texts = [], cli._float_texts

    def count(column, precision, as_json=False):
        per_float.append(len(column))
        return texts(column, precision, as_json)

    total = 0
    with mock.patch.object(cli, "_float_texts", count):
        for chunk in nonconstant_chunks(run_scenario(scenario, ScenarioConfig())):
            assert len(chunk) >= cli.CROSSOVER
            cli._float_cells(chunk, 12, as_json)
            total += len(chunk)
    assert sum(per_float) <= 0.01 * total


# Row counts a trajectory is cut into: one and two rows per chunk, a count
# that leaves a short last chunk, and the exporter's own.
CHUNK_ROWS = [1, 2, 7, cli.ROWS]


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
    document and share one time grid; every one must come out as before,
    whatever the chunk size."""
    cfg = ScenarioConfig(p=p, epsilon=epsilon, t_max=t_max, dt=t_max / steps, basis_choice=basis)
    try:
        report = run_scenario(scenario, cfg)
    except DegenerateConfigError:  # sec6 without a contrast: no report to export
        reject()
    assert_matches_the_oracle(report, precision)


def assert_matches_the_oracle(report, precision, chunk_rows=CHUNK_ROWS):
    json_text, csv_text = oracles.render_json(report, precision), oracles.render_csv(report, precision)
    for rows in chunk_rows:
        with mock.patch.object(cli, "ROWS", rows):
            assert oracles.rendered(cli._render_json(report, precision)) == json_text
            assert oracles.rendered(cli._render_csv(report, precision)) == csv_text


@pytest.mark.parametrize(
    "rows, points",
    # a scenario's grid has at least two points
    [(rows, rows + offset) for rows in CHUNK_ROWS for offset in (-1, 0, 1) if rows + offset >= 2],
)
def test_grids_at_a_chunk_boundary_match_the_per_float_route(rows, points):
    """Grids of ROWS - 1, ROWS and ROWS + 1 points: one short chunk, one
    full chunk, and a full chunk followed by a single row."""
    report = run_scenario(ScenarioId.ENTANGLEMENT, ScenarioConfig(t_max=points - 1, dt=1.0))
    assert len(report.arms["armA"].rows()) == points
    assert_matches_the_oracle(report, 12, [rows])


@pytest.mark.parametrize("precision", [6, 12, 13, 16])
@pytest.mark.parametrize("scenario", [ScenarioId.NO_CORRELATIONS, ScenarioId.ENTANGLEMENT])
def test_long_chunks_match_the_per_float_route(scenario, precision):
    """Chunks of CROSSOVER rows, which numpy formats up to precision 13, and
    a last chunk of one row, which takes the per-float route. The tiny
    epsilons give the formatter's rare cells: negative subnormals, whose
    per-float texts are wider than its cells, normals below 1e-307, which
    JSON spells as they are, and three exponent digits."""
    for epsilon in (1.481537, -1e-310, 1e-307, 1e-200):
        cfg = ScenarioConfig(p=0.637218, epsilon=epsilon, t_max=2.0, dt=2.0 / (2 * cli.CROSSOVER))
        report = run_scenario(scenario, cfg)
        assert len(report.times) == 2 * cli.CROSSOVER + 1
        assert_matches_the_oracle(report, precision, [cli.CROSSOVER])


def nested_report(narrative_extra=None):
    """A hand-made report with trajectories in lists and in nested dicts, on
    one time grid, holding the floats whose spellings differ."""
    times = np.array([0.0, 1e-5, 1.0, 1e12])
    odd = oracles.GivenPoints(times, np.array([[0.0, -0.0, 5e-324], [1e-310, 1.0, -1.0],
                                               [1e15, 1 / 3, 0.1 + 0.2], [2.0**53, -5e-324, 1e16]]))
    flat = oracles.GivenPoints(times, np.full((4, 3), 0.25))
    narrative = {
        "per_outcome_trajectories": {"outcome0": flat, "outcome1": odd},
        "deeper": {"list": [odd, {"again": flat}], "value": -0.0},
        **(narrative_extra or {}),
    }
    return ScenarioReport(
        ScenarioId.ENTANGLEMENT,
        ScenarioConfig(t_max=1, dt=0.5),
        times,
        {"armA": odd, "arm%B": flat},
        1e-5,
        narrative,
        (ContractCheck("made-up bound", 5e-324, 1e12),),
    )


@pytest.mark.parametrize("precision", [6, 12, 15, 16, 17])
def test_nested_trajectories_match_the_per_float_route(precision):
    assert_matches_the_oracle(nested_report(), precision)


def test_a_stray_placeholder_refuses_to_write(tmp_path):
    """A string that reads as a trajectory slot leaves the slot count wrong:
    the render fails and no file is written."""
    path = tmp_path / "out.json"
    report = nested_report({"note": "\x000\x00"})
    cfg = RunConfig("run", ScenarioId.ENTANGLEMENT, ScenarioConfig(), str(path), "json", 12)
    with pytest.raises(RuntimeError, match="slots"):
        emit_report(report, cfg)
    assert not path.exists()


def streamed_peak(report, fmt="json"):
    """(tracemalloc peak, bytes written) of rendering the report's JSON, or
    its CSV, into a sink that keeps nothing."""
    size = 0

    def discard(text):
        nonlocal size
        size += len(text)

    render = {"json": cli._render_json, "csv": cli._render_csv}[fmt]
    tracemalloc.start()
    try:
        render(report, 12)(discard)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, size


def test_json_memory_stays_near_the_output_size():
    """Streamed, the default sec8 JSON peaks at no more than half the text it
    writes (the whole document joined at once peaked near 2x), and a grid
    four times as long within a tenth of that peak: the time grid is
    streamed like any other array, so nothing kept grows with the grid."""
    peak, size = streamed_peak(run_scenario(ScenarioId.ENTANGLEMENT, ScenarioConfig()))
    assert peak <= 0.5 * size
    longer, longer_size = streamed_peak(run_scenario(ScenarioId.ENTANGLEMENT, ScenarioConfig(t_max=40)))
    assert longer_size > 3.9 * size
    assert longer <= 1.1 * peak


def test_csv_memory_stays_flat_in_the_grid_length():
    """Streamed, the default sec8 CSV peaks at no more than twice the text it
    writes, and a grid four times as long at no more than 1.25 times that
    peak. Both bounds were measured on the exporter that formatted each float
    on its own and kept the time grid's text for all arms: 1.80 times the
    798,615 bytes written, and 1.16 times that peak at the 4x grid (the kept
    grid text grows with the grid); each bound adds about a tenth of slack."""
    peak, size = streamed_peak(run_scenario(ScenarioId.ENTANGLEMENT, ScenarioConfig()), "csv")
    assert peak <= 2.0 * size
    longer, longer_size = streamed_peak(run_scenario(ScenarioId.ENTANGLEMENT, ScenarioConfig(t_max=40)), "csv")
    assert longer_size > 3.9 * size
    assert longer <= 1.25 * peak


@pytest.mark.parametrize("existing", [None, b"old bytes\n"])
def test_a_failed_write_leaves_no_file(existing, tmp_path, monkeypatch, capsys):
    """The stream breaks once its first chunk (the skeleton up to the first
    trajectory) has gone to the temporary file."""

    def full_disk(*args):
        raise OSError("no space left on device")

    path = tmp_path / "out.json"
    if existing is not None:
        path.write_bytes(existing)
    monkeypatch.setattr(cli, "_write_array", full_disk)
    assert main(["run", "sec8", "--t-max", "1", "--dt", "0.1", "--format", "json", "--out", str(path)]) == 1
    assert "no space left on device" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ([] if existing is None else ["out.json"])
    if existing is not None:
        assert path.read_bytes() == existing


def test_a_finished_write_replaces_the_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"old bytes\n")
    args = ["run", "sec5", "--t-max", "1", "--dt", "0.1", "--out", str(path)]
    assert main(args) == 0
    assert path.read_text().startswith("t,arm,sigma1,sigma2,sigma3\n")
    assert os.listdir(tmp_path) == ["out.csv"]


@pytest.mark.parametrize("planted", ["file", "symlink"])
def test_a_stale_temporary_file_is_replaced(planted, tmp_path):
    """A run killed mid-write leaves its temporary file behind; a later run
    that gets the same pid removes it and writes the target with the mode a
    fresh write gets. A symlink planted there is removed, never followed."""
    stale = tmp_path / f".r.csv.{os.getpid()}.tmp"
    victim = tmp_path / "victim"
    victim.write_bytes(b"keep\n")
    if planted == "file":
        stale.write_bytes(b"partial")
    else:
        stale.symlink_to(victim)
    args = ["run", "sec5", "--t-max", "1", "--dt", "0.1", "--out"]
    assert main([*args, str(tmp_path / "r.csv")]) == 0
    assert main([*args, str(tmp_path / "fresh.csv")]) == 0
    assert sorted(os.listdir(tmp_path)) == ["fresh.csv", "r.csv", "victim"]
    assert victim.read_bytes() == b"keep\n"
    assert (tmp_path / "r.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()
    assert (tmp_path / "r.csv").stat().st_mode == (tmp_path / "fresh.csv").stat().st_mode


def test_out_may_name_a_device():
    """A target that is not a regular file is written in place, not replaced."""
    assert main(["run", "sec5", "--t-max", "1", "--dt", "0.1", "--out", os.devnull]) == 0
    assert not os.path.isfile(os.devnull)


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(__file__))), "src")


def spinpair(*argv, **kwargs):
    """A `python -m spinpair` child with the package from this checkout."""
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.Popen([sys.executable, "-m", "spinpair", *argv], env=env, **kwargs)


@pytest.mark.parametrize("stdout", ["/dev/stdout", "/dev/fd/1"])
def test_out_may_name_stdout_on_a_pipe(stdout, tmp_path):
    """/dev/stdout on a pipe resolves to a name that no file has; the pipe
    is written in place, with the bytes --out FILE gets."""
    argv = ["verify-linear", "--trials", "3"]
    path = tmp_path / "out.json"
    assert spinpair(*argv, "--out", str(path)).wait(timeout=60) == 0
    child = spinpair(*argv, "--out", stdout, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = child.communicate(timeout=60)
    assert (child.returncode, err) == (0, b"")
    assert out == path.read_bytes()


# Max RSS of `run sec8 --t-max 1000 --out /dev/null` (1,000,001 grid points):
# 40.9-41.1 MB in CSV and in JSON over four runs each (374 MB when a report
# held its points). One (n, 3) array kept for the whole grid adds 24 MB, and
# the cos/sin pairs of one rate kept for the whole run 16 MB.
CAP_RUN_RSS_MB = 60

# Runs argv and prints its exit code and ru_maxrss in KiB. A process's
# ru_maxrss starts from the RSS of the process it was forked from, and a
# test process is large; this one is small, so the command's own peak shows.
MEASURE = r"""
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:])
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_the_cap_run_stays_near_one_chunk(fmt):
    """At the grid cap a run holds the grid and about one chunk of each
    trajectory, so its peak stays below that of one trajectory's points."""
    argv = [sys.executable, "-m", "spinpair", "run", "sec8", "--t-max", "1000", "--format", fmt, "--out", os.devnull]
    measured = subprocess.run(
        [sys.executable, "-c", MEASURE, *argv],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=120, check=True,
    )
    code, max_rss_kib = map(int, measured.stdout.split())
    assert code == 0
    assert max_rss_kib / 1024 <= CAP_RUN_RSS_MB


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_stdout_gets_the_bytes_of_out(fmt, tmp_path, capsys):
    args = ["run", "sec8", "--t-max", "2", "--dt", "0.01", "--format", fmt]
    path = tmp_path / f"out.{fmt}"
    with mock.patch.object(cli, "ROWS", 7):  # several chunks per trajectory
        assert main(args) == 0
        streamed = capsys.readouterr().out
        assert main([*args, "--out", str(path)]) == 0
    assert streamed.encode("utf-8") == path.read_bytes()
