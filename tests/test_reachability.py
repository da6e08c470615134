"""Every function in src/spinpair runs in some spinpair command.

A fresh interpreter imports spinpair.cli under a sys.settrace hook that
records each code object it enters, then runs the command line at small
sizes: every command, every scenario in both formats at each precision path,
both sec8 bases, a grid long enough for the numpy formatter, output to a file
and to stdout, and the error cases. A def
that none of them enters is dead surface: it goes, or its test-only use
moves into tests/oracles.py or tests/random_inputs.py. EXEMPT names the
defs that stay on purpose; one of them, with the call shapes pinned below,
is what perfbench's traced run reads.
"""

import ast
import inspect
import json
import os
import subprocess
import sys

import pytest

from spinpair.cli import main
from spinpair.dynamics_linear import no_signalling_suite
from spinpair.dynamics_nonlinear import evolve_ensemble
from spinpair.measurement import measure_all
from spinpair.scenarios import DIAG_BASIS, SINGLET_PREPARATION

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
PACKAGE = os.path.join(SRC, "spinpair")

EXEMPT = {
    "measurement.MeasurementBasis.__len__": "perfbench's tracer counts the projectors tried with len(basis)",
}


def test_the_call_shapes_perfbench_reads():
    """perfbench's traced run reads these arguments by position or by name:
    the grid of evolve_ensemble, the trials of no_signalling_suite, and the
    basis of measure_all, whose len() and the len() of its result it counts.
    A change to one of them fails here rather than in a benchmark run."""

    def parameter(function, index):
        return list(inspect.signature(function).parameters)[index]

    assert parameter(evolve_ensemble, 3) == "times"
    assert parameter(no_signalling_suite, 0) == "trials"
    assert parameter(measure_all, 1) == "basis"
    basis = DIAG_BASIS
    assert len(basis) == 2
    assert len(measure_all(SINGLET_PREPARATION, basis)) == 2


@pytest.mark.parametrize(
    "name, basis", [("sec5", None), ("sec6", None), ("sec7", None), ("sec8", "updown"), ("sec8", "diag")]
)
def test_the_json_shape_perfbench_reads(name, basis, tmp_path):
    """perfbench's export-json run counts a command as failed unless its
    report has contracts_ok true and exactly the arms armA and armB, each
    with a points list as long as the grid and no times of another length.
    A format change that breaks this fails here rather than in a benchmark
    run."""
    path = tmp_path / "out.json"
    argv = ["run", name, "--format", "json", "--p", "0.3", "--epsilon", "2.5", "--out", str(path)]
    assert main(argv + (["--basis", basis] if basis else [])) == 0
    doc = json.loads(path.read_text())
    assert doc["contracts_ok"] is True
    assert sorted(doc["arms"]) == ["armA", "armB"]
    grid = 10_001  # the default grid, 0 to 10 in steps of 1e-3
    for arm in doc["arms"].values():
        assert isinstance(arm["points"], list) and len(arm["points"]) == grid
        assert len(arm.get("times", arm["points"])) == grid


def test_the_trial_count_perfbench_reads(tmp_path):
    """perfbench's linear-suite run checks the report's config.trials against
    the --trials it asked for."""
    path = tmp_path / "out.json"
    assert main(["verify-linear", "--trials", "37", "--seed", "5", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    assert doc["contracts_ok"] is True
    assert doc["config"]["trials"] == 37


SMALL = ["--t-max", "1", "--dt", "0.1"]
COMMANDS = [
    ["list"],
    ["run", "sec3", "--trials", "10"],
    ["run", "linear", "--trials", "10"],
    ["verify-linear", "--trials", "10", "--seed", "3"],
    *(
        ["run", name, *SMALL, "--format", fmt, "--precision", precision]
        for name in ("sec5", "sec6", "sec7", "sec8")
        for fmt in ("csv", "json")
        for precision in ("6", "12", "16", "17")
    ),
    ["run", "sec8", *SMALL, "--basis", "updown"],
    ["run", "sec8", *SMALL, "--basis", "diag", "--format", "json"],
    # a grid of cli.CROSSOVER points or more, which numpy formats
    *(["run", "sec8", "--t-max", "1", "--dt", "0.002", "--format", fmt] for fmt in ("csv", "json")),
    # error cases, each ending in exit 1
    [],
    ["run", "sec9"],
    ["run", "sec5", "--precision", "5"],
    ["run", "sec3", "--format", "csv"],
    ["run", "sec5", "--p", "2"],
    ["run", "sec6", "--p", "0"],
    ["run", "sec6", "--epsilon", "0"],
]

# Runs in the child: trace, import, run every command, print what was entered.
CHILD = r"""
import contextlib, io, json, os, sys, tempfile

package, commands = sys.argv[1], json.loads(sys.argv[2])
entered = set()

def trace(frame, event, arg):
    code = frame.f_code
    path = os.path.realpath(code.co_filename)
    if path.startswith(package + os.sep):
        entered.add((os.path.basename(path), code.co_firstlineno))

import numpy  # imported untraced: only spinpair's own calls matter
sys.settrace(trace)
from spinpair import cli

with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
        contextlib.redirect_stderr(io.StringIO()):
    codes = [cli.main([*argv, "--out", os.path.join(tmp, "out")] if argv[:1] == ["run"] else argv)
             for argv in commands]
    codes.append(cli.main(["run", "sec5", "--t-max", "1", "--dt", "0.1"]))  # to stdout
    codes.append(cli.main(["run", "sec5", "--out", os.path.join(tmp, "missing", "out")]))
    sys.argv = ["spinpair", "list"]
    try:
        cli.entry()
    except SystemExit as exc:
        codes.append(exc.code)
sys.settrace(None)
print(json.dumps({"codes": codes, "entered": sorted(entered)}))
"""


def defined_functions() -> dict:
    """(file name, first line of the code object) -> module-qualified name,
    for every def in the package. A decorated def's code starts at its first
    decorator."""
    found = {}

    def walk(node, file_name, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(file_name, first)] = prefix + child.name
                walk(child, file_name, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, file_name, f"{prefix}{child.name}.")
            else:
                walk(child, file_name, prefix)

    for file_name in sorted(os.listdir(PACKAGE)):
        if file_name.endswith(".py"):
            with open(os.path.join(PACKAGE, file_name), encoding="utf-8") as handle:
                walk(ast.parse(handle.read()), file_name, file_name[:-3] + ".")
    return found


def entered_by_the_commands() -> tuple[list, set]:
    env = {**os.environ, "PYTHONPATH": SRC}
    child = subprocess.run(
        [sys.executable, "-c", CHILD, os.path.realpath(PACKAGE), json.dumps(COMMANDS)],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    result = json.loads(child.stdout.splitlines()[-1])
    return result["codes"], {tuple(key) for key in result["entered"]}


def test_every_def_in_src_runs_in_some_command():
    codes, entered = entered_by_the_commands()
    defs = defined_functions()
    assert set(EXEMPT) <= set(defs.values()), "an exemption names a def that no longer exists"
    never = sorted(name for key, name in defs.items() if key not in entered and name not in EXEMPT)
    assert never == [], f"defs that no command enters: {never}"
    assert codes == [0] * 40 + [1] * 7 + [0, 1, 0]  # the commands, stdout, missing dir, entry
