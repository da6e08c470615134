"""Every line in src/spinpair runs in some spinpair command.

A fresh interpreter imports spinpair.cli under a sys.settrace hook that
records each line it executes in the package, then runs the command line
at small sizes: every command, every scenario in both formats at each
precision path, both sec8 bases, grids long enough for the numpy formatter,
epsilons small enough for its rare cells, a grid too long for the report to
keep its rows, a write to each target that some line of the write path
handles (a file, stdout, stderr by name and as the file open on it, a closed
stdout, a closed descriptor, a device, a stale temporary file, a file-size
limit; what each must be left holding is the table of
tests/test_write_path.py), `python -m spinpair`, and every refusal. Each
command carries the exit code it must end in. The executable lines are those of every code object compiled from
the package's files. A line that no command executes is dead: it goes, or
a command that reaches it joins the list, unless it is a statement of
KEEP, named by its def and its text. Those guard against a state, basis or
document that no accepted command builds, except MeasurementBasis.__len__,
which perfbench's traced run reads, with the call shapes pinned below.
"""

import ast
import inspect
import json
import os
import subprocess
import sys
import types

import pytest

from spinpair.cli import main
from spinpair.dynamics_linear import no_signalling_suite
from spinpair.dynamics_nonlinear import evolve_ensemble
from spinpair.measurement import measure_all
from spinpair.scenarios import DIAG_BASIS, SINGLET_PREPARATION

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(__file__))), "src")
PACKAGE = os.path.join(SRC, "spinpair")


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




# Statements that no command executes, kept on purpose: each guards against a
# state, basis or document that no accepted command can build, and
# would catch a bug that builds one. Keyed by qualified def and the first line
# of the statement.
KEEP = {
    ("cli._render_json", 'raise RuntimeError(f"{len(pieces) - 1} slots for {len(placed)} arrays")'):
        "a placeholder-like string in a report would put an array in the wrong place",
    ("dynamics_linear._expect", "raise ConsistencyError("):
        "an imaginary expectation means an operator or a state is not what it claims to be",
    ("measurement.MeasurementBasis.__len__", "return len(self.projectors)"):
        "perfbench's tracer counts the projectors tried with len(basis)",
    ("measurement.MeasurementBasis.__post_init__", 'raise ValueError("invalid measurement basis: " + "; ".join(violations))'):
        "a basis is validated when it is built",
    ("measurement.validate_basis", 'violations.append(f"projector {j} is not hermitian (deviation {dev:.3e})")'):
        "names a defect of a basis that is not projective",
    ("measurement.validate_basis", 'violations.append(f"projector {j} is not idempotent (deviation {dev:.3e})")'):
        "names a defect of a basis that is not projective",
    ("measurement.validate_basis",
     'violations.append(f"projectors {j} and {k} are not orthogonal (deviation {dev:.3e})")'):
        "names a defect of a basis that is not projective",
    ("measurement.validate_basis", 'violations.append(f"projectors do not sum to the identity (deviation {dev:.3e})")'):
        "names a defect of a basis that is not projective",
    ("measurement._collapse", "raise ImpossibleOutcomeError("):
        "an outcome of zero probability has no post-measurement state",
    ("qmath.checked", 'expected = " or ".join(map(str, shapes))'): "the text of the shape refusal below",
    ("qmath.checked", 'raise ValueError(f"{name} must have shape {expected}, got {arr.shape}")'):
        "every state and projector enters through checked",
    ("qmath.checked", 'raise ValueError(f"{name} contains non-finite entries")'):
        "every state and projector enters through checked",
    ("qmath._real_traces", "raise ConsistencyError("):
        "an imaginary expectation means an operator or a state is not what it claims to be",
    ("qmath.projector", 'raise ValueError(f"vector must be normalized, got norm {norm!r}")'):
        "a projector onto an unnormalized vector is not idempotent",
    ("states.Branch.__post_init__", 'raise ValueError(f"branch weight must lie in [0, 1], got {weight!r}")'):
        "a caller's weight outside [0, 1] is no probability",
    ("states.Branch.__post_init__", 'raise ValueError(f"branch vector must be normalized, got norm {norm!r}")'):
        "a caller's vector off the unit sphere is no pure state",
    ("states.Ensemble.__post_init__", 'raise TypeError(f"ensemble branches must be Branch values, got {type(branch)!r}")'):
        "an ensemble holds Branch values, whose weights and vectors its readers take as they are",
    ("states.Ensemble.__post_init__", 'raise ValueError(f"branch weights must sum to 1, got {total!r}")'):
        "a caller's mixture whose weights do not sum to 1 is no preparation",
    ("states.BlochVector.__post_init__",
     'raise ValueError("Bloch components must be finite" if not all(map(math.isfinite, comps))'):
        "a non-finite mean value, or one outside the ball, is no state",
    ("states.branch_bloch", "raise NotProductError("):
        "an entangled branch has no system factor to evolve on its own",
    ("states._weighted_parts", 'raise ValueError(f"{name} weights must sum to 1, got {total!r}")'):
        "a product ensemble's weights on each side sum to 1",
    ("states.correlated_ensemble", 'raise ValueError(f"p must lie in [0, 1], got {p!r}")'):
        "p is a branch weight",
    ("states.correlated_ensemble", 'raise ValueError(f"remote marker states must be orthogonal, got overlap {overlap:.3e}")'):
        "markers that overlap do not reveal which branch was prepared",
}

SMALL = ["--t-max", "1", "--dt", "0.1"]
LONG = ["--t-max", "1", "--dt", "0.002"]  # 501 points: a chunk of cli.CROSSOVER rows or more, which numpy formats
OUT = ["--out", "{tmp}/out"]
# (exit code, argv) or (exit code, argv, how); "{tmp}" is the child's temporary directory
COMMANDS = [
    (0, ["list"]),
    (0, ["run", "sec3", "--trials", "10", *OUT]),
    (0, ["run", "linear", "--trials", "10", *OUT]),
    (0, ["verify-linear", "--trials", "10", "--seed", "3"]),
    *(
        (0, ["run", name, *SMALL, "--format", fmt, "--precision", precision, *OUT])
        for name in ("sec5", "sec6", "sec7", "sec8")
        for fmt in ("csv", "json")
        for precision in ("6", "12", "16", "17")
    ),
    (0, ["run", "sec8", *SMALL, "--basis", "updown", *OUT]),
    (0, ["run", "sec8", *SMALL, "--basis", "diag", "--format", "json", *OUT]),
    *((0, ["run", "sec8", *LONG, "--format", fmt, *OUT]) for fmt in ("csv", "json")),
    # a grid whose rows exceed KEEP_BYTES: the report keeps none, and the export evaluates them again
    (0, ["run", "sec6", "--t-max", "100", "--out", os.devnull]),
    # values the numpy formatter leaves to the per-float route: negative
    # subnormals, whose texts are wider than its cells, normals below 1e-307,
    # whose texts JSON reads back and respells, and values below 1e-98, whose
    # exponents have three digits
    *(
        (0, ["run", "sec8", *LONG, "--epsilon", epsilon, "--format", fmt, *OUT])
        for epsilon in ("-1e-310", "1e-307", "1e-200")
        for fmt in ("csv", "json")
    ),
    # where the bytes go
    (0, ["run", "sec5", *SMALL]),
    (0, ["run", "sec5", *SMALL, "--out", os.devnull]),
    # the child's stderr, a pipe, written through fd 2
    (0, ["run", "sec5", *SMALL, "--out", "/dev/stderr"]),
    (0, ["run", "sec5", *SMALL, "--out", "{tmp}/log"], "stderr-is-out"),
    (1, ["run", "sec5", *SMALL, "--out", "/dev/fd/900"], "closed-fd"),
    (0, ["run", "sec5", *SMALL, *OUT], "stale-temp"),
    (1, ["run", "sec5", *SMALL], "closed-stdout"),
    (1, ["list"], "closed-stdout"),
    (1, ["run", "sec5", "--out", "{tmp}/missing/out"]),
    # a directory that exists, where no file can be created
    (1, ["run", "sec5", *SMALL, "--out", "/proc/out"]),
    (1, ["run", "sec5", *SMALL, "--out", "/dev/full"]),  # a write in place that fails names --out
    (1, ["run", "sec8", "--format", "json", "--out", "{tmp}/big"], "file-size-limit"),
    (0, ["list"], "entry"),
    (1, ["run", "sec9"], "entry"),
    # refusals
    (1, []),
    (1, ["run", "sec9"]),
    (1, ["run", "sec5", "--precision", "5"]),
    (1, ["run", "sec5", "--precision", "6.5"]),  # argparse's own refusal
    (1, ["run", "sec5", "--out", ""]),
    (1, ["run", "sec3", "--format", "csv"]),
    (1, ["run", "sec5", "--p", "2"]),
    (1, ["run", "sec5", "--p", "nan"]),
    (1, ["run", "sec5", "--dt", "0"]),
    (1, ["run", "sec5", "--t-max", "0"]),
    (1, ["run", "sec5", "--t-max", "1", "--dt", "2"]),
    (1, ["run", "sec5", "--dt", "1e-6"]),
    (1, ["run", "sec5", "--epsilon", "1e7"]),
    (1, ["run", "sec5", "--seed", "-1"]),
    (1, ["verify-linear", "--trials", "0"]),
    (1, ["run", "sec6", "--p", "0"]),
    (1, ["run", "sec6", "--epsilon", "0"]),
    (1, ["run", "sec6", "--epsilon", "1e-14"]),
]

# Runs in the child: trace, import, run every command, print the exit codes,
# the files left in the output directory and the lines executed.
CHILD = r"""
import contextlib, io, json, os, resource, runpy, signal, sys, tempfile

package, commands = sys.argv[1], json.loads(sys.argv[2])
executed = set()


def trace(frame, event, arg):
    path = os.path.realpath(frame.f_code.co_filename)
    if not path.startswith(package + os.sep):
        return None  # no line events outside the package

    def lines(frame, event, arg):
        if event == "line":
            executed.add((path, frame.f_lineno))
        return lines

    return lines


def run(argv, how=None):
    argv = [arg.format(tmp=tmp) for arg in argv]
    if how == "entry":  # as `python -m spinpair`, whose stdout has a descriptor
        sys.argv = ["spinpair", *argv]
        with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
            try:
                runpy.run_module("spinpair", run_name="__main__")
            except SystemExit as exc:
                return exc.code
    if how == "stale-temp":  # as a killed run with this pid would leave it
        open(os.path.join(tmp, f".out.{os.getpid()}.tmp"), "x").close()
    if how == "stderr-is-out":  # `--out FILE 2>> FILE`: FILE named plainly
        saved, log = os.dup(2), os.open(argv[-1], os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        os.dup2(log, 2)
        try:
            return cli.main(argv)
        finally:
            os.dup2(saved, 2)
            os.close(saved)
            os.close(log)
            os.unlink(argv[-1])
    if how == "closed-fd":  # argv ends in /dev/fd/N, and N must not be open
        try:
            os.fstat(int(argv[-1].rpartition("/")[2]))
            return "an open descriptor"
        except OSError:
            pass
    if how == "closed-stdout":  # as Python starts with fd 1 closed
        with contextlib.redirect_stdout(None):
            return cli.main(argv)
    if how != "file-size-limit":
        return cli.main(argv)
    # this process's writes past 1 MiB fail with EFBIG, and SIGXFSZ does not kill it
    limits = resource.getrlimit(resource.RLIMIT_FSIZE)
    handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (1 << 20, limits[1]))
    try:
        return cli.main(argv)
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, limits)
        signal.signal(signal.SIGXFSZ, handler)


import numpy  # imported untraced: only spinpair's own lines matter
sys.settrace(trace)
from spinpair import cli

# stdout as a terminal or pipe has it: a text layer over bytes, which the report goes to
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())), \
        contextlib.redirect_stderr(io.StringIO()):
    codes = [run(*command) for command in commands]
    left = sorted(os.listdir(tmp))
sys.settrace(None)
print(json.dumps({"codes": codes, "left": left, "executed": sorted(executed)}))
"""


def run_the_commands() -> tuple[list, list, set]:
    env = {**os.environ, "PYTHONPATH": SRC}
    commands = json.dumps([command[1:] for command in COMMANDS])
    child = subprocess.run(
        [sys.executable, "-c", CHILD, PACKAGE, commands],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    result = json.loads(child.stdout.splitlines()[-1])
    return result["codes"], result["left"], {tuple(key) for key in result["executed"]}


def executable_lines() -> dict:
    """(path, line) -> (qualified def, statement, line text) for every line
    that an instruction of the package's compiled code maps to. A line is
    credited to the innermost code object on it, and a line of a simple
    statement spanning several is named by the statement's first line."""
    found = {}
    for file_name in sorted(os.listdir(PACKAGE)):
        if not file_name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, file_name)
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        texts = [line.strip() for line in source.splitlines()]
        statements = {
            line: texts[node.lineno - 1]
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.stmt) and not hasattr(node, "body")
            for line in range(node.lineno, node.end_lineno + 1)
        }
        stack = [compile(source, path, "exec")]
        while stack:
            code = stack.pop()
            for *_, line in code.co_lines():
                if line:  # None, or 0 for a module's first instruction: no source line
                    name = f"{file_name[:-3]}.{code.co_qualname}"
                    found[(path, line)] = (name, statements.get(line, texts[line - 1]), texts[line - 1])
            stack += [const for const in code.co_consts if isinstance(const, types.CodeType)]
    return found


def test_every_line_in_src_runs_in_some_command():
    codes, left, executed = run_the_commands()
    wrong = [
        f"spinpair {' '.join(command[1])}: exit {code}, expected {command[0]}"
        for command, code in zip(COMMANDS, codes)
        if code != command[0]
    ]
    assert wrong == [], "commands that ended in another exit code:\n" + "\n".join(wrong)
    assert left == ["out"], "a failed write or a stale temporary file left a file behind"
    unexecuted = {key: where for key, where in executable_lines().items() if key not in executed}
    stale = sorted(set(KEEP) - {where[:2] for where in unexecuted.values()})
    assert stale == [], "kept statements that some command now runs, or that are gone"
    dead = [
        f"{os.path.relpath(path, os.path.dirname(SRC))}:{line}: {text}"
        for (path, line), (name, statement, text) in sorted(unexecuted.items())
        if (name, statement) not in KEEP
    ]
    assert dead == [], "lines that no command executes:\n" + "\n".join(dead)
