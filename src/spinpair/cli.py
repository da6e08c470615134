"""Command-line front end: run scenarios, verify the linear suite, export results.

Exit codes: 0 when every scenario contract holds, 2 when a contract check
fails, 1 on usage or I/O errors. Output is deterministic: identical
invocations produce byte-identical files.

A report holds one time grid, `report.times`, and every trajectory as an
`(n, 3)` points array on it. CSV renders the grid's text once for all arms.
JSON (schema version 2) writes the grid once, as the top-level `times` of a
run with arms, and each trajectory as `{"points": [...]}`, one `[s1, s2, s3]`
row per line.
"""

from __future__ import annotations

import argparse
import enum
import json
import math
import os
import re
import sys
from dataclasses import asdict, dataclass
from itertools import repeat

import numpy as np

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
ROWS = 4096  # array rows rendered and written at a time
_SLOT = r'"\\u0000(\d+)\\u0000"'  # an array's placeholder, as json.dumps writes it


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
        # argparse reads "-1e-3" and "-inf" as options; take them as numbers too
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)$", re.I
        )

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
    # flags of the randomized suite and of export, shared by run and verify-linear
    flags = _Parser(add_help=False)
    flags.add_argument("--seed", type=int, help="seed for the randomized suite (default 42)")
    flags.add_argument("--trials", type=int, help="trials for the randomized suite (default 1000)")
    flags.add_argument("--out", help="output file (default: stdout)")
    flags.add_argument("--format", choices=["csv", "json"], help="default csv; sec3 is json only")
    flags.add_argument("--precision", type=_precision, default=12)

    run_p = sub.add_parser("run", parents=[flags], help="run one scenario and export its report")
    run_p.add_argument("scenario", help="scenario name; see 'spinpair list'")
    run_p.add_argument("--p", type=float, help="mixing weight (default 0.75)")
    run_p.add_argument("--epsilon", type=float, help="precession scale (default 1.0)")
    run_p.add_argument("--t-max", type=float, help="end of the time grid (default 10)")
    run_p.add_argument("--dt", type=float, help="grid spacing (default 1e-3)")
    run_p.add_argument(
        "--basis",
        choices=[b.value for b in BasisChoice],
        help="remote basis to feature in the entanglement scenario",
    )
    sub.add_parser("verify-linear", parents=[flags], help="run the randomized linear-theory suite")
    sub.add_parser("list", help="list scenario names")
    return parser


PARSER = build_parser()


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
    ns = PARSER.parse_args(list(argv))
    if ns.command is None:
        raise UsageError("a command is required: run, verify-linear, or list")
    if ns.command == "list":
        return RunConfig("list", None, ScenarioConfig(), None, "csv", 12)
    # verify-linear is `run linear`: the same suite, flags and defaults
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


def _float_texts(column, precision: int, as_json: bool = False) -> list[str]:
    """The `%.{precision}g` text of each value of a 1-d float array; as JSON,
    spelled the way json writes float(text). A column whose entries share
    one bit pattern is formatted once."""
    if len(column) > 1 and _one_bit_pattern(column):
        return _float_texts(column[:1], precision, as_json) * len(column)
    values = column.tolist()
    if as_json and precision == 17:  # '%.17g' always reads back to x itself
        return list(map(repr, values))
    if as_json and precision == 16:
        return list(map(_repr16, values))
    spec = f"%.{precision}g"
    texts = [spec % x for x in values]
    if as_json:
        # Integral texts ("0", "-0", "1e+12") and subnormal texts need
        # respelling. Rounding to `precision` digits moves x by at most half a
        # unit of its last digit, so near-integers (which include every
        # |x| >= 10**(precision - 1)) and |x| < 1e-307 cover them all.
        size = np.abs(column)
        flagged = (size < 1e-307) | (np.abs(column - np.rint(column)) <= size * 10.0 ** (1 - precision))
        for i in np.flatnonzero(flagged).tolist():
            if "." not in texts[i] or "e" in texts[i]:
                texts[i] = _json_spelling(texts[i])
    return texts


def _one_bit_pattern(column) -> bool:
    """Whether every entry has the bits of the first: equal values (a NaN
    never is) of one sign, which only zeros can differ in. The last entry is
    tried first, which rules out most columns at once."""
    first = column[0]
    if column[-1] != first or not (column == first).all():
        return False
    return first != 0.0 or bool((np.signbit(column) == np.signbit(first)).all())


def _repr16(x: float) -> str:
    """repr(float('%.16g' % x)). Where repr(x) has at most 16 significant
    digits, the nearest 16-digit decimal reads back to x too, so the two agree;
    not at a power of two, whose rounding interval is narrower below it."""
    text = repr(x)
    if len(text.partition("e")[0].replace(".", "").strip("-0")) <= 16 and abs(math.frexp(x)[0]) != 0.5:
        return text
    return repr(float("%.16g" % x))


def _json_spelling(text: str) -> str:
    if "e" not in text:
        return text + ".0"  # "0" -> "0.0", "-0" -> "-0.0"
    value = float(text)
    if "e-" in text and abs(value) >= sys.float_info.min:
        return text  # "1.5e-05" is repr's spelling too
    return repr(value)  # "1e+12" -> "1000000000000.0"; "4.94065645841e-324" -> "5e-324"


def _write_array(write, array, precision: int, pad: str) -> None:
    """A 1-d grid, or `(n, 3)` rows each on one line, as json.dumps(indent=2)
    writes a list at indent `pad`, in chunks of ROWS rows."""
    sep = f",\n{pad}  "
    write(f"[\n{pad}  ")
    for start in range(0, len(array), ROWS):
        block = array[start : start + ROWS]
        if start:
            write(sep)
        if block.ndim == 1:
            write(sep.join(_float_texts(block, precision, True)))
            continue
        # every row's texts and separators in one list, joined once: a string
        # per row would be one more copy of the chunk's text until the join
        parts = ["[", "", ", ", "", ", ", "", "]", sep] * len(block)
        for j in range(3):
            parts[1 + 2 * j :: 8] = _float_texts(block[:, j], precision, True)
        parts.pop()  # no separator after the last row
        write("".join(parts))
    write(f"\n{pad}]")


def _jsonable(value, precision: int, arrays: list):
    """Report value -> json-ready value; each array becomes a placeholder
    string naming its index in `arrays`, and a trajectory (a 2-d array) the
    object `{"points": placeholder}`."""
    if isinstance(value, np.ndarray):
        arrays.append(value)
        slot = f"\0{len(arrays) - 1}\0"
        return {"points": slot} if value.ndim == 2 else slot
    if isinstance(value, dict):
        return {str(k): _jsonable(v, precision, arrays) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v, precision, arrays) for v in value]
    if isinstance(value, float):
        return float(format(float(value), f".{precision}g"))
    if isinstance(value, enum.Enum):
        return value.value
    return value


def _render_csv(report: ScenarioReport, precision: int):
    """A writer of the CSV table: called with a `write` callable, it passes
    the table to it in chunks of ROWS rows."""

    def render(write) -> None:
        write("t,arm,sigma1,sigma2,sigma3\n")
        # every arm is on the report's one grid: its chunk texts, kept joined
        grid_chunks = [
            "\n".join(_float_texts(report.times[start : start + ROWS], precision))
            for start in range(0, len(report.times), ROWS)
        ]
        for arm_name, points in report.arms.items():
            for start, times in zip(range(0, len(points), ROWS), grid_chunks):
                block = points[start : start + ROWS]
                columns = [_float_texts(block[:, j], precision) for j in range(3)]
                write("\n".join(map(",".join, zip(times.split("\n"), repeat(str(arm_name)), *columns))) + "\n")

    return render


def _render_json(report: ScenarioReport, precision: int):
    """Build the JSON document's skeleton and check its array slots now;
    return a writer that passes the document to a `write` callable, each
    array in chunks of ROWS rows."""
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
    if report.times is not None:  # only a run with arms has a grid; sec3 writes no empty key
        doc["times"] = report.times
    arrays = []
    skeleton = json.dumps(_jsonable(doc, precision, arrays), indent=2, sort_keys=True)
    # [text, index, text, index, ..., text]; a slot takes the indent of its line
    pieces = re.split(_SLOT, skeleton + "\n")
    if sorted(map(int, pieces[1::2])) != list(range(len(arrays))):
        raise RuntimeError(f"{len(pieces) // 2} slots for {len(arrays)} arrays")

    def render(write) -> None:
        write(pieces[0])
        for k in range(1, len(pieces), 2):
            line = pieces[k - 1].rpartition("\n")[2]
            pad = line[: len(line) - len(line.lstrip(" "))]
            _write_array(write, arrays[int(pieces[k])], precision, pad)
            write(pieces[k + 1])

    return render


def _write_file(path: str, render) -> None:
    """Write through a temporary file next to the target, moved into place
    once the whole document is written: a failed render or write leaves no
    partial file, and a file already there keeps its old bytes."""
    target = os.path.realpath(path)  # replace a symlink's target, not the link
    if os.path.exists(target) and not os.path.isfile(target):  # /dev/null, a FIFO: nothing to replace
        with open(target, "w", encoding="utf-8") as handle:
            render(handle.write)
        return
    head, tail = os.path.split(target)
    temp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        handle = open(temp, "x", encoding="utf-8")
    except FileExistsError:  # left by a killed run that had this pid
        os.unlink(temp)  # removes a symlink itself, never its target
        handle = open(temp, "x", encoding="utf-8")
    try:
        with handle:
            render(handle.write)
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


def emit_report(report: ScenarioReport, cfg: RunConfig) -> int:
    """Write the report in the configured format; 0 if all contracts hold, else 2."""
    if cfg.fmt == "csv":
        render = _render_csv(report, cfg.precision)
    elif cfg.fmt == "json":
        render = _render_json(report, cfg.precision)
    else:
        raise UsageError(f"unknown format {cfg.fmt!r}")
    if cfg.out is None:
        render(sys.stdout.write)
    else:
        _write_file(cfg.out, render)
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
    except ValueError as exc:  # DegenerateConfigError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return emit_report(report, cfg)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())
