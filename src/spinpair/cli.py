"""Command-line front end: run scenarios, verify the linear suite, export results.

Exit codes: 0 when every scenario contract holds, 2 when a contract check
fails, 1 on usage or I/O errors. Output is deterministic: identical
invocations produce byte-identical files.

A report holds one time grid, `report.times`, and every trajectory as a
closed form on it. JSON (schema version 2) writes the grid once, as the
top-level `times` of a run with arms, and each trajectory as
`{"points": [...]}`, one `[s1, s2, s3]` row per line. One row emitter writes
those rows, the JSON grid and the CSV's `t,arm,s1,s2,s3` rows, a chunk of
ROWS rows at a time: each chunk's points are evaluated from the closed form
by `Trajectory.rows` as the chunk is written, so no command holds more than
one chunk of any trajectory. From CROSSOVER rows on, a chunk is one uint8
matrix of numpy-formatted float cells and literal separators, read off as
its nonzero bytes; the values numpy cannot round with certainty, shorter
chunks and precisions above 13 take the per-float route.
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
from itertools import chain, repeat

import numpy as np

from .dynamics_nonlinear import ROWS, Trajectory
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
CROSSOVER = 384  # chunk rows from which numpy, not a call per float, formats the floats
# Tables of the numpy formatter, `_float_cells`. Its uint64 words hold bytes
# in memory order, so it runs on little-endian hosts only.
_U64 = np.uint64
_BYTES = _U64(0x0101010101010101)  # 1 in every byte lane
_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode("ascii"), dtype="<u2")  # "00".."99"
# 10**j and 1, or 1 and 10**-j, at column j + _TENS_AT: exact for |j| <= 22
_TENS_AT = 303
_TENS = np.array([[float(10 ** max(j, 0)), float(10 ** max(-j, 0))] for j in range(-_TENS_AT, 309)]).T.copy()
# two words whose first c bytes are 0xFF, for c in 0..16
_FIRST_BYTES = np.array([[(1 << 8 * min(c, 8)) - 1, (1 << 8 * max(c - 8, 0)) - 1] for c in range(17)], _U64)
# the sign (6 * neg), then "0." and -e - 1 zeros of a value below 1 (lead 1 - e), right-aligned in 8 bytes
_HEADS = np.array(
    [int.from_bytes(("-" * neg + ("0." + "0" * (lead - 2)) * (lead > 0)).rjust(8, "\0").encode(), "little")
     for neg in (0, 1) for lead in range(6)],
    _U64,
)
for _table in (_TENS, _FIRST_BYTES, _HEADS):
    _table.setflags(write=False)
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
    one bit pattern is formatted once. This is the per-float route, one Python
    call per value, for short chunks, high precisions and `_float_cells`' rest."""
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


def _text_cells(texts: list[str]) -> np.ndarray:
    """Texts as the rows of a uint8 matrix, each padded with 0 bytes."""
    return np.array(texts, dtype="S").view(np.uint8).reshape(len(texts), -1)


def _float_cells(column, precision: int, as_json: bool = False) -> np.ndarray:
    """`_float_texts(column, precision, as_json)` as an `(n, W)` uint8 matrix
    whose nonzero bytes in each row spell that row's text; a column of one
    bit pattern gives a single row, which broadcasts.

    numpy formats the column, for precisions p up to 13 on a little-endian
    host. With e = floor(log10|x|), m = rint(|x| * 10**(p - 1 - e)) holds
    the p significant digits; the scaling takes one rounding for
    |p - 1 - e| <= 22 and two above. m's digits come out one per byte of two
    uint64 words: four digits per 32-bit lane, then two per 16-bit lane,
    then one per byte. The digits after the last nonzero one, or after the
    integer part if that is longer, are masked to 0. A cell is the sign and
    any "0." and zeros, right-aligned in six bytes, then the digits with a
    slot for the point after each digit that needs one, then "e", the
    exponent's sign and its digits; a slot a value does not use stays 0.

    The per-float route writes the cells of zeros, values below 1e-296
    (subnormals among them), non-finite values, scaled fractions within
    2**-49 * 10**p (at least 4 ulp) of one half, digits m outside
    [10**(p - 1), 10**p) (an off-by-one e, or a carry into the next decade),
    and in JSON integral and "e+XX" texts, which json spells otherwise."""
    n = len(column)
    if n == 1 or _one_bit_pattern(column):
        return _text_cells(_float_texts(column[:1], precision, as_json))
    p = precision
    size = np.abs(column)
    ok = (size >= 1e-296) & (size <= sys.float_info.max)  # NaN fails both
    size = np.where(ok, size, 1.0)
    e = np.floor(np.log10(size)).astype(np.intp)
    scale = (p - 1 + _TENS_AT) - e  # 10**(p - 1 - e) as a factor and a divisor, one of them 1
    y = size * _TENS[0].take(scale) / _TENS[1].take(scale)
    m = np.rint(y)
    ok &= (y >= 10.0 ** (p - 1)) & (m < 10.0**p) & (np.abs(y - m) < 0.5 - 2.0**-49 * 10.0**p)
    m = np.where(ok, m, 10.0 ** (p - 1))
    # m // 10**8 and m % 10**8, then four digits per 32-bit lane (each float
    # floor is exact: 1e-8 and 1e-4 round up), two per 16-bit lane, one per byte
    words = np.empty((n, 2))
    words[:, 0] = np.floor(m * 1e-8)
    words[:, 1] = m - words[:, 0] * 1e8
    high = np.floor(words * 1e-4)
    x = high.astype(_U64) | ((words - high * 1e4).astype(_U64) << _U64(32))
    high = ((x * _U64(10486)) >> _U64(20)) & _U64(0x0000007F0000007F)  # v // 100 for v < 10**4
    x = high | ((x - high * _U64(100)) << _U64(16))
    high = ((x * _U64(103)) >> _U64(10)) & _U64(0x000F000F000F000F)  # v // 10 for v < 100
    x = high | ((x - high * _U64(10)) << _U64(8))
    # digits up to the last nonzero one: a word's bit length, in bytes (a
    # digit byte is below 16, so the float conversion cannot round it up)
    length = (np.frexp(x.astype(float))[1] + 7) >> 3
    kept = np.where(x[:, 1] != 0, 8 + length[:, 1], length[:, 0]) - (16 - p)
    fixed = (e >= -4) & (e < p)
    whole = fixed & (e >= 0)  # e + 1 digits before the point
    if as_json:
        ok &= ~(whole & (kept <= e + 1)) & (fixed | (e < 0))
    kept = np.where(whole, np.maximum(kept, e + 1), kept)
    digits = ((x | _BYTES * _U64(0x30)) & np.take(_FIRST_BYTES, 16 - p + kept, axis=0)).view(np.uint8)[:, 16 - p :]
    point = np.where(whole, e, np.where(fixed, -1, 0))  # the digit the point follows
    point = np.where(kept > point + 1, point, -1)
    last = int(point.max())  # point slots after digits 0..last
    expo = ~fixed
    has_expo = bool(expo.any())
    wide = has_expo and bool((np.abs(e[expo]) >= 100).any())  # three exponent digits
    cells = np.zeros((n, 6 + p + last + 1 + has_expo * (4 + wide)), np.uint8)
    lead = np.where(fixed & (e < 0), 1 - e, 0)  # "0." and -e - 1 zeros
    cells[:, :6] = _HEADS.take(6 * np.signbit(column) + lead).view(np.uint8).reshape(n, 8)[:, 2:]
    cells[:, 6 : 6 + 2 * last + 2 : 2] = digits[:, : last + 1]
    cells[:, 7 : 7 + 2 * last + 2 : 2] = np.where(np.arange(last + 1) == point[:, None], 46, 0)
    at = 6 + p + last + 1
    cells[:, 6 + 2 * last + 2 : at] = digits[:, last + 1 :]
    if has_expo:  # "e", the sign, and two or three digits
        cells[:, at] = np.where(expo, 101, 0)
        cells[:, at + 1] = np.where(expo, np.where(e < 0, 45, 43), 0)
        if wide:
            cells[:, at + 2] = np.where(expo & (np.abs(e) >= 100), 48 + np.abs(e) // 100, 0)
        tens = _PAIRS.take(np.abs(e) % 100).view(np.uint8).reshape(n, 2)
        cells[:, at + 2 + wide :] = np.where(expo[:, None], tens, 0)
    rest = np.flatnonzero(~ok)
    if rest.size:
        texts = _text_cells(_float_texts(column[rest], p, as_json))
        if texts.shape[1] > cells.shape[1]:
            cells = np.pad(cells, ((0, 0), (0, texts.shape[1] - cells.shape[1])))
        cells[rest] = 0
        cells[rest, : texts.shape[1]] = texts
    return cells


def _write_rows(write, n: int, columns, literals, precision: int, as_json: bool, sep: str = "") -> None:
    """Write n rows `literals[0] cell literals[1] ... cell literals[-1]`,
    joined by sep, in chunks of ROWS rows; columns(start, stop) gives the
    chunk's columns, one float cell per column and row (a float array, or
    the texts of one shorter than CROSSOVER). A chunk of CROSSOVER rows or
    more puts its cells and literals side by side in one uint8 matrix, whose
    nonzero bytes are its text."""
    literals = [*literals[:-1], literals[-1] + sep]
    encoded = [text.encode("ascii") for text in literals]
    for start in range(0, n, ROWS):
        chunk = columns(start, start + ROWS)
        if min(ROWS, n - start) < CROSSOVER or precision > 13 or sys.byteorder != "little":
            # the per-float texts, spliced between the literals
            parts = [repeat(literals[0])]
            for column, literal in zip(chunk, literals[1:]):
                parts += [column if isinstance(column, list) else _float_texts(column, precision, as_json), repeat(literal)]
            text = "".join(chain.from_iterable(zip(*parts)))
            write(text[: len(text) - len(sep)] if start + ROWS >= n else text)
            continue
        cells = [_float_cells(column, precision, as_json) for column in chunk]
        # every row starts as the literals and the one-row cells, with 0 where the other cells go
        template = encoded[0] + b"".join(
            (cell.tobytes() if len(cell) == 1 else bytes(cell.shape[1])) + literal
            for cell, literal in zip(cells, encoded[1:])
        )
        rows = np.empty((min(ROWS, n - start), len(template)), np.uint8)
        rows[:] = np.frombuffer(template, np.uint8)
        at = len(encoded[0])
        for cell, literal in zip(cells, encoded[1:]):
            if len(cell) > 1:
                rows[:, at : at + cell.shape[1]] = cell
            at += cell.shape[1] + len(literal)
        del cells
        if start + ROWS >= n and sep:  # no separator after the last row
            rows[-1, at - len(sep) :] = 0
        text = rows[rows != 0]
        del rows
        write(text.tobytes().decode("ascii"))


def _write_array(write, array, precision: int, pad: str) -> None:
    """A 1-d grid, or a trajectory's rows each on one line, as
    json.dumps(indent=2) writes a list at indent `pad`, in chunks of ROWS
    rows."""
    sep = f",\n{pad}  "
    write(f"[\n{pad}  ")
    if isinstance(array, Trajectory):
        columns = lambda start, stop: list(array.rows(start, stop).T)
        _write_rows(write, len(array.times), columns, ["[", ", ", ", ", "]"], precision, True, sep)
    else:
        _write_rows(write, len(array), lambda start, stop: [array[start:stop]], ["", ""], precision, True, sep)
    write(f"\n{pad}]")


def _jsonable(value, precision: int, arrays: list):
    """Report value -> json-ready value; the time grid becomes a placeholder
    string naming its index in `arrays`, and a trajectory the object
    `{"points": placeholder}`."""
    if isinstance(value, (np.ndarray, Trajectory)):
        arrays.append(value)
        slot = f"\0{len(arrays) - 1}\0"
        return {"points": slot} if isinstance(value, Trajectory) else slot
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
        times = report.times
        if len(times) < CROSSOVER:  # formatted once, for every arm
            times = _float_texts(times, precision)
        for arm_name, trajectory in report.arms.items():
            columns = lambda start, stop: [times[start:stop], *trajectory.rows(start, stop).T]
            _write_rows(write, len(times), columns, ["", f",{arm_name},", ",", ",", "\n"], precision, False)

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
    # /dev/null, a FIFO, /dev/stdout on a pipe: nothing to replace, so write in
    # place. Both tests follow symlinks and take the path as given: realpath
    # turns /dev/stdout on a pipe into a name that no file has.
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as handle:
            render(handle.write)
        return
    target = os.path.realpath(path)  # replace a symlink's target, not the link
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
    render = (_render_csv if cfg.fmt == "csv" else _render_json)(report, cfg.precision)
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
