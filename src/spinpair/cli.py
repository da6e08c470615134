"""Command-line front end: run scenarios, verify the linear suite, export results.

Exit codes: 0 when every scenario contract holds, 2 when a contract check
fails, 1 on usage or I/O errors. Output is deterministic: identical
invocations produce byte-identical files.

A report holds one time grid, `report.times`, and every trajectory as a
closed form on it. JSON (schema version 2) writes the grid once, as the
top-level `times` of a run with arms, and each trajectory as
`{"points": [...]}`, one `[s1, s2, s3]` row per line. json.dumps writes the
rest, and through its `default` hook a placeholder where each array goes.
One row emitter writes those rows, the JSON grid and the CSV's
`t,arm,s1,s2,s3` rows, a chunk of ROWS rows at a time: each chunk's points
are those the report's checks kept (`ScenarioReport.rows`), or else
evaluated as the chunk is written. From CROSSOVER rows on, a chunk is one
uint8 matrix of numpy-formatted float cells and literal separators, read
off as its nonzero bytes; the values numpy cannot round with certainty or
whose exponent could need three digits, shorter chunks and precisions
above 13 take the per-float route. A chunk whose every cell is one row, as
the rows of a constant closed form are, is that row's bytes repeated, with
no matrix. The writers pass bytes to `write`: a file opened in binary mode,
or stdout's binary buffer (ASCII text to a stdout without one).
"""

from __future__ import annotations

import argparse
import enum
import json
import os
import re
import stat
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
_SLOT = '"\\u0000"'  # an array's placeholder, "\0", as json.dumps writes it
_FD_PATH = r"/(?:dev|proc/self)/fd/(\d+)"  # a path that names descriptor N


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
    flags.add_argument("--precision", type=int, default=12)

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
    if not 6 <= ns.precision <= 17:
        raise UsageError(f"precision must lie in [6, 17], got {ns.precision}")
    if ns.out is not None and os.path.basename(ns.out) in ("", ".", ".."):  # a directory, found only after the run
        raise UsageError("--out must name a file")
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
    `repr(float(text))`, the spelling json writes for the rounded value. A
    column whose entries share one bit pattern is formatted once. This is the
    per-float route, one Python call per value, for short chunks, high
    precisions and `_float_cells`' rest."""
    if len(column) > 1 and _one_bit_pattern(column):
        return _float_texts(column[:1], precision, as_json) * len(column)
    values = column.tolist()
    if as_json and precision == 17:  # '%.17g' always reads back to x itself
        return list(map(repr, values))
    spec = f"%.{precision}g"
    texts = [spec % x for x in values]
    if as_json:
        # A text of at most 15 significant digits reads back to a float whose
        # shortest repr has the same digits, so below 16 only integral ("0",
        # "-0", "1e+12"), "e+XX" and subnormal texts can be spelled otherwise:
        # rounding to `precision` digits moves x by at most half a unit of its
        # last digit, so near-integers (which include every
        # |x| >= 10**(precision - 1)) and |x| < 1e-307 cover them all. At 16
        # digits several texts can read back to one float, so any can be.
        if precision == 16:
            respell = range(len(texts))
        else:
            size = np.abs(column)
            flagged = (size < 1e-307) | (np.abs(column - np.rint(column)) <= size * 10.0 ** (1 - precision))
            respell = [i for i in np.flatnonzero(flagged).tolist() if "." not in texts[i] or "e" in texts[i]]
        for i in respell:
            texts[i] = repr(float(texts[i]))
    return texts


def _one_bit_pattern(column) -> bool:
    """Whether every entry has the bits of the first: a column that repeats
    one entry in memory (stride 0, as a constant closed form's rows do), or
    equal values (a NaN never is) of one sign, which only zeros can differ
    in. The last entry is tried first, which rules out most columns at once."""
    if column.strides == (0,):
        return True
    first = column[0]
    if column[-1] != first or not (column == first).all():
        return False
    return first != 0.0 or bool((np.signbit(column) == np.signbit(first)).all())


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
    exponent's sign and its two digits; a slot a value does not use stays 0.

    The per-float route writes the cells of zeros, values below 1e-98
    (subnormals among them) or from 1e99 on, whose exponents could need
    three digits, non-finite values, scaled fractions within
    2**-49 * 10**p (at least 4 ulp) of one half, digits m outside
    [10**(p - 1), 10**p) (an off-by-one e, or a carry into the next decade),
    and in JSON integral and "e+XX" texts, which json spells otherwise."""
    n = len(column)
    if n == 1 or _one_bit_pattern(column):
        return _text_cells(_float_texts(column[:1], precision, as_json))
    p = precision
    size = np.abs(column)
    ok = (size >= 1e-98) & (size < 1e99)  # two exponent digits; NaN fails both
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
    cells = np.zeros((n, 6 + p + last + 1 + has_expo * 4), np.uint8)
    lead = np.where(fixed & (e < 0), 1 - e, 0)  # "0." and -e - 1 zeros
    cells[:, :6] = _HEADS.take(6 * np.signbit(column) + lead).view(np.uint8).reshape(n, 8)[:, 2:]
    cells[:, 6 : 6 + 2 * last + 2 : 2] = digits[:, : last + 1]
    cells[:, 7 : 7 + 2 * last + 2 : 2] = np.where(np.arange(last + 1) == point[:, None], 46, 0)
    at = 6 + p + last + 1
    cells[:, 6 + 2 * last + 2 : at] = digits[:, last + 1 :]
    if has_expo:  # "e", the sign, and two digits, in the rows in exponent form
        rows = np.flatnonzero(expo)
        power = np.abs(e[rows])
        cells[rows, at] = 101
        cells[rows, at + 1] = np.where(e[rows] < 0, 45, 43)
        cells[rows, at + 2 :] = _PAIRS.take(power).view(np.uint8).reshape(-1, 2)
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
    joined by sep, in chunks of ROWS rows, as bytes; columns(start, stop)
    gives the chunk's columns, one float cell per column and row (a float
    array, or the texts of one shorter than CROSSOVER). A chunk of CROSSOVER
    rows or more puts its cells and literals side by side in one uint8
    matrix, whose nonzero bytes are its text, or, when every cell of the
    chunk is one row, writes that row's bytes repeated."""
    literals = [*literals[:-1], literals[-1] + sep]
    encoded = [text.encode("ascii") for text in literals]
    for start in range(0, n, ROWS):
        chunk = columns(start, start + ROWS)
        count, last = min(ROWS, n - start), start + ROWS >= n
        if count < CROSSOVER or precision > 13 or sys.byteorder != "little":
            # the per-float texts, spliced between the literals
            parts = [repeat(literals[0])]
            for column, literal in zip(chunk, literals[1:]):
                parts += [column if isinstance(column, list) else _float_texts(column, precision, as_json), repeat(literal)]
            text = "".join(chain.from_iterable(zip(*parts)))
            write((text[: len(text) - len(sep)] if last else text).encode("ascii"))
            continue
        cells = [_float_cells(column, precision, as_json) for column in chunk]
        # every row starts as the literals and the one-row cells, with 0 where the other cells go
        template = encoded[0] + b"".join(
            (cell.tobytes() if len(cell) == 1 else bytes(cell.shape[1])) + literal
            for cell, literal in zip(cells, encoded[1:])
        )
        if all(len(cell) == 1 for cell in cells):  # the template is the row; a one-row cell has no 0 byte
            text = template * count
            write(memoryview(text)[: len(text) - len(sep)] if last else text)
            continue
        rows = np.empty((count, len(template)), np.uint8)
        rows[:] = np.frombuffer(template, np.uint8)
        at = len(encoded[0])
        for cell, literal in zip(cells, encoded[1:]):
            if len(cell) > 1:
                rows[:, at : at + cell.shape[1]] = cell
            at += cell.shape[1] + len(literal)
        del cells
        if last and sep:  # no separator after the last row
            rows[-1, at - len(sep) :] = 0
        write(rows.tobytes().translate(None, b"\0"))  # as fast as a mask per chunk, faster end to end


def _jsonable(value, precision: int):
    """Report value -> json-ready value: floats rounded to `precision`
    digits, enums as their values, keys as strings. Arrays and trajectories
    pass as they are."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v, precision) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v, precision) for v in value]
    if isinstance(value, float):
        return float(format(float(value), f".{precision}g"))
    if isinstance(value, enum.Enum):
        return value.value
    return value


def _render_csv(report: ScenarioReport, precision: int):
    """A writer of the CSV table: called with a `write` callable, it passes
    the table's bytes to it in chunks of ROWS rows."""

    def render(write) -> None:
        write(b"t,arm,sigma1,sigma2,sigma3\n")
        times = report.times
        if len(times) < CROSSOVER:  # formatted once, for every arm
            times = _float_texts(times, precision)
        for arm_name, trajectory in report.arms.items():
            columns = lambda start, stop: [times[start:stop], *report.rows(trajectory, start, stop).T]
            _write_rows(write, len(times), columns, ["", f",{arm_name},", ",", ",", "\n"], precision, False)

    return render


def _render_json(report: ScenarioReport, precision: int):
    """Build the JSON document's skeleton and check its array slots now;
    return a writer that passes the document's bytes to a `write` callable,
    each array in chunks of ROWS rows."""
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
    arrays = []  # the grid and the trajectories, in the order json.dumps writes them

    def slot(value):  # json.dumps calls this for each value it cannot encode
        arrays.append(value if isinstance(value, (np.ndarray, Trajectory)) else json.JSONEncoder().default(value))
        return {"points": "\0"} if isinstance(value, Trajectory) else "\0"

    # the encoder runs in Python when indent is set, so sort_keys holds and slot sees the write order
    skeleton = json.dumps(_jsonable(doc, precision), indent=2, sort_keys=True, default=slot)
    placed, arrays = arrays, None  # json's encoder leaves a cycle that holds slot till the next gc, not the arrays
    pieces = (skeleton + "\n").split(_SLOT)  # text, then the text after each slot
    if len(pieces) - 1 != len(placed):
        raise RuntimeError(f"{len(pieces) - 1} slots for {len(placed)} arrays")
    texts = [piece.encode("ascii") for piece in pieces]  # json.dumps escapes all else
    pads = [re.match(" *", piece.rpartition("\n")[2])[0] for piece in pieces[:-1]]  # the indent of a slot's line

    def render(write) -> None:
        write(texts[0])
        for array, pad, text in zip(placed, pads, texts[1:]):
            sep = f",\n{pad}  "
            write(f"[\n{pad}  ".encode("ascii"))
            if isinstance(array, Trajectory):  # each lambda is called only within its own iteration
                columns = lambda start, stop: list(report.rows(array, start, stop).T)
                _write_rows(write, len(array.times), columns, ["[", ", ", ", ", "]"], precision, True, sep)
            else:
                _write_rows(write, len(array), lambda start, stop: [array[start:stop]], ["", ""], precision, True, sep)
            write(f"\n{pad}]".encode("ascii"))
            write(text)

    return render


def _named_fd(path: str) -> int | None:
    """N if path is /dev/fd/N or /proc/self/fd/N, as given or as its one
    symlink reads (/dev/stdout -> /proc/self/fd/1); else 1 or 2 if path is
    the file open on stdout or stderr; else None. The text decides: the link
    /proc/self/fd/N resolves to the file behind N, not to N."""
    try:
        link = os.readlink(path)
    except OSError:  # not a symlink, or no such file
        link = ""
    named = re.fullmatch(_FD_PATH, path) or re.fullmatch(_FD_PATH, link)
    if named:
        fd = int(named[1])
        try:
            os.fstat(fd)
        except (OSError, OverflowError):
            raise OSError(f"{path}: descriptor {fd} is not open") from None
        return fd
    for fd in (1, 2):
        try:
            if os.path.samestat(os.stat(path), os.fstat(fd)):
                return fd
        except OSError:  # no such file, or the descriptor is closed
            pass
    return None


def _write_file(path: str, render) -> None:
    """Write through a temporary file next to the target, moved into place
    once the whole document is written: a failed render or write leaves no
    partial file, and a file already there keeps its old bytes until then
    and its permission bits after. The target gets a new inode, so another
    hard link to the old one keeps the old bytes."""
    # a descriptor: written through, so a `>> log` behind it is appended to, as
    # without --out. /dev/null, a FIFO: in place. These tests follow symlinks.
    fd = _named_fd(path)
    if fd is not None or (os.path.exists(path) and not os.path.isfile(path)):
        with open(path if fd is None else fd, "wb", closefd=fd is None) as handle:
            render(handle.write)
        return
    target = os.path.realpath(path)  # replace a symlink's target, not the link
    head, tail = os.path.split(target)
    # ".{name}.{pid}.tmp", the name cut to the bytes the file system allows
    suffix = f".{os.getpid()}.tmp"
    try:
        room = os.pathconf(head, "PC_NAME_MAX") - 1 - len(suffix)
        temp = os.path.join(head, f".{os.fsdecode(os.fsencode(tail)[:room])}{suffix}")
        handle = open(temp, "xb")
    except FileExistsError:  # left by a killed run that had this pid
        os.unlink(temp)  # removes a symlink itself, never its target
        handle = open(temp, "xb")
    except OSError as exc:  # name the file asked for, not the temporary one
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with handle:
            try:
                os.fchmod(handle.fileno(), stat.S_IMODE(os.stat(target).st_mode))
            except FileNotFoundError:  # a new file takes the umask's
                pass
            render(handle.write)
        os.replace(temp, target)
    except BaseException:
        os.unlink(temp)
        raise


def emit_report(report: ScenarioReport, cfg: RunConfig) -> int:
    """Write the report in the configured format; 0 if all contracts hold, else 2."""
    render = (_render_csv if cfg.fmt == "csv" else _render_json)(report, cfg.precision)
    if cfg.out is None:
        if sys.stdout is None:  # fd 1 was closed when Python started
            raise OSError("stdout is closed; use --out")
        sys.stdout.flush()  # text already printed goes first
        text = lambda data: sys.stdout.write(str(data, "ascii"))  # an io.StringIO has no buffer
        render(sys.stdout.buffer.write if hasattr(sys.stdout, "buffer") else text)
        sys.stdout.flush()  # a failed write is reported here, not at exit
    else:
        _write_file(cfg.out, render)
    return 0 if report.contracts_ok else 2


def _print_scenario_list() -> None:
    if sys.stdout is None:  # fd 1 was closed when Python started
        raise OSError("stdout is closed")
    print("available scenarios:")
    aliases = {target: alias for alias, target in ALIASES.items()}
    for name, scenario in BY_NAME.items():
        note = f" (alias: {aliases[name]})" if name in aliases else ""
        print(f"  {name:10s} {SPECS[scenario].summary}{note}")
    for alias, target in ALIASES.items():
        print(f"  {alias:10s} alias for {target}")
    sys.stdout.flush()  # a failed write is reported here, not at exit


def main(argv=None) -> int:
    try:
        cfg = parse_args(sys.argv[1:] if argv is None else argv)
        report = None if cfg.command == "list" else run_scenario(cfg.scenario, cfg.config)
    except (UsageError, ValueError) as exc:  # ValueError: DegenerateConfigError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if report is None:
            _print_scenario_list()
            return 0
        return emit_report(report, cfg)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    code = main()
    if code == 1 and sys.stdout is not None:
        # a failed write leaves its bytes in stdout's buffer; flushed again at
        # exit, they would fail again, and exit 120
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)
