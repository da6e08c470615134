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
uint8 matrix of fixed-width float cells between the literal separators,
read off as its nonzero bytes; numpy formats the chunk's varying columns as
one block, straight into the cells, through buffers that every chunk of an
array reuses. The values numpy cannot round with certainty, shorter chunks
and precisions above 13 take the per-float route. A chunk whose every cell is one row, as the rows of a
constant closed form are, is that row's bytes repeated, with no matrix. The
writers pass bytes to `write`: a file opened in binary mode, or stdout's
binary buffer (ASCII text to a stdout without one).
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
_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode("ascii"), dtype="<u2")  # "00".."99"
_QUADS = (_PAIRS[:, None].astype("<u4") | _PAIRS.astype("<u4") << 16).ravel()  # "0000".."9999"
# two words whose first c bytes are 0xFF, for c in 0..16; a "." at byte c, none at 16
_FIRST_BYTES = np.array([[(1 << 8 * min(c, 8)) - 1, (1 << 8 * max(c - 8, 0)) - 1] for c in range(17)], _U64)
_DOTS = np.vstack([(_FIRST_BYTES[1:] ^ _FIRST_BYTES[:-1]) & _U64(0x2E2E2E2E2E2E2E2E), np.zeros((1, 2), _U64)])
# By precision p in 6..13 and exponent e in -99..99, row 199 * (p - 6) + e + 99:
# 10**(p - 1 - e) as a factor and a divisor, one of them 1; the byte after the
# digit the point follows (16 for none); "e", the exponent's sign and two
# digits, or 0 in fixed form; and, 1592 rows on for a negative value, the sign,
# then "0." and -e - 1 zeros of a value below 1, right-aligned in 6 bytes.
_BY_P = [(p, e) for p in range(6, 14) for e in range(-99, 100)]
_SCALES = np.array([[float(10 ** max(p - 1 - e, 0)) for p, e in _BY_P], [float(10 ** max(e + 1 - p, 0)) for p, e in _BY_P]])
_POINTS = np.array([e + 1 if 0 <= e < p else 16 if -4 <= e < 0 else 1 for p, e in _BY_P], np.int16)
_EXPOS = np.array([0 if -4 <= e < p else int.from_bytes(f"e{e:+03d}".encode(), "little") for p, e in _BY_P], "<u4")
_HEADS = np.array([int.from_bytes(("-" * neg + ("0." + "0" * (-1 - e)) * (-4 <= e < 0)).rjust(6, "\0").encode(), "little")
                   for neg in (0, 1) for p, e in _BY_P], _U64)
for _table in (_QUADS, _FIRST_BYTES, _DOTS, _SCALES, _POINTS, _EXPOS, _HEADS):
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


def _float_cells(columns, precision: int, as_json: bool, rows, at, scratch) -> None:
    """Write `_float_texts(column, precision, as_json)` of each float column,
    as long as rows, into the uint8 matrix rows: column j's cells are the
    max(11 + p, 22) bytes from byte at[j], padded with 0. scratch is a uint8
    buffer of 56 bytes per value or more.

    numpy formats the columns as one block, for precisions p up to 13 on a
    little-endian host. With e = floor(log10|x|) in -99..99, m = rint(|x| *
    10**(p - 1 - e)) holds the p significant digits (one rounding for |p - 1
    - e| <= 22, two above), and m * 10**(16 - p) four groups of four ASCII
    digits (`_QUADS`). The digits after the last nonzero one, or after the
    integer part if that is longer, are masked to 0, and those after the
    point move up a byte for it. A cell's sign and any "0." and zeros, its
    digits and point, and "e", the exponent's sign and two digits go in as
    unaligned words at bytes 0, 6 and 7 + p, each over the 0 bytes before.

    The per-float route writes the cells of zeros, non-finite values, scaled
    fractions within 2**-49 * 10**p (at least 4 ulp) of one half, digits m
    outside [10**(p - 1), 10**p) (an off-by-one or clipped e, or a carry into
    the next decade), and in JSON integral and "e+XX" texts, which json spells
    otherwise."""
    p, count = precision, len(rows)
    n, offset, width = count * len(columns), 199 * (p - 6) + 99, max(11 + p, 22)
    parts = np.split(scratch[: 56 * n], np.cumsum([16 * n, 16 * n, 16 * n, 2 * n]))
    floats, index, spare, (ok, flag), (kept, point, power) = (
        part.view(dtype).reshape(-1, n) for part, dtype in zip(parts, (np.float64, np.intp, _U64, np.bool_, np.int16)))
    (size, m), row, spare = floats, index[0], spare.reshape(n, 2)
    for j, column in enumerate(columns):
        np.abs(column, out=size[j * count : (j + 1) * count])
    with np.errstate(divide="ignore"):  # 0, inf and NaN take e = -99 or 99, and fail the checks below
        np.floor(np.log10(size, out=m), out=m)
    np.copyto(row, np.fmin(np.fmax(m, -99.0, out=m), 99.0, out=m), casting="unsafe")
    row += offset
    np.subtract(row, offset - 1, out=power, casting="unsafe")  # e + 1
    _POINTS.take(row, out=point, mode="clip")
    size *= _SCALES[0].take(row, out=m, mode="clip")
    size /= _SCALES[1].take(row, out=m, mode="clip")
    np.rint(size, out=m)  # size is now y, and m its rounding
    np.greater_equal(size, 10.0 ** (p - 1), out=ok)
    ok &= np.less(m, 10.0**p, out=flag)
    size -= m
    ok &= np.less(np.abs(size, out=size), 0.5 - 2.0**-49 * 10.0**p, out=flag)
    np.copyto(m, 10.0 ** (p - 1), where=np.logical_not(ok, out=flag))
    m *= 10.0 ** (16 - p)  # p digits, then 16 - p zeros
    # m // 10**8 and m % 10**8 (1e-8 rounds up, so the floor is exact), then each
    # word's high group by truncation (1e-4 rounds up) and low group by rint
    np.floor(np.multiply(m, 1e-8, out=size), out=size)
    m -= np.multiply(size, 1e8, out=size)
    size /= 1e8
    floats *= 1e-4
    halves = spare.reshape(-1).view("<u4").reshape(2, 2, n)
    np.copyto(index, floats, casting="unsafe")
    _QUADS.take(index, out=halves[0], mode="clip")
    floats -= index
    np.copyto(index, np.rint(np.multiply(floats, 1e4, out=floats), out=floats), casting="unsafe")
    _QUADS.take(index, out=halves[1], mode="clip")
    groups = floats.reshape(-1).view("<u4").reshape(n, 2, 2)  # four digits each, in memory order
    for part in range(4):
        groups[:, part & 1, part >> 1] = halves[part >> 1, part & 1]
    digits, words = groups.reshape(n, 4).view(_U64), spare.view(np.float64)
    # digits up to the last nonzero one: a word's bit length, in bytes (a
    # digit's low nibble is below 16, so the float conversion cannot round it up)
    lengths = index.reshape(-1)[:n].view(np.int32).reshape(n, 2)
    np.frexp(np.bitwise_and(digits, _U64(0x0F0F0F0F0F0F0F0F), out=words, casting="unsafe"), out=(words, lengths))
    np.right_shift(np.add(lengths, 7, out=lengths), 3, out=lengths)
    np.add(lengths[:, 1], 8, out=lengths[:, 1], where=np.greater(lengths[:, 1], 0, out=flag))
    np.maximum(lengths[:, 0], lengths[:, 1], out=kept, casting="unsafe")
    if as_json:
        ok &= np.greater(kept, power, out=flag)
    np.maximum(kept, point, out=kept, where=np.less(point, 16, out=flag))
    np.copyto(point, 16, where=np.less_equal(kept, point, out=flag))  # the point's byte, 16 for none
    np.copyto(row, kept)
    digits &= _FIRST_BYTES.take(row, axis=0, out=spare, mode="clip")
    np.copyto(row, point)
    masks = _FIRST_BYTES.take(row, axis=0, out=spare, mode="clip")
    masks &= digits  # the digits up to the point
    digits ^= masks  # and those after it, which move up a byte
    masks[:, 1] |= np.right_shift(digits[:, 0], _U64(56), out=index[1].view(_U64))
    digits <<= _U64(8)
    masks |= digits
    masks |= _DOTS.take(row, axis=0, out=digits, mode="clip")
    np.logical_not(ok, out=flag)
    expos = _EXPOS.take(np.add(power, offset - 1, out=row), out=index[1].view("<u4")[:n], mode="clip")
    for j, (column, start) in enumerate(zip(columns, at)):
        part = slice(j * count, (j + 1) * count)
        # each part as the unaligned word of every row that starts at its byte
        rows[:, start : start + 8].view(_U64)[:, 0] = _HEADS.take(row[part] + 1592 * np.signbit(column))
        rows[:, start + 6 : start + 14].view(_U64)[:, 0] = masks[part, 0]
        rows[:, start + 14 : start + 22].view(_U64)[:, 0] = masks[part, 1]
        rows[:, start + 7 + p : start + 11 + p].view("<u4")[:, 0] = expos[part]
        rest = np.flatnonzero(flag[part])
        if rest.size:
            texts = np.array(_float_texts(column[rest], p, as_json), f"S{width}")
            rows[rest, start : start + width] = texts.view(np.uint8).reshape(-1, width)


def _write_rows(write, n: int, columns, literals, precision: int, as_json: bool, sep: str = "") -> None:
    """Write n rows `literals[0] cell literals[1] ... cell literals[-1]`,
    joined by sep, in chunks of ROWS rows, as bytes; columns(start, stop)
    gives the chunk's columns, one float cell per column and row (a float
    array, or the texts of one shorter than CROSSOVER). A chunk of CROSSOVER
    rows or more is a uint8 matrix of the literals and cells as wide as the
    numpy formatter's widest, made once and reused, whose nonzero bytes are
    its text, or, when every cell is one row, that row's bytes repeated."""
    literals = [*literals[:-1], literals[-1] + sep]
    encoded = [text.encode("ascii") for text in literals]
    width = max(11 + precision, 22)
    template = encoded[0] + b"".join(bytes(width) + literal for literal in encoded[1:])
    at = [len(encoded[0]) + k * width + len(b"".join(encoded[1 : k + 1])) for k in range(len(encoded) - 1)]
    matrix = scratch = None
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
        varying = [j for j, column in enumerate(chunk) if not _one_bit_pattern(column)]
        cells = {j: _float_texts(column[:1], precision, as_json)[0].encode("ascii") for j, column in enumerate(chunk) if j not in varying}
        if not varying:  # one row's bytes, repeated
            text = (encoded[0] + b"".join(cells[j] + literal for j, literal in enumerate(encoded[1:]))) * count
            write(memoryview(text)[: len(text) - len(sep)] if last else text)
            continue
        if matrix is None:
            buffer = bytearray(template) * min(ROWS, n)
            matrix = np.frombuffer(buffer, np.uint8).reshape(-1, len(template))
        if scratch is None or len(scratch) < 56 * len(varying) * len(matrix):
            scratch = np.empty(56 * len(varying) * len(matrix), np.uint8)
        rows = matrix[:count]
        for j, cell in cells.items():
            rows[:, at[j] : at[j] + width] = np.frombuffer(cell.ljust(width, b"\0"), np.uint8)
        _float_cells([chunk[j] for j in varying], precision, as_json, rows, [at[j] for j in varying], scratch)
        if last and sep:  # no separator after the last row
            rows[-1, len(template) - len(sep) :] = 0
        if count < len(matrix):  # the last chunk: the buffer, cut to its rows once no view holds it
            del rows, matrix
            del buffer[count * len(template) :]
        write(buffer.translate(None, b"\0"))  # as fast as a mask per chunk, faster end to end


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
        try:
            with open(path if fd is None else fd, "wb", closefd=fd is None) as handle:
                render(handle.write)
        except OSError as exc:  # name the file asked for, as an error opening it does
            raise OSError(exc.errno, exc.strerror, path) from None
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
