"""Spans around every call one spinpair module makes into another.

Nothing in the package is edited. The tracer rebinds, in each module's
globals, the public functions and dataclass constructors that the module
imported from a sibling module, plus the three calls cli.main makes
(parse_args, run_scenario, emit_report). Each rebinding is a wrapper that
records a span: name, start, end, parent span, command id and whether the
call raised. A span belongs to the layer (module) that defines the callee;
a root span "cli.main" covers each traced command.

Spans stay in memory as flat typed arrays until the run ends. A layer's self
time is the duration of its spans minus the part covered by their child
spans, so the self times of one command add up to its root span by
construction. What can go wrong is the root span itself: run.py compares the
sum with the command's wall time measured outside the tracer.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import re
import time
from array import array
from collections import Counter
from typing import Sequence

PACKAGE = "spinpair"
LAYERS = ("cli", "scenarios", "dynamics_nonlinear", "dynamics_linear", "measurement", "states", "qmath")
ROOT = "cli.main"
# Calls cli.main makes into its own module; every other traced call crosses modules.
OWN_CALLS = {"cli": ("parse_args", "emit_report")}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_grid(counts, args, kwargs, result):
    counts["grid_points"] += len(_arg(args, kwargs, 3, "times"))


def _count_trials(counts, args, kwargs, result):
    counts["trials"] += int(_arg(args, kwargs, 0, "trials"))


def _count_outcomes(counts, args, kwargs, result):
    counts["projectors_tried"] += len(_arg(args, kwargs, 1, "basis"))
    counts["outcomes"] += len(result)


# Work done at a boundary, counted where the call happens.
COUNTERS = {
    "dynamics_nonlinear.evolve_ensemble": _count_grid,
    "dynamics_linear.no_signalling_suite": _count_trials,
    "measurement.measure_all": _count_outcomes,
}


def _layer_of(obj) -> str | None:
    home = getattr(obj, "__module__", None)
    if not isinstance(home, str):
        return None
    prefix, _, layer = home.rpartition(".")
    return layer if prefix == PACKAGE and layer in LAYERS else None


def _needs_the_class(name: str, source: str) -> bool:
    """True when the module uses the class itself, not just calls it:
    isinstance/issubclass, except clauses or attribute access."""
    word = re.escape(name)
    return bool(
        re.search(rf"(isinstance|issubclass)\([^)]*\b{word}\b", source)
        or re.search(rf"except\b[^:]*\b{word}\b", source)
        or re.search(rf"\b{word}\.", source)
    )


def traced_bindings():
    """(module, attribute, callee, span name) for every call site the tracer wraps."""
    found = []
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        source = inspect.getsource(module)
        for attr, value in sorted(vars(module).items()):
            home = _layer_of(value)
            if attr.startswith("_") or home is None:
                continue
            if home == layer and attr not in OWN_CALLS.get(layer, ()):
                continue
            if inspect.isfunction(value):
                pass
            elif not (inspect.isclass(value) and dataclasses.is_dataclass(value)) or _needs_the_class(attr, source):
                continue
            found.append((module, attr, value, f"{home}.{value.__qualname__}"))
    return found


class Tracer:
    """Records spans while installed; install and uninstall around each traced command."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.cmds = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.raised = array("b")
        self.counts: Counter = Counter()
        self._current = -1
        self._cmd = -1
        self._root = self._name_id(ROOT)
        self._bindings = [
            (module, attr, callee, self._wrap(callee, self._name_id(name), COUNTERS.get(name)))
            for module, attr, callee, name in traced_bindings()
        ]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name_id: int, counter):
        perf = time.perf_counter
        name_ids, parents, cmds = self.name_ids, self.parents, self.cmds
        starts, ends, raised = self.starts, self.ends, self.raised

        def traced(*args, **kwargs):
            parent = self._current
            index = len(starts)
            name_ids.append(name_id)
            parents.append(parent)
            cmds.append(self._cmd)
            raised.append(0)
            ends.append(0.0)
            self._current = index
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[index] = perf()
                raised[index] = 1
                self._current = parent
                raise
            ends[index] = perf()
            self._current = parent
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, callee, _ in self._bindings:
            setattr(module, attr, callee)

    @property
    def binding_names(self) -> list[str]:
        return sorted({f"{module.__name__.rpartition('.')[2]}.{attr}" for module, attr, _, _ in self._bindings})

    def run_command(self, cmd_id: int, fn, *args):
        """Call fn(*args) under a root span, with the wrappers installed."""
        self._cmd = cmd_id
        root = self._wrap(fn, self._root, None)
        self.install()
        try:
            return root(*args)
        finally:
            self.uninstall()
            self._cmd = -1

    def __len__(self) -> int:
        return len(self.starts)

    def spans(self) -> "SpanTable":
        return SpanTable(self.names, self.name_ids, self.parents, self.cmds, self.starts, self.ends, self.raised)


@dataclasses.dataclass
class SpanTable:
    """Column view of recorded spans; index i is span id i, and
    names[name_ids[i]] is its name."""

    names: list[str]
    name_ids: Sequence[int]
    parents: Sequence[int]
    cmds: Sequence[int]
    starts: Sequence[float]
    ends: Sequence[float]
    raised: Sequence[int]

    def durations(self) -> array:
        return array("d", (e - s for s, e in zip(self.starts, self.ends)))

    def self_times(self) -> array:
        """Each span's duration minus the durations of its direct children."""
        durations = self.durations()
        own = array("d", durations)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= durations[index]
        return own

    def write_jsonl(self, path, origin: float) -> None:
        """One JSON object per span; times in seconds since origin."""
        quoted = [json.dumps(name) for name in self.names]
        with open(path, "w", encoding="utf-8") as out:
            for index, name_id in enumerate(self.name_ids):
                parent = self.parents[index]
                out.write(
                    f'{{"id": {index}, "name": {quoted[name_id]}, '
                    f'"start": {self.starts[index] - origin!r}, "end": {self.ends[index] - origin!r}, '
                    f'"parent": {parent if parent >= 0 else "null"}, "cmd": {self.cmds[index]}, '
                    f'"raised": {"true" if self.raised[index] else "false"}}}\n'
                )


def summarize(table: SpanTable) -> dict:
    """Totals over all spans: per layer self time and calls, per span name
    inclusive time and calls, and per command root duration vs summed self time."""
    own = table.self_times()
    durations = table.durations()
    layer_self: Counter = Counter()
    layer_calls: Counter = Counter()
    name_time: Counter = Counter()
    name_calls: Counter = Counter()
    cmd_self: Counter = Counter()
    cmd_root: dict[int, float] = {}
    for index, name_id in enumerate(table.name_ids):
        name = table.names[name_id]
        layer = name.partition(".")[0]
        layer_self[layer] += own[index]
        name_time[name] += durations[index]
        name_calls[name] += 1
        cmd_self[table.cmds[index]] += own[index]
        if table.parents[index] < 0:
            cmd_root[table.cmds[index]] = durations[index]
        else:
            layer_calls[layer] += 1
    return {
        "layer_self": layer_self,
        "layer_calls": layer_calls,
        "name_time": name_time,
        "name_calls": name_calls,
        "cmd_self": cmd_self,
        "cmd_root": cmd_root,
    }
