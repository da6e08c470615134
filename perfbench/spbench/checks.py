"""Output checks that decide whether a command counts as failed.

They test structure and the contracts, not exact bytes, so they keep holding
when a change rewrites the output on purpose (a batched linear suite with a
new seed mapping, or a JSON schema that writes the time grid once). Byte
changes are reported separately through the SHA-256 of each output.
"""

from __future__ import annotations

import json

from .workloads import Command

CSV_HEADER = "t,arm,sigma1,sigma2,sigma3"
ARMS = ("armA", "armB")
LINEAR_DIVERGENCE_BOUND = 1e-10


def check_output(cmd: Command, data: bytes) -> list[str]:
    """Problems found in one command's output; an empty list means it passed."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return [f"output is not UTF-8: {exc}"]
    if cmd.fmt == "csv":
        return _check_csv(cmd, text)
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    if not isinstance(doc, dict):
        return ["JSON output is not an object"]
    problems = [] if doc.get("contracts_ok") is True else ["contracts_ok is not true"]
    if cmd.is_linear:
        return problems + _check_linear(cmd, doc)
    return problems + _check_arms(cmd, doc)


def _check_csv(cmd: Command, text: str) -> list[str]:
    lines = text.splitlines()
    expected = 1 + len(ARMS) * cmd.grid
    if len(lines) != expected:
        return [f"CSV has {len(lines)} rows, expected {expected}"]
    if lines[0] != CSV_HEADER:
        return [f"CSV header is {lines[0]!r}"]
    for number, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != 5 or fields[1] not in ARMS:
            return [f"CSV row {number} is malformed: {line!r}"]
        try:
            values = [float(fields[0])] + [float(f) for f in fields[2:]]
        except ValueError:
            return [f"CSV row {number} holds a non-number: {line!r}"]
        if any(v != v or abs(v) == float("inf") for v in values):
            return [f"CSV row {number} holds a non-finite value: {line!r}"]
    return []


def _check_arms(cmd: Command, doc: dict) -> list[str]:
    arms = doc.get("arms")
    if not isinstance(arms, dict) or sorted(arms) != list(ARMS):
        return [f"JSON arms are {sorted(arms) if isinstance(arms, dict) else arms!r}, expected {list(ARMS)}"]
    problems = []
    for name in ARMS:
        arm = arms[name]
        points = arm.get("points") if isinstance(arm, dict) else None
        if not isinstance(points, list) or len(points) != cmd.grid:
            size = len(points) if isinstance(points, list) else None
            problems.append(f"arm {name} has {size} points, expected {cmd.grid}")
        elif "times" in arm and len(arm["times"]) != cmd.grid:
            problems.append(f"arm {name} has {len(arm['times'])} times, expected {cmd.grid}")
    return problems


def _check_linear(cmd: Command, doc: dict) -> list[str]:
    problems = []
    divergence = doc.get("divergence")
    if not isinstance(divergence, (int, float)) or not 0 <= divergence < LINEAR_DIVERGENCE_BOUND:
        problems.append(f"divergence {divergence!r} is not below {LINEAR_DIVERGENCE_BOUND}")
    config = doc.get("config")
    trials = config.get("trials") if isinstance(config, dict) else None
    if trials != cmd.trials:
        problems.append(f"report covers {trials!r} trials, expected {cmd.trials}")
    return problems
