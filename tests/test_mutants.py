"""MUTANTS.json: planted defects, and the tests that fail on each.

A record names a file of the repository, text that occurs exactly once in
it, the text that replaces it, why the result is wrong, and the ids of the
tests that failed when the mutant was applied to a copy of the tree and the
tests were run there; or, for a mutant that no test can tell from the
program, `"status": "equivalent"`, the reason in `equivalent`, and no
killers. These tests check that every record still applies: a record whose
text no longer occurs exactly once, or that names a test no longer defined,
is stale, as a changed keep-list entry of the reachability test is, and
must be rewritten and run again. One runs the kill-run script,
tests/mutants.py, on one record.
"""

import ast
import functools
import json
import os
import sys
import time

import pytest

import mutants

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
with open(os.path.join(ROOT, "MUTANTS.json"), encoding="utf-8") as handle:
    MUTANTS = json.load(handle)


def test_ids_are_unique():
    ids = [mutant["id"] for mutant in MUTANTS]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant["id"])
def test_the_mutant_applies_once(mutant):
    assert {"file", "id", "killed_by", "new", "old", "reason"} <= set(mutant) <= {
        "equivalent", "file", "id", "killed_by", "new", "old", "reason", "seconds", "status"}
    with open(os.path.join(ROOT, mutant["file"]), encoding="utf-8") as handle:
        assert handle.read().count(mutant["old"]) == 1
    assert mutant["new"] != mutant["old"]


@functools.cache
def defined_tests(path: str) -> set:
    """"function" and "Class::function" for each def of a test file."""
    with open(os.path.join(ROOT, path), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    names = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            names.update(f"{node.name}::{item.name}" for item in node.body if isinstance(item, ast.FunctionDef))
    return names


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant["id"])
def test_the_killing_tests_exist(mutant):
    """Each killed_by id names a def of its file, its parameters dropped: a
    test that was renamed or folded into another leaves a stale id. Only an
    equivalent mutant, with its reason, has none."""
    if mutant.get("status") == "equivalent":
        assert mutant["killed_by"] == [] and mutant["equivalent"].strip()
    else:
        assert "equivalent" not in mutant
        assert mutant["killed_by"], "a mutant no test kills needs a test, or a reason it is equivalent"
    for test_id in mutant["killed_by"]:
        path, _, name = test_id.partition("::")
        assert name.partition("[")[0] in defined_tests(path), test_id


def test_the_kill_run_kills_a_recorded_mutant():
    """tests/mutants.py applies the precision-bound record to a copy of the
    tree and runs the file of its killers there, in a child: the record
    comes back killed by the tests it names, and MUTANTS.json is left as it
    was, since only the script's main writes it."""
    path = os.path.join(ROOT, "MUTANTS.json")
    with open(path, "rb") as handle:
        before = handle.read()
    record = next(mutant for mutant in MUTANTS if mutant["id"] == "precision-bound")
    result = mutants.run(record, every=False)
    assert (result["status"], result["killed_by"]) == ("killed", record["killed_by"])
    with open(path, "rb") as handle:
        assert handle.read() == before


def running(pid: int) -> bool:
    """Whether process pid exists and is not a zombie (Linux /proc)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
def test_a_timed_out_run_leaves_no_process_behind(tmp_path):
    """The kill run's child runs in its own session, and a timeout kills its
    whole process group: the child, and a sleeping grandchild it started,
    are both gone once run_child returns."""
    pids = tmp_path / "pids"
    script = (
        "import os, subprocess, sys, time\n"
        "grandchild = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(120)'])\n"
        f"with open({str(pids)!r} + '.tmp', 'w') as handle:\n"
        "    handle.write(f'{os.getpid()} {grandchild.pid}')\n"
        f"os.rename({str(pids)!r} + '.tmp', {str(pids)!r})\n"
        "time.sleep(120)\n"
    )
    assert mutants.run_child([sys.executable, "-c", script], str(tmp_path), dict(os.environ), timeout=3) is False
    child, grandchild = map(int, pids.read_text().split())
    deadline = time.monotonic() + 10
    while (running(child) or running(grandchild)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not running(child) and not running(grandchild)
