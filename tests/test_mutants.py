"""MUTANTS.json: planted defects, and the tests that fail on each.

A record names a file of the repository, text that occurs exactly once in
it, the text that replaces it, why the result is wrong, and the ids of the
tests that failed when the mutant was applied to a copy of the tree and the
tests were run there. These tests do not run the mutants. They check that
every record still applies: a record whose text no longer occurs exactly
once, or that names a test no longer defined, is stale, as a changed
keep-list entry of the reachability test is, and must be rewritten and run
again.
"""

import ast
import functools
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
with open(os.path.join(ROOT, "MUTANTS.json"), encoding="utf-8") as handle:
    MUTANTS = json.load(handle)


def test_ids_are_unique():
    ids = [mutant["id"] for mutant in MUTANTS]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant["id"])
def test_the_mutant_applies_once(mutant):
    assert {"file", "id", "killed_by", "new", "old", "reason"} <= set(mutant) <= {
        "file", "id", "killed_by", "new", "old", "reason", "seconds", "status"}
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
    test that was renamed or folded into another leaves a stale id."""
    assert mutant["killed_by"], "a mutant no test kills needs a test, or a reason it is equivalent"
    for test_id in mutant["killed_by"]:
        path, _, name = test_id.partition("::")
        assert name.partition("[")[0] in defined_tests(path), test_id
