"""Run the mutants of MUTANTS.json and record which tests kill each.

    python tests/mutants.py                 # every record, each on its own test files
    python tests/mutants.py ID ...          # the named records only
    python tests/mutants.py --all-tests ID  # on every test file, for a new record

For each record this copies src/, tests/ and pyproject.toml to a temporary
directory, replaces the record's `old` text (which must occur once) with its
`new` text in the copy, and runs pytest there in a child, with PYTHONPATH at
the copy, a timeout and Hypothesis's shrink phase off. The child runs the
files of the record's `killed_by` ids (every test file when there are none,
or with --all-tests), never tests/test_mutants.py, which fails on every
mutant because the mutant removes its own `old` text. The record gets back
its `status` (killed, survived or timeout), the ids of the tests that failed
as `killed_by`, and the `seconds` the run took. A record kept as
`"status": "equivalent"`, with the reason no test can tell it from the
program in `equivalent`, is run on every test file too; it stays equivalent
while nothing fails, and the run says so when a test now kills it, whose
reason tests/test_mutants.py then reports as stale.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
LIST = os.path.join(ROOT, "MUTANTS.json")
TIMEOUT_S = 900
# loaded by the copy's tests: every example is tried, none is shrunk
CONFTEST = """from hypothesis import Phase, settings
settings.register_profile("mutants", phases=[phase for phase in Phase if phase is not Phase.shrink], database=None)
settings.load_profile("mutants")
"""


def test_files(mutant, every: bool) -> list:
    named = sorted({test_id.partition("::")[0] for test_id in mutant["killed_by"]})
    if every or not named:
        named = sorted(f"tests/{name}" for name in os.listdir(os.path.join(ROOT, "tests")) if name.startswith("test_"))
    return [name for name in named if name != "tests/test_mutants.py"]


def failed_ids(report: str) -> list:
    """"tests/file.py::Class::name[param]" of each failed or erred test case
    in a JUnit XML report."""
    ids = set()
    for case in ET.parse(report).iter("testcase"):
        if case.find("failure") is not None or case.find("error") is not None:
            folder, module, *cls = case.get("classname").split(".")
            ids.add("::".join([f"{folder}/{module}.py", *cls, case.get("name")]))
    return sorted(ids)


def run(mutant, every: bool) -> dict:
    with tempfile.TemporaryDirectory() as copy:
        for name in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, name), os.path.join(copy, name), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), copy)
        with open(os.path.join(copy, "tests", "conftest.py"), "w", encoding="utf-8") as handle:
            handle.write(CONFTEST)
        path = os.path.join(copy, mutant["file"])
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        if text.count(mutant["old"]) != 1:
            raise SystemExit(f"{mutant['id']}: its old text does not occur exactly once in {mutant['file']}")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text.replace(mutant["old"], mutant["new"]))
        report = os.path.join(copy, "report.xml")
        argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"--junitxml={report}", *test_files(mutant, every)]
        start = time.perf_counter()
        try:
            subprocess.run(argv, cwd=copy, env={**os.environ, "PYTHONPATH": os.path.join(copy, "src")},
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            return {**mutant, "status": "timeout", "seconds": TIMEOUT_S}
        seconds = round(time.perf_counter() - start, 1)
        killers = failed_ids(report)
    status = "killed" if killers else "equivalent" if mutant.get("status") == "equivalent" else "survived"
    return {**mutant, "status": status, "killed_by": killers, "seconds": seconds}


def main(args) -> None:
    every = "--all-tests" in args
    wanted = [arg for arg in args if arg != "--all-tests"]
    with open(LIST, encoding="utf-8") as handle:
        mutants = json.load(handle)
    for k, mutant in enumerate(mutants):
        if wanted and mutant["id"] not in wanted:
            continue
        mutants[k] = run(mutant, every)
        print(f"{mutant['id']}: {mutants[k]['status']}, {len(mutants[k]['killed_by'])} tests, {mutants[k]['seconds']} s", flush=True)
        if mutant.get("status") == "equivalent" and mutants[k]["status"] != "equivalent":
            print(f"{mutant['id']}: recorded as equivalent, now {mutants[k]['status']}: its reason no longer holds", flush=True)
        with open(LIST, "w", encoding="utf-8") as handle:  # after each record, so a cut run keeps what it found
            handle.write("[\n" + ",\n".join("  " + json.dumps(record) for record in mutants) + "\n]\n")


if __name__ == "__main__":
    main(sys.argv[1:])
