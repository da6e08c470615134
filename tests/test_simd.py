"""The same bytes on every numpy SIMD target numpy can turn off here.

numpy runs some loops through kernels it picks at run time for the host's
CPU (its dispatched targets), and NPY_DISABLE_CPU_FEATURES, read as numpy
starts, turns them off. The golden `run` commands (sec5-sec8, CSV and JSON,
both sec8 bases, precisions 6, 16 and 17, and the longer grids) must write
the same bytes with every dispatched target off as with numpy's own choice.
The float formatter takes its exponents from `np.log10`, whose last bit
differs between targets; its off-by-one guard sends such values to the
per-float route, so the exports hold. `verify-linear` (and `run sec3`) is
the known difference: numpy's complex products round differently on the
FMA targets than on the baseline, so that suite's deviations, and its
bytes, move. Other architectures than this host's cannot be checked here.
"""

import json
import os
import subprocess
import sys

import pytest
from test_golden import GOLDEN

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(__file__))), "src")
COMMANDS = [argv for argv, _ in GOLDEN.values() if argv[0] == "run" and argv[1] != "sec3"]

# Prints numpy's dispatched targets, or the SHA-256 of each command's bytes.
CHILD = r"""
import hashlib, json, os, sys, tempfile
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__
if sys.argv[1] == "targets":
    print(json.dumps(list(__cpu_dispatch__)))
    raise SystemExit
from spinpair.cli import main
digests = []
with tempfile.TemporaryDirectory() as root:
    for k, argv in enumerate(json.loads(sys.argv[1])):
        path = os.path.join(root, str(k))
        code = main([*argv, "--out", path])
        with open(path, "rb") as handle:
            digests.append([code, hashlib.sha256(handle.read()).hexdigest()])
print(json.dumps(digests))
"""


def child(arg, **env):
    done = subprocess.run(
        [sys.executable, "-c", CHILD, arg], env={**os.environ, "PYTHONPATH": SRC, **env},
        capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(done.stdout)


def test_the_golden_exports_hold_with_every_dispatched_target_off():
    targets = child("targets")
    if not targets:
        pytest.skip("numpy dispatches nothing beyond its baseline on this host: one path, nothing to compare")
    commands = json.dumps(COMMANDS)
    default = child(commands)
    baseline = child(commands, NPY_DISABLE_CPU_FEATURES=" ".join(targets))
    assert [code for code, _ in default] == [0] * len(COMMANDS)
    for argv, ours, theirs in zip(COMMANDS, default, baseline):
        assert ours == theirs, " ".join(argv)
