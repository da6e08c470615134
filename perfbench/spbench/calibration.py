"""Host-speed reference measured alongside the commands.

The machines this benchmark runs on are shared virtual machines whose speed
drifts by tens of percent over minutes, and CPU time drifts with wall time,
so longer runs alone cannot make wall times repeat. The runner therefore
interleaves a fixed calibration unit with the commands (UNIT_SHARE of the
command time) and scales times by REFERENCE_UNIT_S / (mean unit time): each
command by the units run within a second or so of it, totals over the run by
all of them. Times are then given in reference seconds, the wall time the
same work takes when one unit takes REFERENCE_UNIT_S. The raw wall times and
the factors are reported beside them.

The unit does the kinds of work spinpair commands do (many small numpy calls
on 2x2 and 4x4 complex arrays, float formatting, JSON encoding) and uses
nothing from spinpair, so a change to the program cannot move it.

Set-up time (a fresh interpreter importing spinpair.cli) is dominated by
process start and the numpy import, which a unit run in the parent does not
track. It is scaled instead by a reference child that imports only what
spinpair.cli imports from outside the package, started right before each
measured child: setup seconds = REFERENCE_START_S * (sum of measured starts)
/ (sum of reference starts).
"""

from __future__ import annotations

import bisect
import itertools
import json
import statistics
import time

import numpy as np

REFERENCE_UNIT_S = 0.010
REFERENCE_START_S = 0.15
REFERENCE_IMPORTS = "import argparse, dataclasses, enum, json, math, pathlib, sys, typing, numpy"
UNIT_SHARE = 0.25
UNIT_REPEATS = 3
WINDOW_S = 1.0
MIN_UNITS = 3


def unit() -> float:
    """One fixed piece of work; returns a value so nothing is skipped."""
    a = np.array([[0.6, 0.8j], [0.8j, 0.6]])
    m = np.kron(a, a)
    acc = 0.0
    for _ in range(UNIT_REPEATS):
        for i in range(60):
            k = np.kron(a, a.conj().T)
            acc += float(np.trace(k @ m).real) + float(np.linalg.norm(k[:, i % 4]))
        text = json.dumps({"points": [[format(j * 0.001 + acc * 1e-9, ".12g")] for j in range(300)]}, indent=2)
        acc += len(text)
    return acc


class Calibrator:
    """Runs calibration units so that they take UNIT_SHARE of the time spent on commands."""

    def __init__(self) -> None:
        self.mids: list[float] = []
        self.times: list[float] = []
        self.spent = 0.0

    def run_unit(self) -> None:
        start = time.perf_counter()
        unit()
        end = time.perf_counter()
        self.mids.append(0.5 * (start + end))
        self.times.append(end - start)
        self.spent += end - start

    def keep_up(self, busy_s: float) -> None:
        """Run units until they have taken UNIT_SHARE of busy_s."""
        while self.spent < UNIT_SHARE * busy_s:
            self.run_unit()

    def factor(self) -> float:
        """Multiply a total of wall time over the run by this to get reference seconds."""
        return REFERENCE_UNIT_S / statistics.fmean(self.times)

    def local_factors(self, spans) -> list[float]:
        """One factor per (start, end) span, from the units run near it.

        The window is centred on the span and reaches WINDOW_S or the span's
        own length to each side, whichever is more, widened until it holds
        MIN_UNITS units. Host speed drifts over seconds, so a command is
        scaled by the speed measured around it rather than by the run's
        average.
        """
        prefix = list(itertools.accumulate(self.times, initial=0.0))
        factors = []
        for start, end in spans:
            mid = 0.5 * (start + end)
            half = max(WINDOW_S, end - start)
            while True:
                lo = bisect.bisect_left(self.mids, mid - half)
                hi = bisect.bisect_right(self.mids, mid + half)
                if hi - lo >= MIN_UNITS or hi - lo == len(self.mids):
                    break
                half *= 2
            factors.append(REFERENCE_UNIT_S * (hi - lo) / (prefix[hi] - prefix[lo]))
        return factors
