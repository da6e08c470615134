"""Benchmark of the spinpair command line, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload linear-suite --seed 1 --seconds 25 --trace 0

Each run is one workload in one process. Commands go through
spinpair.cli.main(argv) in a closed loop (one command at a time, the next
starts when the previous returns), cycling through the workload's seeded
command pool for --seconds seconds and a whole number of passes over the
pool. Every output is hashed after its command and checked after the
measurement; see spbench/checks.py. Times are reported in reference seconds, scaled by a
calibration unit run between the commands; see spbench/calibration.py.

--trace 0 measures the end-to-end metrics with tracing off. --trace 1 runs
each command twice in a row, once plain and once traced, alternating which
goes first, and reports the per-layer metrics from the traced half plus the
tracing overhead: the median over pairs of traced / plain time, minus 1. Spans are written to
perfbench/out/spans-<workload>.jsonl when the run ends.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
A fuller record (provenance, output hashes, failures) goes to
perfbench/out/result-<workload>-trace<0|1>.json.
"""

from __future__ import annotations

import os

# One thread per native pool, set before numpy loads: the benchmark measures
# one single-threaded process, and the setup child inherits the same values.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

from spbench import calibration, checks, stats, tracing, workloads  # noqa: E402

SRC = os.path.abspath("src")
OUT_DIR = os.path.join("perfbench", "out")
OUT_FILE = os.path.join(OUT_DIR, "cmd.out")
FIRST_DIR = os.path.join(OUT_DIR, "first")
SETUP_STARTS = 10
SUBPROCESS_TIMEOUT_S = 60
MAX_LISTED_FAILURES = 20
# A traced command's wall time, taken around Tracer.run_command, also covers
# installing and removing the wrappers and entering the root span, which took
# 0.02-0.25 ms on a 2-core VM. The self times of its spans must fall short of
# it by no more than this.
TRACE_GAP_S = 2e-3


@dataclasses.dataclass
class Output:
    """The first output of one argv, kept on disk for the checks, and how many commands wrote it."""

    cmd: workloads.Command
    digest: str
    size: int
    path: str
    commands: int = 1


class Runner:
    """Runs commands and hashes their outputs; check_outputs() checks them after the run.

    Only a streamed hash is taken between commands, so the process's peak
    memory stays the program's own; see main().
    """

    def __init__(self, main) -> None:
        self.main = main
        self.outputs: dict[str, Output] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _fail(self, key: str, problems: list[str], commands: int = 1) -> None:
        self.failed += commands
        self.failures.append(f"{key}: {'; '.join(problems)}" + (f" ({commands} commands)" if commands > 1 else ""))

    def run(self, cmd: workloads.Command, tracer: tracing.Tracer | None = None) -> tuple[float, float, int]:
        """(start, wall seconds, bytes written) of one command; failures are recorded."""
        argv = [*cmd.argv, "--out", OUT_FILE]
        if os.path.exists(OUT_FILE):
            os.remove(OUT_FILE)
        cmd_id = self.attempted
        self.attempted += 1
        start = time.perf_counter()
        try:
            code = self.main(argv) if tracer is None else tracer.run_command(cmd_id, self.main, argv)
        except Exception as exc:  # a crash is a failed command, not a failed benchmark
            code = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        key = " ".join(cmd.argv)
        problems = [] if code == 0 else [f"exit code {code}"]
        try:
            with open(OUT_FILE, "rb") as handle:
                digest = hashlib.file_digest(handle, "sha256").hexdigest()
                size = handle.tell()
        except FileNotFoundError:
            size = 0
            problems.append("no output file")
        if not problems:
            kept = self.outputs.get(key)
            if kept is None:
                path = os.path.join(FIRST_DIR, f"{len(self.outputs)}.out")
                os.replace(OUT_FILE, path)
                self.outputs[key] = Output(cmd, digest, size, path)
            elif kept.digest != digest:
                problems = ["a repeat of this argv wrote different bytes"]
            else:
                kept.commands += 1
        if problems:
            self._fail(key, problems)
        return start, seconds, size

    def check_outputs(self) -> None:
        """Run the output checks on the first output of each argv. Every
        command that wrote those same bytes fails with it."""
        for key, out in self.outputs.items():
            with open(out.path, "rb") as handle:
                problems = checks.check_output(out.cmd, handle.read())
            if problems:
                self._fail(key, problems, out.commands)


def git_commit() -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside a git checkout."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(".git", ref), encoding="utf-8") as handle:
                return handle.read().strip()
        except FileNotFoundError:
            with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as handle:
                for line in handle:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, pool, spinpair, numpy) -> dict:
    return {
        "git_commit": git_commit(),
        "spinpair": spinpair.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_settings": {var: os.environ[var] for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pool_size": len(pool),
        "sample_argv": [*pool[0].argv, "--out", OUT_FILE],
    }


def measure_setup() -> dict:
    """Wall times of fresh interpreters importing spinpair.cli, each started
    right after a reference child that imports only what spinpair.cli
    imports from outside the package; one child at a time."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    children = {"reference": calibration.REFERENCE_IMPORTS, "program": "import spinpair.cli"}
    times: dict[str, list[float]] = {name: [] for name in children}
    for attempt in range(SETUP_STARTS + 1):
        for name, code in children.items():
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=SUBPROCESS_TIMEOUT_S, stdout=subprocess.DEVNULL)
            if attempt:  # the first start writes bytecode caches
                times[name].append(time.perf_counter() - start)
    return times


def _finished(count: int, pool_size: int, elapsed: float, seconds: float) -> bool:
    """Stop at the first whole pass over the pool after `seconds`, so every
    command of the pool weighs the same."""
    return count > 0 and count % pool_size == 0 and elapsed >= seconds


def measure_plain(runner: Runner, pool, seconds: float) -> dict:
    runner.run(pool[0])  # warm-up: lazy imports and first-call costs are not timed
    gc.collect()
    calibrator = calibration.Calibrator()
    spans, times, sizes = [], [], []
    start = time.perf_counter()
    while not _finished(len(times), len(pool), time.perf_counter() - start, seconds):
        began, elapsed, size = runner.run(pool[len(times) % len(pool)])
        spans.append((began, began + elapsed))
        times.append(elapsed)
        sizes.append(size)
        calibrator.keep_up(sum(times))
    wall = time.perf_counter() - start - calibrator.spent
    factors = calibrator.local_factors(spans)
    return {
        "times": times,
        "scaled": [t * f for t, f in zip(times, factors)],
        "factors": factors,
        "sizes": sizes,
        "wall": wall,
        "wall_factor": calibrator.factor(),
    }


def measure_traced(runner: Runner, pool, seconds: float, tracer: tracing.Tracer) -> dict:
    runner.run(pool[0])
    gc.collect()
    calibrator = calibration.Calibrator()
    plain, traced, traced_bytes = [], {}, 0
    start = time.perf_counter()
    while not _finished(len(traced), len(pool), time.perf_counter() - start, seconds):
        cmd = pool[len(traced) % len(pool)]
        for with_trace in (False, True) if len(traced) % 2 == 0 else (True, False):
            cmd_id = runner.attempted
            _, elapsed, size = runner.run(cmd, tracer if with_trace else None)
            if with_trace:
                traced[cmd_id] = elapsed
                traced_bytes += size
            else:
                plain.append(elapsed)
        calibrator.keep_up(sum(plain) + sum(traced.values()))
    return {
        "plain": plain,
        "traced": traced,  # wall seconds by command id
        "traced_bytes": traced_bytes,
        "factor": calibrator.factor(),  # per-layer metrics are totals over the run
    }


def end_to_end(setup: dict, run: dict) -> tuple[dict, dict, dict]:
    """Metrics in reference seconds (see spbench/calibration.py), metrics
    reported but not bounded, and notes with the raw wall times."""
    n = len(run["times"])
    fw = run["wall_factor"]
    p50, setup_p50 = stats.median(run["times"]), stats.median(setup["program"])
    setup_ratio = math.fsum(setup["program"]) / math.fsum(setup["reference"])
    tail = stats.tail(run["scaled"])
    metrics = {
        "setup_s": (setup_ratio * calibration.REFERENCE_START_S, "s"),
        "cmd_s.p50": (stats.median(run["scaled"]), "s"),
        "cmds_per_s": (n / (run["wall"] * fw), "1/s"),
        "out_bytes": (stats.median(run["sizes"]), "bytes"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    # The tail of millisecond commands follows the host's preemption spikes:
    # across seeds its quartile spread reached 0.23-0.32 on param-sweep, more
    # than any bound allows, so it is printed and recorded but not bounded.
    unbounded = {"cmd_s.tail": (tail[0], "s")} if tail else {}
    notes = {
        "setup_s": f"{SETUP_STARTS} fresh imports of spinpair.cli; median wall {setup_p50:.6f} s, total over the reference starts {setup_ratio:.4f}",
        "cmd_s.p50": f"median of {n} commands; wall {p50:.6f} s, median factor {stats.median(run['factors']):.4f}",
        "cmd_s.tail": f"p{tail[1]:.1f} of {n} commands; wall {stats.tail(run['times'])[0]:.6f} s"
        if tail
        else f"undefined: {n} commands leave none with ten beyond it",
        "cmds_per_s": f"{n} commands in {run['wall']:.3f} s of wall time, factor {fw:.4f}",
    }
    return metrics, unbounded, notes


def per_layer(tracer: tracing.Tracer, run: dict) -> tuple[dict, float, list[str]]:
    """Per-layer metrics (means per traced command), the largest gap between a
    command's wall time and its summed self times, and any command where that
    gap is negative or over TRACE_GAP_S."""
    summary = tracing.summarize(tracer.spans())
    problems, gaps = [], []
    for cmd_id, wall in run["traced"].items():
        gap = wall - summary["cmd_self"][cmd_id]
        gaps.append(gap)
        if not 0.0 <= gap <= TRACE_GAP_S:
            problems.append(f"command {cmd_id}: self times sum to {summary['cmd_self'][cmd_id]!r} s, its wall time is {wall!r} s")
    n = len(run["traced"])
    f = run["factor"]
    name_time = Counter({name: t * f for name, t in summary["name_time"].items()})
    layer_self = Counter({layer: t * f for layer, t in summary["layer_self"].items()})
    name_calls, layer_calls = summary["name_calls"], summary["layer_calls"]
    counts = tracer.counts
    emit = name_time["cli.emit_report"]
    suite = name_time["dynamics_linear.no_signalling_suite"]
    tried = counts["projectors_tried"]
    metrics = {
        "cli.parse_s": (name_time["cli.parse_args"] / n, "s/cmd"),
        "cli.emit_s": (emit / n, "s/cmd"),
        "cli.emit_mb_per_s": (run["traced_bytes"] / 1e6 / emit if emit else 0.0, "MB/s"),
        "cli.self_s": (layer_self["cli"] / n, "s/cmd"),
        "scenarios.run_s": (name_time["scenarios.run_scenario"] / n, "s/cmd"),
        "scenarios.self_s": (layer_self["scenarios"] / n, "s/cmd"),
        "dynamics_nonlinear.evolve_s": (name_time["dynamics_nonlinear.evolve_ensemble"] / n, "s/cmd"),
        "dynamics_nonlinear.self_s": (layer_self["dynamics_nonlinear"] / n, "s/cmd"),
        "dynamics_nonlinear.evolve_calls": (name_calls["dynamics_nonlinear.evolve_ensemble"] / n, "calls/cmd"),
        "dynamics_nonlinear.grid_points": (counts["grid_points"] / n, "points/cmd"),
        "dynamics_linear.suite_s": (suite / n, "s/cmd"),
        "dynamics_linear.self_s": (layer_self["dynamics_linear"] / n, "s/cmd"),
        "dynamics_linear.trials": (counts["trials"] / n, "trials/cmd"),
        "dynamics_linear.us_per_trial": (suite / counts["trials"] * 1e6 if counts["trials"] else 0.0, "us"),
        "measurement.self_s": (layer_self["measurement"] / n, "s/cmd"),
        "measurement.calls": (layer_calls["measurement"] / n, "calls/cmd"),
        "measurement.outcome_yield": (counts["outcomes"] / tried if tried else 0.0, "ratio"),
        "states.self_s": (layer_self["states"] / n, "s/cmd"),
        "states.calls": (layer_calls["states"] / n, "calls/cmd"),
        "qmath.self_s": (layer_self["qmath"] / n, "s/cmd"),
        "qmath.calls": (layer_calls["qmath"] / n, "calls/cmd"),
        "trace.overhead_frac": (stats.median([t / p for p, t in zip(run["plain"], run["traced"].values())]) - 1.0, "ratio"),
    }
    return metrics, max(gaps), problems[:MAX_LISTED_FAILURES]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program():
    """Import spinpair from this checkout's src/, or exit 1 without a result."""
    if not os.path.isfile(os.path.join(SRC, "spinpair", "cli.py")):
        sys.exit(f"perfbench: no spinpair sources under {SRC}; run from the repository root")
    sys.path.insert(0, SRC)
    import numpy
    import spinpair
    import spinpair.cli

    if os.path.dirname(os.path.abspath(spinpair.__file__)) != os.path.join(SRC, "spinpair"):
        sys.exit(f"perfbench: imported spinpair from {spinpair.__file__}, not from {SRC}")
    return spinpair, numpy


def main(argv=None) -> int:
    args = parse_args(argv)
    spinpair, numpy = load_program()
    pool = workloads.commands(args.workload, args.seed)
    shutil.rmtree(FIRST_DIR, ignore_errors=True)
    os.makedirs(FIRST_DIR)
    runner = Runner(spinpair.cli.main)
    record = {"provenance": provenance(args, pool, spinpair, numpy)}
    print(f"perfbench: workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"provenance: {json.dumps(record['provenance'], sort_keys=True)}")
    problems: list[str] = []
    unbounded: dict = {}
    if args.trace:
        tracer = tracing.Tracer()
        run = measure_traced(runner, pool, args.seconds, tracer)
        metrics, max_gap, problems = per_layer(tracer, run)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl")
        tracer.spans().write_jsonl(spans_path, tracer.starts[0] if len(tracer) else 0.0)
        f = run["factor"]
        plain_p50 = stats.median(run["plain"]) * f
        print(
            f"cmd_s.p50 untraced {plain_p50:.6f} s over {len(run['plain'])} commands; "
            f"traced {stats.median(run['traced'].values()) * f:.6f} s over {len(run['traced'])}; "
            f"trace.overhead_frac {metrics['trace.overhead_frac'][0]:.4f} (reference seconds, factor {f:.4f})"
        )
        print(
            "self time per command by layer: "
            + ", ".join(f"{layer} {metrics[layer + '.self_s'][0]:.6f} s" for layer in tracing.LAYERS)
            + f" (next to untraced cmd_s.p50 {plain_p50:.6f} s)"
        )
        print(f"spans: {len(tracer)} written to {spans_path}; {len(tracer.binding_names)} call sites traced")
        print(f"self times per command fall short of its wall time by at most {max_gap * 1e3:.4f} ms (limit {TRACE_GAP_S * 1e3:g} ms)")
        record["notes"] = {"calibration_factor": f, "traced_call_sites": tracer.binding_names, "max_trace_gap_s": max_gap}
    else:
        setup = measure_setup()
        run = measure_plain(runner, pool, args.seconds)
        # end_to_end reads ru_maxrss, so it must come before the checks,
        # which parse whole outputs and would raise the peak.
        metrics, unbounded, record["notes"] = end_to_end(setup, run)
    runner.check_outputs()
    failed = runner.failed
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit:10s} {record['notes'].get(name, '')}")
    unbounded["failed_frac"] = (failed / runner.attempted, "ratio")
    record["notes"]["failed_frac"] = f"{failed} of {runner.attempted} commands"
    for name, (value, unit) in unbounded.items():
        print(f"  {name:34s} {value:14.6g} {unit:10s} {record['notes'].get(name, '')} (not bounded)")
    if "cmd_s.tail" in record["notes"] and "cmd_s.tail" not in unbounded:
        print(f"  {'cmd_s.tail':34s} {record['notes']['cmd_s.tail']}")
    for failure in runner.failures[:MAX_LISTED_FAILURES] + problems:
        print(f"  FAILED {failure}")
    outputs = [{"argv": key, "sha256": out.digest, "bytes": out.size} for key, out in sorted(runner.outputs.items())]
    combined = hashlib.sha256("".join(o["sha256"] for o in outputs).encode()).hexdigest()
    print(f"outputs: {len(outputs)} distinct, sha256 of their hashes {combined}")
    record.update(
        metrics={name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        unbounded_metrics={name: {"value": value, "unit": unit} for name, (value, unit) in unbounded.items()},
        attempted=runner.attempted,
        failed=failed,
        failures=runner.failures[:MAX_LISTED_FAILURES],
        trace_problems=problems,
        outputs=outputs,
    )
    result_path = os.path.join(OUT_DIR, f"result-{args.workload}-trace{args.trace}.json")
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print(f"full record: {result_path}")
    print(
        json.dumps(
            {
                "correct": failed == 0 and not problems,
                "attempted": runner.attempted,
                "failed": failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
