"""Run the benchmark on several seeds and report each metric's spread.

From the repository root:

    python3 perfbench/spread.py --workload param-sweep --seeds 1 2 3 4 5 --seconds 25

Runs perfbench/run.py once per seed, one run at a time, and prints for each
metric the median, the quartiles and the quartile spread ((q3 - q1) / median,
quartiles as statistics.quantiles(values, n=4) gives them) next to the bound
in BENCHMARK.json. --save FILE appends the summary, with every run's values
and provenance, to a JSON file (a dict keyed by workload and trace mode).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 900


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit code {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join("perfbench", "out", f"result-{workload}-trace{trace}.json"), encoding="utf-8") as handle:
        record = json.load(handle)
    result["provenance"] = record["provenance"]
    result["notes"] = record["notes"]
    result["run_s"] = elapsed
    return result


def bounds() -> dict[str, float]:
    try:
        with open("BENCHMARK.json", encoding="utf-8") as handle:
            spec = json.load(handle)
    except FileNotFoundError:
        return {}
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def summarize(results: list[dict]) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, mid, q3 = statistics.quantiles(values, n=4)
        summary[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / mid if mid else 0.0,
            "values": values,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", default=None)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("need at least two seeds for quartiles")
    results = []
    for seed in args.seeds:
        result = run_once(args.workload, seed, args.seconds, args.trace)
        results.append(result)
        shown = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
        print(f"seed {seed} ({result['run_s']:.1f} s): correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} {shown}", flush=True)
        for name, note in result["notes"].items():
            print(f"    {name}: {note}", flush=True)
    limits = bounds()
    summary = summarize(results)
    for name, s in summary.items():
        bound = limits.get(name)
        verdict = "" if bound is None else f"bound {bound:.3f} ({'ok' if s['spread'] < bound / 3 else 'WIDE'})"
        print(f"{args.workload:13s} {name:32s} median {s['median']:.6g} {s['unit']:10s} "
              f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} {verdict}")
    if args.save:
        saved = {}
        if os.path.exists(args.save):
            with open(args.save, encoding="utf-8") as handle:
                saved = json.load(handle)
        saved[f"{args.workload}/trace{args.trace}"] = {
            "seeds": args.seeds,
            "seconds": args.seconds,
            "all_correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "run_s": [r["run_s"] for r in results],
            "provenance": results[0]["provenance"],
            "metrics": summary,
        }
        with open(args.save, "w", encoding="utf-8") as handle:
            json.dump(saved, handle, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
