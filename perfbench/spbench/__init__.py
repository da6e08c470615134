"""Benchmark harness for the spinpair command line: workloads, output checks,
statistics and the cross-module tracer."""
