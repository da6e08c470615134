from collections import Counter

import pytest

import run
from spbench import tracing
from spbench.workloads import Command

CMD = Command(("run", "sec5"), "csv", 2, 0)
GOOD = b"t,arm,sigma1,sigma2,sigma3\n0,armA,0,0,1\n1,armA,0,0,1\n0,armB,0,0,1\n1,armB,0,0,1\n"


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_FILE", str(tmp_path / "cmd.out"))
    monkeypatch.setattr(run, "FIRST_DIR", str(tmp_path))
    return tmp_path


def writer(*outputs, code=0):
    """A stand-in for cli.main that writes the given outputs in turn."""
    queue = list(outputs)

    def main(argv):
        with open(argv[argv.index("--out") + 1], "wb") as handle:
            handle.write(queue.pop(0))
        return code

    return main


def test_outputs_are_hashed_during_the_run_and_checked_after_it(out_dir):
    runner = run.Runner(writer(GOOD, GOOD))
    assert runner.run(CMD)[2] == len(GOOD)
    runner.run(CMD)
    assert runner.failed == 0
    assert runner.outputs[" ".join(CMD.argv)].commands == 2
    runner.check_outputs()
    assert runner.failed == 0 and runner.attempted == 2


def test_a_bad_output_fails_every_command_that_wrote_it(out_dir):
    bad = GOOD.replace(b"armB", b"armC")
    runner = run.Runner(writer(bad, bad, bad))
    for _ in range(3):
        runner.run(CMD)
    assert runner.failed == 0  # not checked yet
    runner.check_outputs()
    assert runner.failed == 3
    assert "(3 commands)" in runner.failures[0]


def test_a_repeat_with_other_bytes_fails_at_once(out_dir):
    runner = run.Runner(writer(GOOD, GOOD + b"\n"))
    runner.run(CMD)
    runner.run(CMD)
    assert runner.failed == 1
    assert "different bytes" in runner.failures[0]
    runner.check_outputs()
    assert runner.failed == 1


def test_a_non_zero_exit_or_a_missing_file_fails(out_dir):
    runner = run.Runner(writer(GOOD, code=2))
    runner.run(CMD)
    assert runner.failed == 1 and "exit code 2" in runner.failures[0]
    silent = run.Runner(lambda argv: 0)
    silent.run(CMD)
    assert silent.failed == 1 and "no output file" in silent.failures[0]


@pytest.mark.parametrize(
    "count, elapsed, done",
    [(0, 99.0, False), (6, 9.0, False), (7, 11.0, False), (9, 11.0, True), (3, 11.0, True)],
)
def test_a_run_ends_at_the_first_whole_pass_after_its_seconds(count, elapsed, done):
    assert run._finished(count, 3, elapsed, 10.0) is done


class RecordedTracer:
    """Stands in for tracing.Tracer with one command's spans: a root of 10 ms holding a 4 ms call."""

    counts = Counter()

    def spans(self):
        return tracing.SpanTable(["cli.main", "scenarios.run_scenario"], [0, 1], [-1, 0], [0, 0], [0.0, 0.003], [0.010, 0.007], [0, 0])


@pytest.mark.parametrize("wall, ok", [(0.0101, True), (0.010 + run.TRACE_GAP_S * 1.5, False), (0.009, False)])
def test_self_times_must_add_up_to_the_traced_wall_time(wall, ok):
    timing = {"traced": {0: wall}, "plain": [wall], "traced_bytes": 100, "factor": 1.0}
    metrics, gap, problems = run.per_layer(RecordedTracer(), timing)
    assert gap == pytest.approx(wall - 0.010)
    assert (problems == []) is ok
    assert metrics["scenarios.run_s"][0] == pytest.approx(0.004)
