from collections import Counter

import pytest

from spbench import workloads


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_the_same_commands(name):
    assert workloads.commands(name, 7) == workloads.commands(name, 7)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_another_seed_gives_other_commands(name):
    assert workloads.commands(name, 7) != workloads.commands(name, 8)


def test_workloads_draw_independently():
    sweep = [c.argv for c in workloads.commands("param-sweep", 7)]
    assert [c.argv for c in workloads.commands("export-json", 7)] != sweep[: workloads.SWEEP_POOL]


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError):
        workloads.commands("no-such-workload", 1)


def test_grid_points_follow_the_time_grid_rule():
    assert workloads.grid_points(10.0, 1e-3) == 10001
    assert workloads.grid_points(10.0, 0.1) == 101
    assert workloads.grid_points(1.0, 0.3) == 5  # 0, 0.3, 0.6, 0.9, 1.0


def test_linear_suite_runs_distinct_seeds_at_the_gate_size():
    pool = workloads.commands("linear-suite", 1)
    assert len({c.argv for c in pool}) == workloads.LINEAR_POOL
    assert all(c.argv[:3] == ("verify-linear", "--trials", "1000") and c.trials == 1000 for c in pool)


def test_export_json_covers_each_variant_once():
    pool = workloads.commands("export-json", 1)
    variants = sorted((c.argv[1], c.argv[c.argv.index("--basis") + 1] if "--basis" in c.argv else None) for c in pool)
    assert variants == sorted(workloads.VARIANTS, key=lambda v: (v[0], v[1] or ""))
    assert all(c.fmt == "json" and c.grid == 10001 for c in pool)


def test_param_sweep_is_balanced_and_in_range():
    pool = workloads.commands("param-sweep", 1)
    per_variant = workloads.SWEEP_POOL // len(workloads.VARIANTS)
    assert Counter(c.argv[1] for c in pool) == {"sec5": per_variant, "sec6": per_variant, "sec7": per_variant, "sec8": 2 * per_variant}
    assert Counter(c.argv[-1] for c in pool if c.argv[1] == "sec8") == {"updown": per_variant, "diag": per_variant}
    for c in pool:
        flags = dict(zip(c.argv[2::2], c.argv[3::2]))
        assert 0.05 < float(flags["--p"]) < 0.95
        assert 0.25 < float(flags["--epsilon"]) < 4.0
        assert flags["--basis"] in ("updown", "diag")
        assert c.fmt == "csv" and c.grid == 101
