"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (run with -s to see them inline; pytest
shows them on failure regardless). Criteria run at the default configuration:
p = 3/4, epsilon = 1, t_max = 10, dt = 1e-3, seed 42, 1000 trials.
"""

import json
import time

import numpy as np
import pytest

from oracles import bloch_array, closed_form, integrate_rk4
from spinpair.cli import main
from spinpair.scenarios import BasisChoice, ScenarioConfig, ScenarioId, run_scenario
from spinpair.states import BlochVector

SQRT2 = np.sqrt(2.0)
DEFAULTS = ScenarioConfig()


def report(number, name, ok, detail):
    print(f"[acceptance {number}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


def mixture_s2(p, eps, times):
    return ((2.0 * p - 1.0) / SQRT2) * np.sin(SQRT2 * (2.0 * p - 1.0) * eps * times)


def pure_s2(eps, times):
    return np.sin(SQRT2 * eps * times) / SQRT2


def test_criterion_1_linear_no_influence(tmp_path, capsys):
    """1000 seeded random trials of verify-linear: < 5 s, max deviation < 1e-10."""
    out = tmp_path / "verify.json"
    start = time.perf_counter()
    code = main(["verify-linear", "--trials", "1000", "--seed", "42", "--out", str(out)])
    elapsed = time.perf_counter() - start
    deviation = json.loads(out.read_text())["divergence"]
    ok = code == 0 and elapsed < 5.0 and deviation < 1e-10
    report(
        1,
        "linear no-influence",
        ok,
        f"exit {code}, {elapsed:.2f}s, max deviation {deviation:.3e}",
    )


def test_criterion_2_nonlinear_oracle_equivalence():
    """Closed form vs fixed-step integrator for the three initial-condition
    sets: error < 1e-8, third-component drift < 1e-12, radius drift < 1e-8."""
    starts = {
        "poles-up": BlochVector(0.0, 0.0, 1.0),
        "poles-down": BlochVector(0.0, 0.0, -1.0),
        "diagonal": BlochVector(1.0 / SQRT2, 0.0, 1.0 / SQRT2),
        "mixture-3/4": BlochVector(0.5 / SQRT2, 0.0, 0.5 / SQRT2),
    }
    worst_err = worst_s3 = worst_radius = 0.0
    for start in starts.values():
        times, points = integrate_rk4(start, 1.0, 10.0, 1e-3)
        expected = np.array([bloch_array(closed_form(start, 1.0, t)) for t in times])
        worst_err = max(worst_err, float(np.max(np.abs(points - expected))))
        worst_s3 = max(worst_s3, float(np.max(np.abs(points[:, 2] - start.s3))))
        radii = np.linalg.norm(points, axis=1)
        worst_radius = max(worst_radius, float(np.max(np.abs(radii - radii[0]))))
    ok = worst_err < 1e-8 and worst_s3 < 1e-12 and worst_radius < 1e-8
    report(
        2,
        "nonlinear oracle equivalence",
        ok,
        f"error {worst_err:.3e}, s3 drift {worst_s3:.3e}, radius drift {worst_radius:.3e}",
    )


def test_criterion_3_uncorrelated_reproduction():
    """Both arms match the mixture waveform within 1e-8; the remote
    measurement moves nothing (divergence < 1e-10)."""
    run = run_scenario(ScenarioId.NO_CORRELATIONS, DEFAULTS)
    times = run.times
    expected = mixture_s2(DEFAULTS.p, DEFAULTS.epsilon, times)
    err_a = float(np.max(np.abs(run.arms["armA"].rows()[:, 1] - expected)))
    err_b = float(np.max(np.abs(run.arms["armB"].rows()[:, 1] - expected)))
    ok = err_a < 1e-8 and err_b < 1e-8 and run.divergence < 1e-10
    report(
        3,
        "uncorrelated preparation",
        ok,
        f"armA {err_a:.3e}, armB {err_b:.3e}, divergence {run.divergence:.3e}",
    )


def test_criterion_4_classical_correlations_reproduction():
    """The measured arm follows the full-amplitude waveform for every p, and
    at p = 3/4 it diverges from the uncorrelated result by more than 0.2."""
    worst = 0.0
    for p in (0.25, 0.5, 0.75):
        run = run_scenario(
            ScenarioId.CLASSICAL_CORRELATIONS,
            ScenarioConfig(p=p, epsilon=1.0, t_max=10.0, dt=1e-3),
        )
        times = run.times
        worst = max(
            worst, float(np.max(np.abs(run.arms["armA"].rows()[:, 1] - pure_s2(1.0, times))))
        )
    divergence = run_scenario(ScenarioId.CLASSICAL_CORRELATIONS, DEFAULTS).divergence
    ok = worst < 1e-8 and divergence > 0.2
    report(
        4,
        "classical correlations",
        ok,
        f"worst armA error {worst:.3e} over p in {{0.25, 0.5, 0.75}}, divergence {divergence:.3f}",
    )


def test_criterion_5_changed_correlations_reproduction():
    """Silent arm below 1e-10, oscillating arm within 1e-8, same reduced
    density matrices (1e-12), composite matrices apart by more than 0.1."""
    run = run_scenario(ScenarioId.CHANGED_CORRELATIONS, DEFAULTS)
    times = run.times
    silent = float(np.max(np.abs(run.arms["armA"].rows()[:, 1])))
    err_b = float(np.max(np.abs(run.arms["armB"].rows()[:, 1] - pure_s2(1.0, times))))
    reduced_gap = run.narrative["reduced_density_gap"]
    composite_gap = run.narrative["composite_density_gap"]
    ok = silent < 1e-10 and err_b < 1e-8 and reduced_gap < 1e-12 and composite_gap > 0.1
    report(
        5,
        "changed correlations",
        ok,
        f"armA {silent:.3e}, armB {err_b:.3e}, reduced gap {reduced_gap:.3e}, "
        f"composite gap {composite_gap:.3f}",
    )


def test_criterion_6_entanglement_reproduction():
    """Marker arm silent (< 1e-10), diagonal arm on the waveform (< 1e-8),
    signal magnitude 1/sqrt(2) within 1e-6."""
    run = run_scenario(ScenarioId.ENTANGLEMENT, ScenarioConfig(basis_choice=BasisChoice.DIAG))
    times = run.times
    silent = float(np.max(np.abs(run.arms["armA"].rows()[:, 1])))
    err_b = float(np.max(np.abs(run.arms["armB"].rows()[:, 1] - pure_s2(1.0, times))))
    signal_gap = abs(run.divergence - 1.0 / SQRT2)
    ok = silent < 1e-10 and err_b < 1e-8 and signal_gap < 1e-6
    report(
        6,
        "entanglement signal",
        ok,
        f"updown {silent:.3e}, diag {err_b:.3e}, |signal - 1/sqrt2| {signal_gap:.3e}",
    )


def test_criterion_7_linearity_restoration(tmp_path):
    """A state-independent precession in place of the mean-value law drives
    every scenario divergence below 1e-10: the `linear control` check of each
    JSON export, sec8 under both bases."""
    controls = {}
    for args in (["sec5"], ["sec6"], ["sec7"], ["sec8"], ["sec8", "--basis", "diag"]):
        out = tmp_path / "report.json"
        code = main(["run", *args, "--format", "json", "--out", str(out)])
        (control,) = (c for c in json.loads(out.read_text())["checks"] if c["name"] == "linear control")
        controls[" ".join(args)] = (code, control["passed"], control["value"])
    worst = max(value for _, _, value in controls.values())
    ok = all(code == 0 and passed for code, passed, _ in controls.values()) and worst < 1e-10
    report(7, "linearity restoration", ok, f"worst control divergence {worst:.3e}")


@pytest.mark.parametrize(
    "args",
    [
        ["run", "sec3", "--format", "json"],
        ["run", "sec5", "--format", "csv"],
        ["run", "sec6", "--format", "csv"],
        ["run", "sec7", "--format", "json"],
        ["run", "sec8", "--format", "json"],
    ],
    ids=["sec3", "sec5", "sec6", "sec7", "sec8"],
)
def test_criterion_8_deterministic_output(args, tmp_path):
    """Two identical CLI invocations produce byte-identical files."""
    first = tmp_path / "first.out"
    second = tmp_path / "second.out"
    code_a = main(args + ["--out", str(first)])
    code_b = main(args + ["--out", str(second)])
    identical = first.read_bytes() == second.read_bytes()
    ok = identical and code_a == 0 and code_b == 0
    report(
        8,
        f"deterministic output [{args[1]}]",
        ok,
        f"exit codes {code_a}/{code_b}, identical bytes: {identical}",
    )
