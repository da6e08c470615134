import pytest

from spbench import calibration
from spbench.calibration import REFERENCE_UNIT_S, Calibrator


def calibrator(units):
    """Calibrator holding (midpoint, duration) units without running any."""
    cal = Calibrator()
    cal.mids = [mid for mid, _ in units]
    cal.times = [duration for _, duration in units]
    return cal


# Units at reference speed for the first 10 s, then at half speed.
UNITS = [(t * 0.5, REFERENCE_UNIT_S) for t in range(20)] + [(10 + t * 0.5, 2 * REFERENCE_UNIT_S) for t in range(20)]


def test_factor_uses_the_mean_unit_time():
    assert calibrator(UNITS).factor() == pytest.approx(2 / 3)


def test_local_factors_follow_the_speed_around_each_span():
    factors = calibrator(UNITS).local_factors([(2.0, 3.0), (15.0, 16.0), (9.0, 11.0)])
    assert factors[0] == pytest.approx(1.0)
    assert factors[1] == pytest.approx(0.5)
    assert 0.5 < factors[2] < 1.0


def test_local_window_widens_until_it_holds_enough_units():
    sparse = calibrator([(0.0, REFERENCE_UNIT_S), (50.0, 2 * REFERENCE_UNIT_S), (100.0, 4 * REFERENCE_UNIT_S)])
    assert sparse.local_factors([(49.9, 50.1)]) == [pytest.approx(3 / 7)]


def test_keep_up_runs_units_for_the_share_of_busy_time():
    cal = Calibrator()
    cal.keep_up(0.0)
    assert cal.times == []
    cal.keep_up(0.2)
    assert cal.spent >= calibration.UNIT_SHARE * 0.2
    assert len(cal.mids) == len(cal.times) > 0


def test_reference_child_imports_nothing_from_spinpair():
    assert "spinpair" not in calibration.REFERENCE_IMPORTS
