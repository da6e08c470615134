import random

import pytest

from spbench import stats


def test_tail_needs_more_than_ten_samples():
    assert stats.tail([1.0] * 10) is None
    assert stats.tail([]) is None


def test_tail_at_eleven_samples_is_the_minimum():
    values = [float(v) for v in range(11, 0, -1)]
    assert stats.tail(values) == (1.0, pytest.approx(100.0 / 11))


def test_tail_at_twenty_samples_is_the_median_rank():
    values = [float(v) for v in range(1, 21)]
    assert stats.tail(values) == (10.0, 50.0)


def test_tail_at_large_counts_leaves_exactly_ten_beyond():
    values = [float(v) for v in range(1, 1001)]
    random.Random(3).shuffle(values)
    value, percentile = stats.tail(values)
    assert (value, percentile) == (990.0, 99.0)
    assert sum(v > value for v in values) == stats.TAIL_BEYOND


def test_tail_percentile_rises_with_sample_count():
    percentiles = [stats.tail([float(v) for v in range(n)])[1] for n in (11, 50, 500, 5000)]
    assert percentiles == sorted(percentiles)
    assert percentiles[-1] == pytest.approx(99.8)

