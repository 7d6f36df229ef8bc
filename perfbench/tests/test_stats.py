import statistics

import pytest

import stats


def test_median_and_quartiles_follow_the_statistics_module():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    assert stats.median(values) == 3.5
    assert stats.quartiles(values) == tuple(statistics.quantiles(values, n=4))


def test_median_and_quartiles_reject_too_few_samples():
    with pytest.raises(ValueError):
        stats.median([])
    with pytest.raises(ValueError):
        stats.quartiles([1.0])


@pytest.mark.parametrize(
    "n, expected",
    [
        (19, None),  # p50 is the 10th value, only 9 lie beyond it
        (20, (50.0, 10)),
        (99, (50.0, 50)),
        (100, (90.0, 90)),
        (999, (90.0, 900)),
        (1000, (99.0, 990)),
        (10000, (99.9, 9990)),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    values = list(range(n, 0, -1))  # unsorted input
    assert stats.tail_percentile(values) == expected
    if expected is not None:
        pct, value = expected
        assert sum(1 for v in values if v > value) >= 10


def test_geomean():
    assert stats.geomean([1.0, 4.0, 16.0]) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        stats.geomean([1.0, 0.0])
