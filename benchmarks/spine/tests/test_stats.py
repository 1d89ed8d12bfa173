import pytest

from benchmarks.spine import stats


def test_percentile_interpolates():
    assert stats.percentile([1, 2, 3, 4, 5], 50) == 3
    assert stats.percentile([1, 2, 3, 4, 5], 75) == 4
    assert stats.percentile([0, 10], 25) == 2.5
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_tail_percentile_needs_ten_samples_beyond():
    # 40 samples: p75 leaves exactly 10 beyond; p90 would leave 4.
    assert stats.highest_supported_percentile(40) == 75
    assert stats.highest_supported_percentile(39) is None
    assert stats.highest_supported_percentile(48) == 75
    assert stats.highest_supported_percentile(100) == 90
    assert stats.highest_supported_percentile(200) == 95
    assert stats.highest_supported_percentile(1000) == 99
    assert stats.highest_supported_percentile(5) is None


def test_spread_matches_the_driver_formula():
    import statistics

    values = [10.0, 11.0, 9.5, 10.2, 10.4, 9.9, 10.1, 10.6, 9.7, 10.3]
    q = statistics.quantiles(values, n=4)
    assert stats.spread(values) == (q[2] - q[0]) / statistics.median(values)
    assert stats.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_grouped_typical_is_mean_of_group_medians():
    groups = {0: [1.0, 1.2, 50.0], 1: [3.0], 2: [2.0, 2.2]}
    assert stats.grouped_typical(groups) == pytest.approx((1.2 + 3.0 + 2.1) / 3)
    with pytest.raises(ValueError):
        stats.grouped_typical({})
