"""The percentile rule and the spread the bounds are set against."""

import statistics

import numpy as np
import pytest

from bench import stats


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert stats.tail_pct(10) is None          # nothing has 10 beyond it
    assert stats.tail_pct(20) == 50.0
    assert stats.tail_pct(40) == 75.0
    assert stats.tail_pct(100) == 90.0
    assert stats.tail_pct(200) == 95.0


@pytest.mark.parametrize("n", [11, 24, 70, 199, 1000])
def test_ten_samples_lie_beyond_the_tail(n):
    values = list(range(n))
    beyond = sum(v > stats.tail(values) for v in values)
    assert beyond == stats.MIN_SAMPLES_BEYOND


def test_small_sample_tail_is_the_maximum():
    assert stats.tail([3.0, 9.0, 1.0]) == 9.0


def test_percentile_matches_numpy():
    rng = np.random.default_rng(7)
    values = rng.exponential(size=57).tolist()
    for pct in (0, 12.5, 50, 95, 100):
        assert stats.percentile(values, pct) == pytest.approx(
            float(np.percentile(values, pct)))
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_quartile_spread_is_iqr_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx(
        (q3 - q1) / statistics.median(values))
    assert stats.quartile_spread([5.0]) == 0.0
