"""Summary statistics and ratios, checked against their bases by hand."""

import statistics

import pytest

import stats


def test_quartiles_match_statistics_quantiles():
    xs = [7.0, 1.0, 3.0, 9.0, 5.0, 2.0, 10.0, 4.0, 8.0, 6.0]
    # the convention spreads are judged by: statistics.quantiles(n=4), exclusive method
    assert stats.quartiles(xs) == (2.75, 8.25)
    q = statistics.quantiles(xs, n=4)
    assert stats.quartiles(xs) == (q[0], q[2])


def test_single_sample_is_its_own_quartiles():
    assert stats.quartiles([4.0]) == (4.0, 4.0)


def test_share_of_an_empty_base_is_zero():
    assert stats.share(3, 4) == 0.75
    assert stats.share(3, 0) == 0.0


def test_failed_ratio_base_is_ops_attempted():
    # search-exact on the seed: every exact call fails, every search passes
    assert stats.share(3, 6) == 0.5


def test_shard_imbalance_is_max_over_mean():
    assert stats.shard_imbalance([1.0, 1.0, 4.0]) == 2.0
    assert stats.shard_imbalance([2.0, 2.0]) == 1.0
    assert stats.shard_imbalance([]) == 0.0


def test_pool_efficiency_base_is_jobs_times_wall():
    assert stats.pool_efficiency(busy_total=3.0, jobs=2, wall=2.0) == 0.75
    assert stats.pool_efficiency(busy_total=2.0, jobs=1, wall=2.0) == 1.0


def test_scaling_eff_base_is_jobs_times_parallel_wall():
    assert stats.scaling_eff(wall_one=10.0, wall_many=5.0, jobs=2) == 1.0
    assert stats.scaling_eff(wall_one=10.0, wall_many=8.0, jobs=2) == 0.625


def test_overhead_ratio_base_is_the_untraced_wall():
    assert stats.overhead_ratio(traced=11.0, untraced=10.0) == pytest.approx(0.1)
    assert stats.overhead_ratio(traced=10.0, untraced=10.0) == 0.0
