"""Rank-sum test, bootstrap intervals, and correlation."""

import numpy as np
import pytest

from protorecon.errors import ConfigError, ProtoreconError
from protorecon.stats import (
    ComparisonResult,
    bootstrap_ci,
    compare,
    exact_rank_sum_distribution,
    pearson_correlation,
    significant,
    wilcoxon_rank_sum,
)


def test_exact_p_value_canonical_case():
    """{4,5,6} vs {1,2,3}: the most extreme of C(6,3)=20 splits, one-sided p=0.05."""
    assert wilcoxon_rank_sum([4, 5, 6], [1, 2, 3], "greater") == pytest.approx(0.05)
    assert wilcoxon_rank_sum([1, 2, 3], [4, 5, 6], "less") == pytest.approx(0.05)
    assert wilcoxon_rank_sum([1, 2, 3], [4, 5, 6], "greater") == pytest.approx(1.0)


def test_exact_distribution_sums_to_one():
    for nx in range(1, 4):
        for ny in range(1, 4):
            dist = exact_rank_sum_distribution(nx, ny)
            assert sum(dist.values()) == pytest.approx(1.0)
            lo = nx * (nx + 1) // 2
            hi = sum(range(nx + ny - nx + 1, nx + ny + 1))
            assert min(dist) == lo and max(dist) == hi


def test_exact_matches_enumeration_by_construction():
    """One-sided exact p equals the enumerated tail mass for a random sample."""
    rng = np.random.default_rng(0)
    x = list(rng.permutation(8)[:4] + 1.0)
    rest = [v for v in range(1, 9) if float(v) not in x]
    # values are distinct integers 1..8, so each value is its own pooled rank
    w = sum(x)
    dist = exact_rank_sum_distribution(4, 4)
    p_greater = sum(p for s, p in dist.items() if s >= w)
    assert wilcoxon_rank_sum(x, [float(v) for v in rest], "greater") == pytest.approx(p_greater)


def test_two_sided_doubles_smaller_tail():
    p_g = wilcoxon_rank_sum([4, 5, 6], [1, 2, 3], "greater")
    p_two = wilcoxon_rank_sum([4, 5, 6], [1, 2, 3], "two-sided")
    assert p_two == pytest.approx(min(1.0, 2 * p_g))


def test_normal_approximation_large_sample():
    rng = np.random.default_rng(1)
    x = rng.normal(1.0, 1.0, 40)
    y = rng.normal(0.0, 1.0, 40)
    p = wilcoxon_rank_sum(x, y, "greater")
    assert p < 0.01
    assert wilcoxon_rank_sum(y, x, "greater") > 0.5


def test_ties_use_approximation_and_stay_valid():
    # ties force the tie-corrected normal path even at small n
    p = wilcoxon_rank_sum([1, 1, 2], [1, 2, 2], "two-sided")
    assert 0.0 < p <= 1.0


def test_identical_samples_p_one():
    assert wilcoxon_rank_sum([1.0] * 5, [1.0] * 5, "greater") == pytest.approx(1.0)


def test_invalid_inputs():
    with pytest.raises(ConfigError):
        wilcoxon_rank_sum([1], [2], "bogus")
    with pytest.raises(ProtoreconError):
        wilcoxon_rank_sum([], [1])


def test_bootstrap_degenerate_point():
    lo, hi = bootstrap_ci([2.0] * 6, [1.0] * 6, n_resamples=1000, seed=0)
    assert lo == pytest.approx(1.0)
    assert hi == pytest.approx(1.0)


def test_bootstrap_seeded_and_contains_truth():
    rng = np.random.default_rng(2)
    x = rng.normal(3.0, 0.5, 50)
    y = rng.normal(1.0, 0.5, 50)
    a = bootstrap_ci(x, y, n_resamples=2000, seed=7)
    b = bootstrap_ci(x, y, n_resamples=2000, seed=7)
    assert a == b
    lo, hi = a
    assert lo < 2.0 < hi
    assert lo > 0.0


def test_bootstrap_minimum_resamples():
    with pytest.raises(ConfigError):
        bootstrap_ci([1.0], [2.0], n_resamples=10)


@pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.5, float("nan"), float("inf")])
def test_bootstrap_rejects_level_outside_unit_interval(level):
    with pytest.raises(ConfigError):
        bootstrap_ci([1.0, 2.0], [2.0, 3.0], n_resamples=1000, level=level)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, -0.01, float("nan"), float("inf")])
def test_significant_rejects_alpha_outside_unit_interval(alpha):
    result = compare([4.0, 5.0, 6.0], [1.0, 2.0, 3.0], n_resamples=1000)
    with pytest.raises(ConfigError):
        significant(result, alpha=alpha)


def test_compare_and_significance():
    rng = np.random.default_rng(3)
    x = rng.normal(2.0, 0.3, 30)
    y = rng.normal(0.0, 0.3, 30)
    result = compare(x, y, alternative="greater", seed=0)
    assert isinstance(result, ComparisonResult)
    assert significant(result)
    # both gates must pass: flat samples are never significant
    flat = compare([1.0] * 8, [1.0] * 8, alternative="greater", n_resamples=1000)
    assert not significant(flat)


def test_significant_respects_direction():
    r = ComparisonResult(p_value=0.001, ci_low=-2.0, ci_high=-0.5, n_resamples=1000,
                         level=0.99, seed=0, alternative="less")
    assert significant(r)
    r2 = ComparisonResult(p_value=0.001, ci_low=-2.0, ci_high=0.5, n_resamples=1000,
                          level=0.99, seed=0, alternative="less")
    assert not significant(r2)


def test_pearson_exact_linear():
    x = [1.0, 2.0, 3.0, 4.0]
    y = [2 * v + 1 for v in x]
    assert pearson_correlation(x, y) == pytest.approx(1.0)
    assert pearson_correlation(x, [-v for v in y]) == pytest.approx(-1.0)


def test_pearson_matches_numpy():
    rng = np.random.default_rng(4)
    x = rng.normal(size=25)
    y = 0.3 * x + rng.normal(size=25)
    assert pearson_correlation(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1], abs=1e-12)


def test_pearson_degenerate():
    with pytest.raises(ProtoreconError):
        pearson_correlation([1.0], [2.0])
    with pytest.raises(ProtoreconError):
        pearson_correlation([1.0, 1.0], [1.0, 2.0])
