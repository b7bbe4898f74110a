"""Significance tests and correlation for system comparisons.

Wilcoxon rank-sum (Mann-Whitney form) with exact enumeration for small
tie-free samples and a tie-corrected, continuity-corrected normal
approximation otherwise; percentile bootstrap CI on the mean difference;
sample Pearson correlation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ConfigError, ProtoreconError

EXACT_LIMIT = 12  # max combined sample size for exact enumeration

ALTERNATIVES = ("greater", "less", "two-sided")


@dataclass(frozen=True)
class ComparisonResult:
    p_value: float
    ci_low: float
    ci_high: float
    alternative: str = "greater"


def _midranks(values):
    """1-based ranks of values; tied values share the mean of their sorted positions."""
    values = np.asarray(values)
    ordered = np.sort(values)
    return (np.searchsorted(ordered, values, "left")
            + np.searchsorted(ordered, values, "right") + 1) / 2


def _norm_cdf(z):
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def wilcoxon_rank_sum(x, y, alternative="greater"):
    """p-value for the rank-sum of x within the pooled sample.

    alternative='greater' tests whether x tends to exceed y ('less' the
    reverse).  Exact when len(x)+len(y) <= 12 with no ties; otherwise a
    normal approximation with tie and continuity corrections.  A NaN or
    infinite value is refused.
    """
    if alternative not in ALTERNATIVES:
        raise ConfigError(f"alternative must be one of {ALTERNATIVES}")
    x, y = list(map(float, x)), list(map(float, y))
    if not x or not y:
        raise ProtoreconError("empty sample")
    nx, ny = len(x), len(y)
    pooled = x + y
    if not all(map(math.isfinite, pooled)):
        raise ProtoreconError("samples must be finite")
    ranks = _midranks(pooled)
    w = float(ranks[:nx].sum())
    no_ties = len(set(pooled)) == len(pooled)

    if nx + ny <= EXACT_LIMIT and no_ties:
        total = 0
        le = ge = 0
        for combo in combinations(range(1, nx + ny + 1), nx):
            s = sum(combo)
            total += 1
            le += s <= w + 1e-9
            ge += s >= w - 1e-9
        p_less, p_greater = le / total, ge / total
    else:
        mean = nx * (nx + ny + 1) / 2.0
        _, counts = np.unique(pooled, return_counts=True)
        n = nx + ny
        tie_term = float(((counts**3 - counts).sum())) / (n * (n - 1))
        var = nx * ny / 12.0 * ((n + 1) - tie_term)
        if var <= 0:
            return 1.0
        sd = math.sqrt(var)
        p_less = _norm_cdf((w - mean + 0.5) / sd)
        p_greater = 1.0 - _norm_cdf((w - mean - 0.5) / sd)
    if alternative == "less":
        return min(1.0, p_less)
    if alternative == "greater":
        return min(1.0, p_greater)
    return min(1.0, 2.0 * min(p_less, p_greater))


def _check_fraction(name, value):
    """A ConfigError unless value is in (0, 1); NaN and infinities fail the comparison."""
    if not 0.0 < value < 1.0:
        raise ConfigError(f"{name} must be in (0, 1), not {value!r}")


def bootstrap_ci(x, y, n_resamples=10_000, level=0.99, seed=0):
    """Percentile CI for mean(x) - mean(y), resampling groups independently."""
    _check_fraction("level", level)
    if n_resamples < 1000:
        raise ConfigError("n_resamples must be >= 1000")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, not {seed}")
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.size == 0 or y.size == 0:
        raise ProtoreconError("empty sample")
    rng = np.random.default_rng(seed)
    xi = rng.integers(0, x.size, size=(n_resamples, x.size))
    yi = rng.integers(0, y.size, size=(n_resamples, y.size))
    diffs = x[xi].mean(axis=1) - y[yi].mean(axis=1)
    lo, hi = np.percentile(diffs, [100 * (1 - level) / 2, 100 * (1 + level) / 2])
    return float(lo), float(hi)


def compare(x, y, alternative="greater", n_resamples=10_000, level=0.99, seed=0):
    p = wilcoxon_rank_sum(x, y, alternative)
    lo, hi = bootstrap_ci(x, y, n_resamples=n_resamples, level=level, seed=seed)
    return ComparisonResult(p_value=p, ci_low=lo, ci_high=hi, alternative=alternative)


def significant(comparison: ComparisonResult, alpha=0.01) -> bool:
    """True iff the p-value passes AND the CI excludes 0 on the hypothesized side."""
    _check_fraction("alpha", alpha)
    if comparison.p_value >= alpha:
        return False
    if comparison.alternative == "greater":
        return comparison.ci_low > 0
    if comparison.alternative == "less":
        return comparison.ci_high < 0
    return comparison.ci_low > 0 or comparison.ci_high < 0


def pearson_correlation(x, y) -> float:
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 2:
        raise ProtoreconError("pearson correlation needs two equal-length samples, n >= 2")
    xd, yd = x - x.mean(), y - y.mean()
    sx, sy = math.sqrt(float(xd @ xd)), math.sqrt(float(yd @ yd))
    if sx == 0 or sy == 0:
        raise ProtoreconError("pearson correlation undefined for zero-variance sample")
    return float(xd @ yd) / (sx * sy)
