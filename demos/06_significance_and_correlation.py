"""Comparing two systems across seeds: rank-sum test, bootstrap CI, Pearson r.

The comparison is two-gated: the rank-sum p-value must clear alpha AND the
bootstrap confidence interval on the mean difference must exclude zero on
the hypothesized side.
"""

import numpy as np

from protorecon.stats import (
    compare,
    pearson_correlation,
    significant,
    wilcoxon_rank_sum,
)

# the textbook example: completely separated samples of three
print("p({4,5,6} > {1,2,3}) =", wilcoxon_rank_sum([4, 5, 6], [1, 2, 3], "greater"))

# per-seed accuracies of two hypothetical systems
rng = np.random.default_rng(0)
system_a = 0.58 + rng.normal(0, 0.01, 10)
system_b = 0.55 + rng.normal(0, 0.01, 10)

result = compare(system_a, system_b, alternative="greater", seed=0)
print(f"\nA vs B: p = {result.p_value:.4g}, "
      f"99% CI on mean diff = [{result.ci_low:.4f}, {result.ci_high:.4f}]")
print("significant at alpha=0.01 (both gates):", significant(result))

# does reflex-model quality track reconstruction quality?
reflex_acc = np.array([0.90, 0.92, 0.95, 0.89, 0.93])
recon_acc = 0.5 * reflex_acc + 0.1 + rng.normal(0, 0.004, 5)
print("\nPearson r(reflex acc, recon acc) =",
      round(pearson_correlation(reflex_acc, recon_acc), 3))
