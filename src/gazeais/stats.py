"""Permutation-testing machinery: final AIS significance and group contrasts.

Surrogates run one after another on the calling thread. Surrogate i draws
its permutation from a generator derived from (seed, tag, i), so every
p-value is a pure function of the test's arguments.
"""

from dataclasses import dataclass

import numpy as np

from .infocore import _encode_columns, _entropy_from_codes
from .rng import derive_rng
from .sequences import StateVectorSeries

TAILS = ("greater", "less", "two_sided")


@dataclass(frozen=True)
class PermutationTestResult:
    observed_statistic: float
    p_value: float
    n_perm: int
    tail: str
    seed: int


def test_final_ais(series: StateVectorSeries, n_perm: int = 200,
                   seed: int = 0) -> PermutationTestResult:
    """One-sided permutation test of the plug-in AIS of an embedded series.

    The observed statistic is MI(target; past vector); surrogates permute
    the target column. p = (1 + #{surrogate >= observed}) / (n_perm + 1),
    so a constant (zero-information) target yields p = 1 under the >=
    convention and the smallest attainable p is 1/(n_perm + 1).
    """
    if n_perm < 1:
        raise ValueError("n_perm must be >= 1")
    if series.n_rows < 1:
        raise ValueError("series must be nonempty")
    m = series.alphabet_size
    t = series.targets
    p_code = _encode_columns(series.pasts, m)
    p_size = m ** len(series.lags)
    h_t = _entropy_from_codes(t)
    h_p = _entropy_from_codes(p_code)
    observed = h_t + h_p - _entropy_from_codes(t * p_size + p_code)

    exceed = 0
    for i in range(n_perm):
        rng = derive_rng(seed, "final-ais-surrogate", i)
        tp = t[rng.permutation(t.size)]
        exceed += h_t + h_p - _entropy_from_codes(tp * p_size + p_code) >= observed
    p = (1.0 + exceed) / (n_perm + 1.0)
    return PermutationTestResult(float(observed), float(p), n_perm, "greater", seed)


def independent_samples_permutation_test(group_a, group_b, n_perm: int = 5000,
                                         tail: str = "two_sided",
                                         seed: int = 0) -> PermutationTestResult:
    """Permutation test for a difference in group means.

    Statistic: mean(a) - mean(b). Surrogates reassign the pooled values to
    groups of the original sizes via seeded shuffles; p uses the
    (1 + exceedances) / (n_perm + 1) estimator, which never returns 0.

    The pool is sorted before shuffling and the two-sided null draws
    subsets of size min(len(a), len(b)); by the complement bijection this
    leaves the null distribution of |statistic| unchanged while making the
    two-sided p exactly invariant under swapping the groups.
    """
    a = np.asarray(group_a, dtype=np.float64)
    b = np.asarray(group_b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ValueError("both groups must be nonempty")
    if tail not in TAILS:
        raise ValueError(f"tail must be one of {TAILS}")
    if n_perm < 1:
        raise ValueError("n_perm must be >= 1")
    # Statistics are evaluated on ascending-sorted subsets, so any surrogate
    # that redraws the observed split reproduces the observed statistic bit
    # for bit and ties are counted exactly.
    observed = float(np.sort(a).mean() - np.sort(b).mean())
    pooled = np.sort(np.concatenate([a, b]))
    n = pooled.size
    k = min(a.size, b.size) if tail == "two_sided" else a.size
    threshold = abs(observed) if tail == "two_sided" else observed

    values = []
    for i in range(n_perm):
        rng = derive_rng(seed, "ind-samples-surrogate", i)
        perm = rng.permutation(n)
        s = pooled[np.sort(perm[:k])]
        rest = pooled[np.sort(perm[k:])]
        values.append(float(s.mean() - rest.mean()))
    if tail == "two_sided":
        exceed = sum(1 for v in values if abs(v) >= threshold)
    elif tail == "greater":
        exceed = sum(1 for v in values if v >= threshold)
    else:
        exceed = sum(1 for v in values if v <= threshold)
    p = (1.0 + exceed) / (n_perm + 1.0)
    return PermutationTestResult(observed, float(p), n_perm, tail, seed)
