"""Permutation-testing machinery: final AIS significance and group contrasts.

Each test derives one generator from (seed, tag) and draws its surrogates'
permutations from it in order, evaluating them in blocks of rows; every
p-value is a pure function of the test's arguments and does not depend on
the block size.
"""

from dataclasses import dataclass

import numpy as np

from .infocore import _cmi_rows, _permutation_blocks
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
    rows = _cmi_rows(series.targets, [], [tuple(series.pasts.T)], n_perm,
                     derive_rng(seed, "final-ais-surrogate"))[:, 0]
    observed = rows[0]
    p = (1.0 + np.count_nonzero(rows[1:] >= observed)) / (n_perm + 1.0)
    return PermutationTestResult(float(observed), float(p), n_perm, "greater", seed)


def _mean_difference(first, second):
    """Row-wise mean(first) - mean(second) of two 2-D arrays."""
    return first.mean(axis=1) - second.mean(axis=1)


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
    observed = float(_mean_difference(np.sort(a)[None], np.sort(b)[None])[0])
    pooled = np.sort(np.concatenate([a, b]))
    n = pooled.size
    k = min(a.size, b.size) if tail == "two_sided" else a.size
    threshold = abs(observed) if tail == "two_sided" else observed

    values = np.concatenate([
        _mean_difference(pooled[np.sort(perms[:, :k], axis=1)],
                         pooled[np.sort(perms[:, k:], axis=1)])
        for perms in _permutation_blocks(
            derive_rng(seed, "ind-samples-surrogate"), n, n_perm, n)])
    if tail == "two_sided":
        values = np.abs(values)
    p = (1.0 + np.count_nonzero(values <= threshold if tail == "less"
                                else values >= threshold)) / (n_perm + 1.0)
    return PermutationTestResult(observed, float(p), n_perm, tail, seed)
