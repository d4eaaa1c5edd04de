"""Permutation tests and the one p-value rule they share.

`_PValues` forms every p-value, round by round and for many tests at
once: selection's max-statistic tests (`embedding`), the final AIS tests
and the group contrasts feed it blocks of surrogate statistics.

Each test derives one generator from (seed, tag) and draws its surrogates
from it in order, evaluating them in blocks of rows; every p-value is a
pure function of the test's arguments and does not depend on the block
size, nor on the other tests of its batch. The information tests run in
batches (`infocore._CmiTests`, `_run_tests`): each round, every open test
draws its next block, and the stop rule is applied to all of them at
once. Their surrogates are permutations of the target, or are drawn as
the tables or the per-state tallies of the target that permutations would
give: the same null from another stream. The final AIS tests of all
trials of a run are one batch (`_final_ais_tests`); `test_final_ais` is a
batch of one. The contrasts' surrogates are permutations, each valued by
one matrix-vector product and recomputed on its sorted parts, the
statistic's definition, only where that product lies within its rounding
bound of the observed value.
"""

from dataclasses import dataclass

import numpy as np

from .infocore import _CmiTests, _permutation_blocks
from .rng import derive_rng
from .sequences import StateVectorSeries

TAILS = ("greater", "less", "two_sided")


@dataclass(frozen=True)
class PermutationTestResult:
    """Observed statistic, p-value and the surrogate rows evaluated.

    Fewer rows than `n_perm` only when a test given `alpha` stopped at
    certain failure; the p-value is then a lower bound on the full one.
    """

    observed_statistic: float
    p_value: float
    evaluated: int


class _PValues:
    """The running p-values (1 + b) / (n_perm + 1) of a set of tests, b the
    surrogates at or above each test's observed statistic, fed block by
    block (`add`).

    Without `alpha` every row is counted. With `alpha` a test stops at the
    first row whose running count b makes (1 + b) / (n_perm + 1) > alpha,
    and keeps that value: a lower bound on the full p, on the same side of
    alpha (Besag & Clifford 1991, Biometrika 78:301). The stop is decided
    row by row, so neither it nor p depends on the block size. A test is
    open until it stops or has counted `n_perm` rows.
    """

    def __init__(self, observed, n_perm: int, alpha=None):
        if n_perm < 1:
            raise ValueError("n_perm must be >= 1")
        if not np.isfinite(observed).all():
            raise ValueError("observed statistic must be finite")
        self.observed, self.n_perm, self.alpha = observed, n_perm, alpha
        self.exceed = np.zeros(observed.size, dtype=np.int64)
        self.evaluated = np.zeros(observed.size, dtype=np.int64)
        self.open = np.ones(observed.size, dtype=bool)

    def add(self, tests, values):
        """Count the (len(tests), rows) surrogate statistics of the open
        `tests`, an index array."""
        hits = values >= self.observed[tests, None]
        exceed = self.exceed[tests] + np.count_nonzero(hits, axis=1)
        rows = np.full(tests.size, hits.shape[1])
        if self.alpha is not None:
            # Counts only grow, so a test past the bound at the end of the
            # block passed it first in this block.
            stopped = np.flatnonzero((1.0 + exceed) / (self.n_perm + 1.0) > self.alpha)
            if stopped.size:
                counts = (self.exceed[tests[stopped]][:, None]
                          + np.cumsum(hits[stopped], axis=1))
                row = np.argmax((1.0 + counts) / (self.n_perm + 1.0) > self.alpha,
                                axis=1)
                exceed[stopped] = counts[np.arange(stopped.size), row]
                rows[stopped] = row + 1
                self.open[tests[stopped]] = False
        self.exceed[tests] = exceed
        self.evaluated[tests] += rows
        self.open[tests[self.evaluated[tests] >= self.n_perm]] = False

    def p_values(self):
        return (1.0 + self.exceed) / (self.n_perm + 1.0)


def _permutation_p(observed, blocks, n_perm: int, alpha=None):
    """(p, evaluated) of one test (`_PValues`): p = (1 + b) / (n_perm + 1),
    b the surrogates >= observed, over `blocks` of 1-D arrays of surrogate
    statistics, `n_perm` values in all."""
    counts = _PValues(np.array([float(observed)]), n_perm, alpha)
    test = np.zeros(1, dtype=np.intp)
    for block in blocks:
        counts.add(test, block[None])
        if not counts.open[0]:
            break
    return float(counts.p_values()[0]), int(counts.evaluated[0])


def _run_tests(tests, n_perm: int, alpha=None):
    """(observed, p, evaluated) of every test of the `infocore._CmiTests`
    batch `tests`, each the maximum of its candidates' CMIs: rounds of
    every open test's surrogates, counted by `_PValues`, until none is
    open."""
    observed = tests.observed.max(axis=1)
    counts = _PValues(observed, n_perm, alpha)
    while counts.open.any():
        for ids, cmis in tests.draw(counts.open):
            counts.add(ids, cmis.max(axis=2))
    return observed, counts.p_values(), counts.evaluated


def _final_ais_tests(n, targets, pasts, n_perm: int, seeds):
    """`test_final_ais` of every test of a batch: test i owns n[i]
    consecutive rows of `targets` and of the past states `pasts`, padded
    with constant columns, and draws from (seeds[i], "final-ais-surrogate")."""
    tests = _CmiTests(n, targets, np.zeros((targets.size, 0), dtype=np.int64),
                      [pasts], n_perm,
                      [derive_rng(seed, "final-ais-surrogate") for seed in seeds])
    return [PermutationTestResult(*result)
            for result in zip(*(x.tolist() for x in _run_tests(tests, n_perm)))]


def test_final_ais(series: StateVectorSeries, n_perm: int = 200,
                   seed: int = 0) -> PermutationTestResult:
    """One-sided permutation test of the plug-in AIS of an embedded series.

    The observed statistic is MI(target; past vector); each surrogate is the
    MI of a permuted target column. The MI reads a permuted target only
    through its table of target codes against past states, so when that
    table has few cells for the rows (m - 1 codes by S - 1 states, times
    `infocore.TABLE_DRAW_ROWS`, at most the rows), the surrogates' tables
    are drawn directly from the law the permutations induce on them: the
    same null, cheaper, from another stream than permuting would draw. A
    binary target with more past states draws its tally per state instead.
    A constant (zero-information) target yields p = 1 under the >=
    convention and the smallest attainable p is 1/(n_perm + 1). The test is
    a batch of one (`_final_ais_tests`).
    """
    if series.n_rows < 1:
        raise ValueError("series must be nonempty")
    return _final_ais_tests([series.n_rows], series.targets, series.pasts,
                            n_perm, [seed])[0]


def _mean_difference(first, second):
    """Row-wise mean(first) - mean(second) of two 2-D arrays."""
    return first.mean(axis=1) - second.mean(axis=1)


def independent_samples_permutation_test(group_a, group_b, n_perm: int = 5000,
                                         tail: str = "two_sided",
                                         seed: int = 0) -> PermutationTestResult:
    """Permutation test for a difference in group means.

    Statistic: mean(a) - mean(b). Surrogates reassign the pooled values to
    groups of the original sizes via seeded shuffles. "two_sided" counts
    |surrogate| >= |observed| and "less" counts -surrogate >= -observed,
    which is exactly surrogate <= observed.

    The pool is sorted before shuffling and the two-sided null draws
    subsets of size min(len(a), len(b)); by the complement bijection this
    leaves the null distribution of |statistic| unchanged while making the
    two-sided p exactly invariant under swapping the groups.

    The statistic is defined on ascending-sorted parts, so that a surrogate
    that redraws the observed split reproduces the observed value bit for
    bit and ties are counted exactly. Only a surrogate near the observed
    value needs that: each row's value is first taken as one matrix-vector
    product of the shuffled pool with weights 1/k and -1/(n - k), for parts
    of k and n - k values, which differs from the sorted-parts value by at
    most

        slack = (n + 2) * (4 eps sum|pooled| / min(k, n - k) + tiny),

    eps the float64 epsilon and tiny its least subnormal. Both values are
    sums of at most n rounded terms, whose error stays below gamma_n = n eps/2
    over (1 - n eps/2) times the sum of magnitudes whatever the summation
    order, BLAS and fused multiply-adds included (Higham 2002, Accuracy and
    Stability of Numerical Algorithms, ch. 3-4); the sorted means, their
    difference and the rounded weights add a few eps more, and underflow
    at most one subnormal per operation. So a row whose product lies more
    than `slack` from the observed value lies on the same side of it as its
    sorted-parts value, and only the other rows, NaN ones included, are
    sorted and recomputed. Every row is then counted as the sorted-parts
    value would be, so p and the observed difference do not change.
    """
    a = np.asarray(group_a, dtype=np.float64)
    b = np.asarray(group_b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ValueError("both groups must be nonempty")
    if tail not in TAILS:
        raise ValueError(f"tail must be one of {TAILS}")
    observed = float(_mean_difference(np.sort(a)[None], np.sort(b)[None])[0])
    pooled = np.sort(np.concatenate([a, b]))
    n = pooled.size
    k = min(a.size, b.size) if tail == "two_sided" else a.size
    oriented = {"greater": np.positive, "less": np.negative,
                "two_sided": np.abs}[tail]
    target = oriented(observed)
    weights = np.concatenate([np.full(k, 1.0 / k), np.full(n - k, -1.0 / (n - k))])
    float64 = np.finfo(np.float64)
    slack = (n + 2) * (4.0 * float64.eps * np.abs(pooled).sum() / min(k, n - k)
                       + float64.smallest_subnormal)

    def statistics(shuffled):
        values = oriented(shuffled @ weights)
        near = ~(np.abs(values - target) > slack)
        if near.any():
            # Each part of a row, sorted, holds the values that the ascending
            # pool holds at its sorted permutation indices.
            rows = shuffled[near]
            values[near] = oriented(_mean_difference(np.sort(rows[:, :k], axis=1),
                                                     np.sort(rows[:, k:], axis=1)))
        return values

    blocks = map(statistics, _permutation_blocks(
        derive_rng(seed, "ind-samples-surrogate"), pooled, n_perm, n))
    return PermutationTestResult(observed, *_permutation_p(target, blocks, n_perm))
