"""Data-driven past-state optimization by greedy forward selection.

Candidate lags in [1, k_max] are added one at a time: each iteration picks
the candidate with maximal conditional mutual information (CMI) with the
target given the already-selected lags, then tests it against surrogates in
which the target column is permuted. The surrogate statistic is the maximum
CMI over all remaining candidates, which controls the family-wise error
rate across the repeated candidate tests; a non-significant maximum stops
the search.

A step is accepted exactly when its p-value, from the shared rule
`stats._permutation_p`, is at most alpha. Selection alone passes alpha to
the test, which then stops at the first surrogate row where that bound
fails: a rejected step reports a lower bound on its p-value, flagged in
its `SelectionStep`. An accepted step always sees every surrogate, so its
p-value and the selected lags equal those of a full evaluation.

All embeddings within one optimization share offset = k_max, so every
candidate comparison uses the identical row set and sample count. Plug-in
CMI values are used as-is during selection: the permutation test absorbs
estimator bias here, and bias correction is reserved for final reported
estimates.
"""

import math
from dataclasses import dataclass, field
from typing import List

import numpy as np

from .infocore import _cmi_blocks
from .rng import derive_rng, derive_seed
from .sequences import PastState, StateVectorSeries, SymbolSequence, embed
from .stats import PermutationTestResult, _permutation_p

MIN_EMBEDDED_ROWS = 10


@dataclass(frozen=True)
class EmbeddingConfig:
    """Knobs for past-state optimization.

    n_perm must satisfy n_perm >= 1/alpha - 1, otherwise the minimum
    attainable p-value 1/(n_perm + 1) can never reach alpha.
    """

    k_max: int = 5
    alpha: float = 0.05
    n_perm: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie in (0, 1)")
        if self.n_perm < 1:
            raise ValueError("n_perm must be >= 1")
        min_nperm = math.ceil(1.0 / self.alpha - 1.0 - 1e-12)
        if self.n_perm < min_nperm:
            raise ValueError(
                f"n_perm={self.n_perm} cannot reach alpha={self.alpha}; "
                f"need at least {min_nperm}"
            )


@dataclass
class SelectionStep:
    """One greedy iteration: every candidate's CMI plus the test outcome."""

    candidates: tuple
    cmi_values: dict
    chosen_lag: int
    observed_cmi: float
    p_value: float
    accepted: bool
    # True when the test stopped before its last surrogate; p_value is then
    # a lower bound on the full-evaluation p-value.
    p_is_lower_bound: bool = False


@dataclass
class SelectionTrace:
    """Audit record of a full optimization run."""

    steps: List[SelectionStep] = field(default_factory=list)
    selected: tuple = ()
    n_rows: int = 0


def _candidate_blocks(series: StateVectorSeries, candidates, selected=(),
                      n_perm=0, rng=None):
    """Blocks of plug-in CMI(target; candidate | selected), one column per
    candidate: row 0 is the observed target, then `n_perm` permutations of
    it (`_cmi_blocks`)."""
    cols = {lag: series.pasts[:, j] for j, lag in enumerate(series.lags)}
    return _cmi_blocks(series.targets, [cols[lag] for lag in selected],
                       [(cols[lag],) for lag in candidates], n_perm, rng)


def _candidate_cmis(series: StateVectorSeries, candidates, selected=()) -> np.ndarray:
    """Observed CMI per candidate: row 0 of `_candidate_blocks`, shape
    (1, len(candidates))."""
    return next(_candidate_blocks(series, candidates, selected))


def max_statistic_test(observed_max_cmi: float, candidates, series: StateVectorSeries,
                       n_perm: int, seed: int, selected=(),
                       alpha=None) -> PermutationTestResult:
    """One-sided surrogate p-value for the maximal candidate CMI.

    Each surrogate permutes the target column (past vectors fixed, so the
    joint structure of the past survives under the null), recomputes the CMI
    of every remaining candidate given the selected set, and records the
    maximum; `_permutation_p` counts the maxima >= the observed value.
    With `alpha` the test stops once it has failed for certain, and
    `evaluated` is then below `n_perm`.

    Permutations come in order from one generator derived from (seed,
    "max-stat-surrogate"), so p is a pure function of the arguments; an
    observed value from `_candidate_cmis` ties its surrogates exactly.
    """
    candidates = tuple(candidates)
    if not candidates:
        raise ValueError("need at least one candidate lag")
    for lag in tuple(selected) + candidates:
        if lag not in series.lags:
            raise ValueError(f"lag {lag} not present in the embedded series")
    blocks = _candidate_blocks(series, candidates, selected, n_perm,
                               derive_rng(seed, "max-stat-surrogate"))
    next(blocks)  # row 0, the unpermuted target
    return PermutationTestResult(observed_max_cmi, *_permutation_p(
        observed_max_cmi, (block.max(axis=1) for block in blocks), n_perm, alpha))


def optimize_past_state(seq: SymbolSequence, cfg: EmbeddingConfig):
    """Greedy forward selection of the past state of a sequence.

    Returns (PastState, SelectionTrace). The selected lag set may be empty
    when no candidate carries significant information about the next value.
    Deterministic given (sequence, config): iteration i uses a sub-seed
    derived from (cfg.seed, i).
    """
    n = len(seq) - cfg.k_max
    if n < MIN_EMBEDDED_ROWS:
        raise ValueError(
            f"sequence of length {len(seq)} leaves {max(n, 0)} embedded rows "
            f"at k_max={cfg.k_max}; need at least {MIN_EMBEDDED_ROWS}"
        )
    series = embed(seq, tuple(range(1, cfg.k_max + 1)), cfg.k_max)

    trace = SelectionTrace(n_rows=series.n_rows)
    selected: List[int] = []
    candidates = list(range(1, cfg.k_max + 1))
    for iteration in range(cfg.k_max):
        cmis = dict(zip(candidates, _candidate_cmis(series, candidates, selected)[0]))
        # Ties go to the smaller lag; candidates stay sorted ascending.
        chosen = max(candidates, key=cmis.__getitem__)
        best = cmis[chosen]
        test = max_statistic_test(
            best, candidates, series,
            n_perm=cfg.n_perm,
            seed=derive_seed(cfg.seed, "max-stat", iteration),
            selected=tuple(selected),
            alpha=cfg.alpha,
        )
        accepted = test.p_value <= cfg.alpha
        trace.steps.append(SelectionStep(
            candidates=tuple(candidates),
            cmi_values={lag: float(v) for lag, v in cmis.items()},
            chosen_lag=chosen,
            observed_cmi=float(best),
            p_value=float(test.p_value),
            accepted=accepted,
            p_is_lower_bound=test.evaluated < cfg.n_perm,
        ))
        if not accepted:
            break
        selected.append(chosen)
        candidates.remove(chosen)
        if not candidates:
            break

    state = PastState(tuple(sorted(selected)), cfg.k_max)
    trace.selected = state.lags
    return state, trace
