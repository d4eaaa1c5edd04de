"""Data-driven past-state optimization by greedy forward selection.

Candidate lags in [1, k_max] are added one at a time: each iteration picks
the candidate with maximal conditional mutual information (CMI) with the
target given the already-selected lags, then tests it against surrogates in
which the target column is permuted (for a target of two codes, drawn as
its tallies per joint state of the lags, which permuting it would give;
see `infocore._cmi_blocks`). The surrogate statistic is the maximum
CMI over all remaining candidates, which controls the family-wise error
rate across the repeated candidate tests; a non-significant maximum stops
the search. Each step is one pass of the count kernel: the candidates'
observed CMIs are row 0 of the `_cmi_blocks` stream whose later rows are
the step's surrogates.

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
estimates. Selection reads `k_max`, `alpha`, `n_perm_selection` and
`seed` from the run's `experiment.RunConfig`, which checks them.
"""

from dataclasses import dataclass, field
from typing import List

from .infocore import _cmi_blocks
from .rng import derive_rng, derive_seed
from .sequences import PastState, StateVectorSeries, SymbolSequence, embed
from .stats import PermutationTestResult, _permutation_p

MIN_EMBEDDED_ROWS = 10


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


def max_statistic_test(candidates, series: StateVectorSeries, n_perm: int,
                       seed: int, selected=(), alpha=None):
    """(cmis, result): each candidate's plug-in CMI with the target given
    the selected lags, and the one-sided surrogate test of their maximum.

    `cmis` maps each candidate lag to its CMI; `result` is the
    `PermutationTestResult` of the largest. Each surrogate permutes the
    target column (past vectors fixed, so the joint structure of the past
    survives under the null), recomputes the CMI of every candidate given
    the selected set, and records the maximum; `_permutation_p` counts the
    maxima >= the observed value. With `alpha` the test stops once it has
    failed for certain, and `evaluated` is then below `n_perm`.

    The observed CMIs are row 0 of the same `_cmi_blocks` stream as the
    surrogates, counted alike, so a surrogate that redraws the observed
    tables ties it exactly. Surrogates come in order from one generator
    derived from (seed, "max-stat-surrogate"), so the result is a pure
    function of the arguments.
    """
    candidates = tuple(candidates)
    if not candidates:
        raise ValueError("need at least one candidate lag")
    for lag in tuple(selected) + candidates:
        if lag not in series.lags:
            raise ValueError(f"lag {lag} not present in the embedded series")
    cols = {lag: series.pasts[:, j] for j, lag in enumerate(series.lags)}
    blocks = _cmi_blocks(series.targets, [cols[lag] for lag in selected],
                         [(cols[lag],) for lag in candidates], n_perm,
                         derive_rng(seed, "max-stat-surrogate"))
    cmis = dict(zip(candidates, next(blocks)[0].tolist()))
    observed = max(cmis.values())
    return cmis, PermutationTestResult(observed, *_permutation_p(
        observed, (block.max(axis=1) for block in blocks), n_perm, alpha))


def optimize_past_state(seq: SymbolSequence, cfg):
    """Greedy forward selection of the past state of a sequence.

    `cfg` is the run's `RunConfig`. Returns (PastState, SelectionTrace).
    The selected lag set may be empty when no candidate carries
    significant information about the next value. Deterministic given
    (sequence, config): iteration i uses a sub-seed derived from
    (cfg.seed, i).
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
        cmis, test = max_statistic_test(
            candidates, series,
            n_perm=cfg.n_perm_selection,
            seed=derive_seed(cfg.seed, "max-stat", iteration),
            selected=tuple(selected),
            alpha=cfg.alpha,
        )
        # Ties go to the smaller lag; candidates stay sorted ascending.
        chosen = max(candidates, key=cmis.__getitem__)
        accepted = test.p_value <= cfg.alpha
        trace.steps.append(SelectionStep(
            candidates=tuple(candidates),
            cmi_values=cmis,
            chosen_lag=chosen,
            observed_cmi=test.observed_statistic,
            p_value=float(test.p_value),
            accepted=accepted,
            p_is_lower_bound=test.evaluated < cfg.n_perm_selection,
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
