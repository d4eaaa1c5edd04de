"""Data-driven past-state optimization by greedy forward selection.

Candidate lags in [1, k_max] are added one at a time: each iteration picks
the candidate with maximal conditional mutual information (CMI) with the
target given the already-selected lags, then tests it against surrogates in
which the target column is permuted (for a target of two codes, drawn as
its tallies per joint state of the lags, which permuting it would give;
see `infocore._CmiTests`). The surrogate statistic is the maximum CMI over
all remaining candidates, which controls the family-wise error rate across
the repeated candidate tests; a non-significant maximum stops the search.
Each step is one test of a `_CmiTests` batch: its observed CMIs are row 0
of the batch and its surrogates the rounds that follow.

The trials of a run select in lockstep (`_select_past_states`): iteration
j of every trial still selecting is one batch, whose tests each conditions
on j - 1 lags and weighs the other k_max - j + 1, and the batch's rounds
advance them all until each has its p-value. Each test keeps its own
generator, seeded as it was alone, and draws its blocks in the same order
and sizes, so a trial's selection does not depend on the others.
`optimize_past_state` and `max_statistic_test` are batches of one.

A step is accepted exactly when its p-value, from the shared rule
`stats._PValues`, is at most alpha. Selection alone passes alpha to the
test, which then stops at the first surrogate row where that bound fails:
a rejected step reports a lower bound on its p-value, flagged in its
`SelectionStep`. An accepted step always sees every surrogate, so its
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

import numpy as np

from .infocore import _CmiTests
from .rng import derive_rng, derive_seed
from .sequences import PastState, StateVectorSeries, SymbolSequence, _embed_rows
from .stats import PermutationTestResult, _run_tests

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
    the selected set, and records the maximum; `stats._PValues` counts the
    maxima >= the observed value. With `alpha` the test stops once it has
    failed for certain, and `evaluated` is then below `n_perm`.

    The observed CMIs are row 0 of the same `infocore._CmiTests` batch, of
    one test here, as the surrogates, counted alike, so a surrogate that
    redraws the observed tables ties it exactly. Surrogates come in order
    from one generator derived from (seed, "max-stat-surrogate"), so the
    result is a pure function of the arguments.
    """
    candidates = tuple(candidates)
    if not candidates:
        raise ValueError("need at least one candidate lag")
    for lag in tuple(selected) + candidates:
        if lag not in series.lags:
            raise ValueError(f"lag {lag} not present in the embedded series")
    column = {lag: j for j, lag in enumerate(series.lags)}
    tests = _CmiTests([series.n_rows], series.targets,
                      series.pasts[:, [column[lag] for lag in selected]],
                      [series.pasts[:, [column[lag]]] for lag in candidates],
                      n_perm, [derive_rng(seed, "max-stat-surrogate")])
    (observed,), (p,), (evaluated,) = (x.tolist() for x in _run_tests(
        tests, n_perm, alpha))
    return (dict(zip(candidates, tests.observed[0].tolist())),
            PermutationTestResult(observed, p, evaluated))


def _select_past_states(n, flat, position, seeds, cfg):
    """(PastState, SelectionTrace) of every trial of a batch, selected in
    lockstep: trial i owns the n[i] rows of `position` after those of the
    trials before it, embedded at offset k_max (`sequences._embed_rows`),
    and iteration j of its selection is seeded by (seeds[i], "max-stat", j).

    Each iteration is one `_CmiTests` batch of the trials still selecting,
    all with the same number of selected lags and of candidates, run to
    its p-values by `stats._run_tests`.
    """
    n = np.asarray(n, dtype=np.intp)
    trial = np.repeat(np.arange(n.size), n)
    traces = [SelectionTrace(n_rows=int(rows)) for rows in n]
    selected = [[] for _ in traces]  # in the order chosen
    candidates = [list(range(1, cfg.k_max + 1)) for _ in traces]
    active = np.arange(n.size)
    for iteration in range(cfg.k_max):
        if not active.size:
            break
        rows = np.zeros(n.size, dtype=bool)
        rows[active] = True
        at = position[rows[trial]]
        owner = np.repeat(np.arange(active.size), n[active])

        def columns(lags):
            """Each row's symbols at the lags of its trial, one row of lags
            per trial."""
            lags = np.asarray(lags, dtype=np.intp).reshape(active.size, -1)
            return flat[at[:, None] - lags[owner]]
        lags = np.array([candidates[i] for i in active], dtype=np.intp)
        tests = _CmiTests(
            n[active], flat[at], columns([selected[i] for i in active]),
            [columns(lags[:, [k]]) for k in range(lags.shape[1])],
            cfg.n_perm_selection,
            [derive_rng(derive_seed(seeds[i], "max-stat", iteration),
                        "max-stat-surrogate") for i in active])
        observed, p, evaluated = (x.tolist() for x in _run_tests(
            tests, cfg.n_perm_selection, cfg.alpha))
        still = []
        for a, i in enumerate(active):
            cmis = dict(zip(candidates[i], tests.observed[a].tolist()))
            # Ties go to the smaller lag; candidates stay sorted ascending.
            chosen = max(candidates[i], key=cmis.__getitem__)
            accepted = p[a] <= cfg.alpha
            traces[i].steps.append(SelectionStep(
                candidates=tuple(candidates[i]),
                cmi_values=cmis,
                chosen_lag=chosen,
                observed_cmi=observed[a],
                p_value=p[a],
                accepted=accepted,
                p_is_lower_bound=evaluated[a] < cfg.n_perm_selection,
            ))
            if accepted:
                selected[i].append(chosen)
                candidates[i].remove(chosen)
                if candidates[i]:
                    still.append(i)
        active = np.array(still, dtype=np.intp)

    out = []
    for lags, trace in zip(selected, traces):
        state = PastState(tuple(sorted(lags)), cfg.k_max)
        trace.selected = state.lags
        out.append((state, trace))
    return out


def optimize_past_state(seq: SymbolSequence, cfg):
    """Greedy forward selection of the past state of a sequence.

    `cfg` is the run's `RunConfig`. Returns (PastState, SelectionTrace).
    The selected lag set may be empty when no candidate carries
    significant information about the next value. Deterministic given
    (sequence, config): iteration i uses a sub-seed derived from
    (cfg.seed, i). The selection is a batch of one (`_select_past_states`).
    """
    n = len(seq) - cfg.k_max
    if n < MIN_EMBEDDED_ROWS:
        raise ValueError(
            f"sequence of length {len(seq)} leaves {max(n, 0)} embedded rows "
            f"at k_max={cfg.k_max}; need at least {MIN_EMBEDDED_ROWS}"
        )
    return _select_past_states(*_embed_rows([seq.symbols], cfg.k_max),
                               [cfg.seed], cfg)[0]
