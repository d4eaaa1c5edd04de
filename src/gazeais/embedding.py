"""Data-driven past-state optimization by greedy forward selection.

Candidate lags in [1, k_max] are added one at a time: each iteration picks
the candidate with maximal conditional mutual information (CMI) with the
target given the already-selected lags, then tests it against surrogates in
which the target column is permuted. The surrogate statistic is the maximum
CMI over all remaining candidates, which controls the family-wise error
rate across the repeated candidate tests; a non-significant maximum stops
the search.

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

from .infocore import _entropy_from_codes
from .rng import derive_rng, derive_seed
from .sequences import PastState, StateVectorSeries, SymbolSequence, embed

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


@dataclass
class SelectionTrace:
    """Audit record of a full optimization run."""

    steps: List[SelectionStep] = field(default_factory=list)
    selected: tuple = ()
    n_rows: int = 0


def _series_columns(series: StateVectorSeries):
    return {lag: series.pasts[:, j] for j, lag in enumerate(series.lags)}


def _selected_code(cols, selected, m):
    """Encode the selected lags' columns into one conditioning code."""
    n = next(iter(cols.values())).size if cols else 0
    code = np.zeros(n, dtype=np.int64)
    size = 1
    for lag in selected:
        code = code * m + cols[lag]
        size *= m
    return code, size


def _candidate_cmis(t, cols, candidates, sel_code, sel_size, m):
    """Plug-in CMI(target; candidate | selected) for every candidate lag."""
    h_s = _entropy_from_codes(sel_code)
    h_ts = _entropy_from_codes(t * sel_size + sel_code)
    out = {}
    for lag in candidates:
        cs = cols[lag] * sel_size + sel_code
        h_cs = _entropy_from_codes(cs)
        h_tcs = _entropy_from_codes(t * (m * sel_size) + cs)
        out[lag] = h_ts + h_cs - h_tcs - h_s
    return out


def max_statistic_test(observed_max_cmi: float, candidates, series: StateVectorSeries,
                       n_perm: int, seed: int, selected=()) -> float:
    """One-sided surrogate p-value for the maximal candidate CMI.

    Each surrogate permutes the target column (past vectors fixed, so the
    joint structure of the past survives under the null), recomputes the CMI
    of every remaining candidate given the selected set, and records the
    maximum. p = (1 + #{surrogate max >= observed}) / (n_perm + 1).

    Surrogate i draws its permutation from a generator derived from
    (seed, i), so the p-value is a pure function of its arguments.
    """
    if n_perm < 1:
        raise ValueError("n_perm must be >= 1")
    candidates = tuple(candidates)
    if not candidates:
        raise ValueError("need at least one candidate lag")
    m = series.alphabet_size
    cols = _series_columns(series)
    for lag in tuple(selected) + candidates:
        if lag not in cols:
            raise ValueError(f"lag {lag} not present in the embedded series")
    t = series.targets
    sel_code, sel_size = _selected_code(cols, tuple(selected), m)
    # Static across surrogates: H(selected) and each H(candidate, selected).
    h_s = _entropy_from_codes(sel_code)
    cand_codes = {lag: cols[lag] * sel_size + sel_code for lag in candidates}
    h_cs = {lag: _entropy_from_codes(code) for lag, code in cand_codes.items()}
    m_sel = m * sel_size

    exceed = 0
    for i in range(n_perm):
        rng = derive_rng(seed, "max-stat-surrogate", i)
        tp = t[rng.permutation(t.size)]
        h_tps = _entropy_from_codes(tp * sel_size + sel_code)
        best = -np.inf
        for lag in candidates:
            cmi = h_tps + h_cs[lag] - _entropy_from_codes(tp * m_sel + cand_codes[lag]) - h_s
            if cmi > best:
                best = cmi
        exceed += best >= observed_max_cmi
    return (1.0 + exceed) / (n_perm + 1.0)


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
    m = series.alphabet_size
    cols = _series_columns(series)
    t = series.targets

    trace = SelectionTrace(n_rows=series.n_rows)
    selected: List[int] = []
    candidates = list(range(1, cfg.k_max + 1))
    for iteration in range(cfg.k_max):
        sel_code, sel_size = _selected_code(cols, selected, m)
        cmis = _candidate_cmis(t, cols, candidates, sel_code, sel_size, m)
        # Ties go to the smaller lag; candidates stay sorted ascending.
        chosen = candidates[0]
        best = cmis[chosen]
        for lag in candidates[1:]:
            if cmis[lag] > best:
                best, chosen = cmis[lag], lag
        p = max_statistic_test(
            best, candidates, series,
            n_perm=cfg.n_perm,
            seed=derive_seed(cfg.seed, "max-stat", iteration),
            selected=tuple(selected),
        )
        accepted = p <= cfg.alpha
        trace.steps.append(SelectionStep(
            candidates=tuple(candidates),
            cmi_values={lag: float(v) for lag, v in cmis.items()},
            chosen_lag=chosen,
            observed_cmi=float(best),
            p_value=float(p),
            accepted=accepted,
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
