"""End-to-end analysis protocol over trial scanpaths.

Each protocol function takes the run's one `RunConfig`, whose seed is the
master seed. Per trial (`analyze_trial`, on a `ScanpathRecord`): optimize
the past state, estimate bias-corrected AIS and the next-symbol entropy
H(X_t), normalize, and test final AIS significance; the `TrialResult`
carries its record. A run analyses all its trials at once
(`analyze_trials`): each selection iteration of every trial still
selecting, and then every final AIS test, is one batch of tests advanced
round by round, the trial index folded in as the most significant column
of every state code. Each test draws from its own seeds, in the order and
sizes it would alone, so every result is the one its trial gets alone.
Per participant (`contrast_conditions`): pool the
trials' selected lags into a union past state, equalize trial lengths by
discarding symbols from the beginning, re-estimate every trial with the
shared past state and sample count (holding estimation bias constant
across groups) in one row-wise call over the matrix of equalized trials
(`infocore.row_estimates`), and contrast the two conditions with
independent samples permutation tests on AIS, entropy, and normalized
AIS, the measures whose groups have the same sizes on one shared stream
of permutations. Seeds derive here:
(seed, "trial", participant, condition, id) per trial, (seed,
"participant", id) per participant. So `analyze_trials` gives the
entries of `gazeais ais`, and `compare_conditions`, which selects each past
state once, gives `gazeais ais` then `gazeais compare`.
"""

import logging
import math
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .embedding import MIN_EMBEDDED_ROWS, SelectionTrace, _select_past_states
from .gaze import ScanpathRecord, _field, _trial_owner
from . import infocore
from .infocore import InfoEstimate, row_estimates
from .rng import derive_seed
from .sequences import PastState, _embed_rows
from .stats import TAILS, _contrast_tests, _final_ais_tests

log = logging.getLogger(__name__)

MEASURES = ("ais", "entropy", "normalized_ais")


@dataclass(frozen=True)
class RunConfig:
    """Every setting of a run, loadable from a plain key-value file. Each
    field is checked by `check_setting`, and n_perm_selection must reach
    alpha: the least attainable p-value is 1/(n_perm_selection + 1)."""

    k_max: int = 5
    alpha: float = 0.05
    n_perm_selection: int = 200
    n_perm_comparison: int = 5000
    seed: int = 0
    collapse_repeats: bool = False
    tail: str = "two_sided"

    def __post_init__(self):
        for f in fields(self):
            self.check_setting(f.name, getattr(self, f.name))
        need = math.ceil(1.0 / self.alpha - 1.0 - 1e-12)
        if self.n_perm_selection < need:
            raise ValueError(
                f"n_perm_selection = {self.n_perm_selection} cannot reach "
                f"alpha = {self.alpha}; need at least {need}")

    @staticmethod
    def check_setting(key: str, value):
        """`value`, if it lies in the range of the setting `key`; else a
        ValueError that names the key and the value."""
        if key in ("k_max", "n_perm_selection", "n_perm_comparison") and value < 1:
            raise ValueError(f"{key} must be >= 1, got {value!r}")
        if key == "alpha" and not 0.0 < value < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {value!r}")
        if key == "tail" and value not in TAILS:
            raise ValueError(f"tail must be one of {TAILS}, got {value!r}")
        return value


def _parse_bool(value: str) -> bool:
    for parsed, words in ((True, "1 true yes on"), (False, "0 false no off")):
        if value.lower() in words.split():
            return parsed
    raise ValueError(f"expected 1/0, true/false, yes/no or on/off, got {value!r}")


def read_run_config(path) -> dict:
    """The settings of a `key = value` file, converted and checked, by key;
    '#' starts a comment. An unknown key, a key set twice, or a value that
    does not convert or fails `RunConfig.check_setting` is an error that
    names the file and the line. Alpha against n_perm_selection is left
    to `RunConfig`, as flags may override either."""
    converters = {f.name: _parse_bool if f.type is bool else f.type
                  for f in fields(RunConfig)}

    def error(line_no, what):
        return ValueError(f"{path}: config line {line_no}: {what}")

    settings, set_on = {}, {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise error(line_no, "expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in converters:
                raise error(line_no, f"unknown key {key!r}")
            if key in set_on:
                raise error(line_no, f"key {key!r} is already set on line "
                                     f"{set_on[key]}")
            set_on[key] = line_no
            try:
                settings[key] = RunConfig.check_setting(
                    key, converters[key](value))
            except ValueError as exc:
                raise error(line_no, exc) from None
    return settings


def parse_run_config(path) -> RunConfig:
    """`RunConfig` defaults overridden by the settings of the file `path`;
    every error names the file."""
    settings = read_run_config(path)
    try:
        return RunConfig(**settings)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


@dataclass
class TrialResult:
    """The analysis of one trial, which `record` holds."""

    record: ScanpathRecord
    sample_count: int
    skipped: bool = False
    skip_reason: Optional[str] = None
    selected_lags: Optional[PastState] = None
    ais: Optional[InfoEstimate] = None
    entropy_next: Optional[InfoEstimate] = None
    normalized_ais: Optional[float] = None
    normalized_clamped: bool = False
    ais_p_value: Optional[float] = None
    trace: Optional[SelectionTrace] = None

    def to_dict(self) -> dict:
        def est(e):
            if e is None:
                return None
            return {"plugin_value": e.plugin_value,
                    "bias_correction": e.bias_correction,
                    "corrected_value": e.corrected_value,
                    "sample_count": e.sample_count,
                    "kind": e.kind}

        return {
            "trial_id": self.record.trial_id,
            "participant_id": self.record.participant_id,
            "condition": self.record.condition,
            "sample_count": self.sample_count,
            "skipped": self.skipped,
            "skip_reason": self.skip_reason,
            "selected_lags": list(self.selected_lags.lags) if self.selected_lags is not None else None,
            "k_max": self.selected_lags.k_max if self.selected_lags is not None else None,
            "ais": est(self.ais),
            "entropy_next": est(self.entropy_next),
            "normalized_ais": self.normalized_ais,
            "normalized_clamped": self.normalized_clamped,
            "ais_p_value": self.ais_p_value,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "TrialResult":
        """An `ais` results entry (`to_dict` plus `symbols` and
        `alphabet_size`) with its record; the selection trace is not
        serialized. A missing field is an error that names it and the trial."""
        record = ScanpathRecord.from_dict(doc)
        owner = _trial_owner(doc)
        fields = {k: _field(doc, k, owner) for k in (
            "sample_count", "skipped", "skip_reason", "normalized_ais",
            "normalized_clamped",
            "ais_p_value", "ais", "entropy_next", "selected_lags")}
        for k in ("ais", "entropy_next"):
            if fields[k] is not None:
                fields[k] = InfoEstimate(**{
                    f: _field(fields[k], f, f"{owner}: {k}") for f in (
                        "plugin_value", "bias_correction", "corrected_value",
                        "sample_count", "kind")})
        lags = fields.pop("selected_lags")
        return cls(record, **fields, selected_lags=None if lags is None
                   else PastState(lags, _field(doc, "k_max", owner)))


@dataclass
class ContrastResult:
    measure: str
    condition_a: str
    condition_b: str
    n_a: int
    n_b: int
    observed_diff: Optional[float]    # mean(a) - mean(b)
    p_value: Optional[float]
    direction: Optional[str]

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class ParticipantComparison:
    participant_id: str
    conditions: Tuple[str, str]
    union_lags: PastState
    trial_counts: Dict[str, int]
    equalized_length: int
    equalized_sample_count: int
    means: Dict[str, Dict[str, Optional[float]]]
    sems: Dict[str, Dict[str, Optional[float]]]
    contrasts: Dict[str, ContrastResult]
    excluded_normalized: Dict[str, int]
    n_perm: int
    tail: str
    seed: int
    trial_results: List[TrialResult] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "participant_id": self.participant_id,
            "conditions": list(self.conditions),
            "union_lags": list(self.union_lags.lags),
            "k_max": self.union_lags.k_max,
            "trial_counts": dict(self.trial_counts),
            "equalized_length": self.equalized_length,
            "equalized_sample_count": self.equalized_sample_count,
            "means": {m: dict(v) for m, v in self.means.items()},
            "sems": {m: dict(v) for m, v in self.sems.items()},
            "contrasts": {m: c.to_dict() for m, c in self.contrasts.items()},
            "excluded_normalized": dict(self.excluded_normalized),
            "n_perm": self.n_perm,
            "tail": self.tail,
            "seed": self.seed,
            "trials": [t.to_dict() for t in self.trial_results],
        }


# ---------------------------------------------------------------------------
# per-trial analysis
# ---------------------------------------------------------------------------

def _normalize(ais_est, entropy_est):
    """Corrected AIS / corrected H(X_t), clamped into [0, 1].

    Undefined (None) when the plug-in H(X_t) is zero, i.e. there is nothing
    to predict.
    """
    if entropy_est.plugin_value == 0.0:
        return None, False
    raw = ais_est.corrected_value / entropy_est.corrected_value
    clamped = float(min(1.0, max(0.0, raw)))
    return clamped, clamped != raw


def _trial_estimates(symbols: np.ndarray, lags: PastState, k_max: int):
    """(H(X_t), AIS on `lags`, normalized AIS) of each row of the
    (trials, length) symbol matrix at offset `k_max`, in one
    `row_estimates` call; with no lags AIS is 0 on the same rows."""
    entropies, ais = row_estimates(symbols, lags, k_max)
    if ais is None:
        ais = [InfoEstimate(0.0, 0.0, 0.0, symbols.shape[1] - k_max,
                            kind="active_information_storage")] * len(entropies)
    return [(h, a, _normalize(a, h)) for h, a in zip(entropies, ais)]


def analyze_trial(record: ScanpathRecord, cfg: RunConfig) -> TrialResult:
    """Optimize the past state of one trial and estimate its AIS: the
    analysis of a batch of one (`analyze_trials`).

    `cfg.seed` is the master seed. The selection is seeded by
    (cfg.seed, "trial", participant, condition, trial id), and the final
    AIS test, which draws `cfg.n_perm_selection` surrogates, by (that seed,
    "final-ais"), as in a protocol run. Too-short scanpaths yield a skip
    record rather than an error. When the optimization selects no lags,
    AIS is reported as 0 with p = 1; otherwise the final test's observed
    statistic is the reported plug-in AIS, bit for bit.
    """
    return analyze_trials([record], cfg)[0]


def analyze_trials(records: Sequence[ScanpathRecord],
                   cfg: RunConfig) -> List[TrialResult]:
    """`analyze_trial` of every record, in order, with every trial's tests
    run in lockstep.

    Each selection iteration of all trials still selecting is one batch
    (`embedding._select_past_states`), and so are the final AIS tests of
    all trials with lags (`stats._final_ais_tests`). Every test draws from
    its own seeds, in the order and sizes it would alone, so each result
    is the one its trial gets alone, whatever the other records. H(X_t)
    and AIS come from one `row_estimates` call per group of trials that
    share a length and lags. Consecutive records are taken in batches of
    at most `infocore.SURROGATE_BLOCK_ELEMENTS` embedded rows, or one
    record, so memory follows the batch, not the run.
    """
    results, batch, rows = [], [], 0
    for rec in records:
        n = max(len(rec.symbols) - cfg.k_max, 0)
        if batch and rows + n > infocore.SURROGATE_BLOCK_ELEMENTS:
            results += _analyze_batch(batch, cfg)
            batch, rows = [], 0
        batch.append(rec)
        rows += n
    return results + _analyze_batch(batch, cfg) if batch else results


def _analyze_batch(records, cfg):
    """`analyze_trials` of one batch of records."""
    seeds = [derive_seed(cfg.seed, "trial", rec.participant_id, rec.condition,
                         rec.trial_id) for rec in records]
    results: List[Optional[TrialResult]] = [None] * len(records)
    kept = []
    for i, rec in enumerate(records):
        n = len(rec.sequence) - cfg.k_max
        if n < MIN_EMBEDDED_ROWS:
            results[i] = TrialResult(
                rec, sample_count=max(n, 0), skipped=True,
                skip_reason=(f"{max(n, 0)} embedded rows at k_max={cfg.k_max}; "
                             f"need at least {MIN_EMBEDDED_ROWS}"))
        else:
            kept.append(i)
    if not kept:
        return results
    symbols = [np.asarray(records[i].symbols, dtype=np.int64) for i in kept]
    n, flat, position = _embed_rows(symbols, cfg.k_max)
    selections = _select_past_states(n, flat, position,
                                     [seeds[i] for i in kept], cfg)

    estimates = [None] * len(kept)
    shared = {}
    for a, (lags, _) in enumerate(selections):
        shared.setdefault((symbols[a].size, lags), []).append(a)
    for (_, lags), members in shared.items():
        for a, est in zip(members, _trial_estimates(
                np.stack([symbols[a] for a in members]), lags, cfg.k_max)):
            estimates[a] = est

    final = [a for a, (lags, _) in enumerate(selections) if lags]
    p_values = [1.0] * len(kept)
    if final:
        # Each final test's past state at its lags, padded by repeating its
        # first lag, which changes none of its states.
        past = [selections[a][0].lags for a in final]
        width = max(map(len, past))
        lags = np.array([p + p[:1] * (width - len(p)) for p in past], dtype=np.intp)
        at = position[np.isin(np.repeat(np.arange(len(kept)), n), final)]
        tests = _final_ais_tests(
            n[final], flat[at], flat[at[:, None] - lags[np.repeat(
                np.arange(len(final)), n[final])]],
            cfg.n_perm_selection,
            [derive_seed(seeds[kept[a]], "final-ais") for a in final])
        for a, test in zip(final, tests):
            p_values[a] = test.p_value

    for a, i in enumerate(kept):
        lags, trace = selections[a]
        entropy_next, ais, (normalized, clamped) = estimates[a]
        if clamped:
            log.info("trial %s: normalized AIS clamped into [0, 1]",
                     records[i].trial_id)
        results[i] = TrialResult(
            records[i], sample_count=int(n[a]), selected_lags=lags, ais=ais,
            entropy_next=entropy_next, normalized_ais=normalized,
            normalized_clamped=clamped, ais_p_value=p_values[a], trace=trace,
        )
    return results


# ---------------------------------------------------------------------------
# participant-level protocol
# ---------------------------------------------------------------------------

def union_past_state(results: Sequence[TrialResult], k_max: int) -> PastState:
    """Union of the selected lags over all (non-skipped) trial results."""
    if not results:
        raise ValueError("need at least one trial result")
    lags = set()
    for res in results:
        if not res.skipped and res.selected_lags is not None:
            lags.update(res.selected_lags.lags)
    return PastState(tuple(sorted(lags)), k_max)


def _mean_sem(values):
    vals = [v for v in values if v is not None]
    if not vals:
        return None, None
    arr = np.asarray(vals, dtype=np.float64)
    mean = float(arr.mean())
    sem = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else None
    return mean, sem


def compare_conditions(records: Sequence[ScanpathRecord],
                       cfg: RunConfig) -> ParticipantComparison:
    """`analyze_trials` on the records, in any order, then
    `contrast_conditions`: `gazeais ais` then `gazeais compare`."""
    return contrast_conditions(analyze_trials(records, cfg), cfg)


def contrast_conditions(results: Sequence[TrialResult],
                        cfg: RunConfig) -> ParticipantComparison:
    """Contrast one participant's two conditions on equalized estimates.

    `cfg.seed` is the master seed: the contrasts draw `cfg.n_perm_comparison`
    surrogates, tested on `cfg.tail`, from (cfg.seed, "participant",
    participant), which `ParticipantComparison.seed` records. The measures
    whose groups have the same sizes are one batch (`stats._contrast_tests`)
    and share one stream of permutations, seeded by (that seed, "contrast",
    m), m the batch's first measure in `MEASURES` order. So the AIS contrast
    always draws from (that seed, "contrast", "ais"), and the entropy
    contrast, whose groups are those of AIS, shares its stream; so does the
    normalized-AIS contrast unless a trial with H(X_t) = 0 left it smaller,
    when it draws alone from (that seed, "contrast", "normalized_ais").
    Trials are taken, and `trial_results` listed, in (condition, trial id)
    order whatever the order of `results`. All trials are re-estimated with the
    union of their selected past states on length-equalized scanpaths, so
    every value entering a contrast shares the same sample count and
    past-state dimensionality. Skipped trials are left out; trials with
    H(X_t) = 0 are excluded from the normalized-AIS contrast only. The
    conditions are counted over all trials, skipped ones included, and a
    count error names the participant, and a condition short of analyzable
    trials how many were skipped and why.
    """
    if not results:
        raise ValueError("need at least one trial result")
    participants = sorted({res.record.participant_id for res in results})
    if len(participants) > 1:
        raise ValueError(f"trials span multiple participants: {participants}")
    participant_id = participants[0]
    k_max = cfg.k_max
    seed = derive_seed(cfg.seed, "participant", participant_id)

    results = sorted(results, key=lambda res: (res.record.condition,
                                               res.record.trial_id))
    analyzable = [res for res in results if not res.skipped]
    for res in results:
        if res.skipped:
            log.info("trial %s excluded: %s", res.record.trial_id,
                     res.skip_reason)

    conditions = tuple(sorted({res.record.condition for res in results}))
    who = f"participant {participant_id!r}"
    if len(conditions) != 2:
        raise ValueError(f"{who}: expected exactly 2 conditions, found "
                         f"{list(conditions)}")
    counts = {c: sum(1 for res in analyzable if res.record.condition == c)
              for c in conditions}
    for c in conditions:
        if counts[c] < 2:
            skipped = [res.skip_reason for res in results
                       if res.skipped and res.record.condition == c]
            why = (f", {len(skipped)} skipped "
                   f"({', '.join(dict.fromkeys(skipped))})" if skipped else "")
            raise ValueError(f"{who}: condition {c!r} has {counts[c]} "
                             f"analyzable trial(s){why}; need >= 2")

    union = union_past_state(analyzable, k_max)
    # Each trial's suffix of the shortest trial's length, one row per trial:
    # dropping symbols from the beginning fixes the sample count, which keeps
    # estimation bias comparable across the contrasted trials.
    symbols = [np.asarray(res.record.symbols, dtype=np.int64)
               for res in analyzable]
    eq_length = min(s.size for s in symbols)
    eq_rows = eq_length - k_max
    if eq_rows < MIN_EMBEDDED_ROWS:
        # Cannot happen when every analyzable trial met the minimum, since
        # the equalized length is the minimum over those trials.
        raise ValueError("equalized trials fall below the embedding minimum")

    values = {m: {c: [] for c in conditions} for m in MEASURES}
    excluded_normalized = {c: 0 for c in conditions}
    estimates = _trial_estimates(
        np.stack([s[s.size - eq_length:] for s in symbols]), union, k_max)
    for res, (h_est, ais_est, (normalized, _)) in zip(analyzable, estimates):
        cond = res.record.condition
        values["ais"][cond].append(ais_est.corrected_value)
        values["entropy"][cond].append(h_est.corrected_value)
        if normalized is None:
            excluded_normalized[cond] += 1
            log.info("trial %s: H(X_t)=0, excluded from normalized contrast",
                     res.record.trial_id)
        else:
            values["normalized_ais"][cond].append(normalized)

    cond_a, cond_b = conditions
    groups = {m: (values[m][cond_a], values[m][cond_b]) for m in MEASURES}
    # One batch, and one stream, per pair of group sizes.
    batches = {}
    for measure, (group_a, group_b) in groups.items():
        if group_a and group_b:
            batches.setdefault((len(group_a), len(group_b)), []).append(measure)
    tests = {}
    for batch in batches.values():
        tests.update(zip(batch, _contrast_tests(
            [groups[m] for m in batch], cfg.n_perm_comparison, cfg.tail,
            derive_seed(seed, "contrast", batch[0]))))
    means = {}
    sems = {}
    contrasts = {}
    for measure, (group_a, group_b) in groups.items():
        mean_a, sem_a = _mean_sem(group_a)
        mean_b, sem_b = _mean_sem(group_b)
        means[measure] = {cond_a: mean_a, cond_b: mean_b}
        sems[measure] = {cond_a: sem_a, cond_b: sem_b}
        diff = p_value = direction = None
        if measure in tests:
            diff, p_value = tests[measure].observed_statistic, tests[measure].p_value
            if diff > 0:
                direction = f"{cond_a}>{cond_b}"
            elif diff < 0:
                direction = f"{cond_a}<{cond_b}"
            else:
                direction = "equal"
        contrasts[measure] = ContrastResult(
            measure, cond_a, cond_b, len(group_a), len(group_b),
            diff, p_value, direction,
        )

    return ParticipantComparison(
        participant_id=participant_id,
        conditions=conditions,
        union_lags=union,
        trial_counts=counts,
        equalized_length=eq_length,
        equalized_sample_count=eq_rows,
        means=means,
        sems=sems,
        contrasts=contrasts,
        excluded_normalized=excluded_normalized,
        n_perm=cfg.n_perm_comparison,
        tail=cfg.tail,
        seed=seed,
        trial_results=results,
    )


@dataclass
class LagHistogram:
    counts: Dict[int, int]
    n_trials: int              # analyzable (non-skipped) trials
    n_selected: int            # trials with a nonempty selection
    multi_lag_trials: int      # trials containing any lag >= 2
    fraction_multi_all: Optional[float]
    fraction_multi_selected: Optional[float]

    def to_dict(self) -> dict:
        return {
            "counts": {str(k): v for k, v in sorted(self.counts.items())},
            "n_trials": self.n_trials,
            "n_selected": self.n_selected,
            "multi_lag_trials": self.multi_lag_trials,
            "fraction_multi_all": self.fraction_multi_all,
            "fraction_multi_selected": self.fraction_multi_selected,
        }


def lag_histogram(results: Sequence[TrialResult], k_max: int) -> LagHistogram:
    """Tally selected lags over trials plus the share of lag > 1 trials.

    The fraction is reported with both denominators (all analyzable trials,
    and only trials with a nonempty selection) since either convention is
    defensible.
    """
    usable = [r for r in results if not r.skipped and r.selected_lags is not None]
    counts = {lag: 0 for lag in range(1, k_max + 1)}
    n_selected = 0
    multi = 0
    for r in usable:
        lags = r.selected_lags.lags
        if lags:
            n_selected += 1
        if any(l >= 2 for l in lags):
            multi += 1
        for lag in lags:
            counts[lag] = counts.get(lag, 0) + 1
    n_trials = len(usable)
    return LagHistogram(
        counts=counts,
        n_trials=n_trials,
        n_selected=n_selected,
        multi_lag_trials=multi,
        fraction_multi_all=(multi / n_trials) if n_trials else None,
        fraction_multi_selected=(multi / n_selected) if n_selected else None,
    )
