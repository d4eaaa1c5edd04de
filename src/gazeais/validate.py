"""Self-check suite behind the `validate` CLI subcommand.

Each check pits an estimator against an independent oracle (closed forms,
exhaustive enumeration, planted synthetic data, dense contingency tables)
and reports pass/fail.
"""

import itertools
import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .embedding import max_statistic_test, optimize_past_state
from .experiment import RunConfig
from .gaze import (FIXATION_DTYPE, GAZE_DTYPE, detect_fixations_idt,
                   filter_fixations)
from .infocore import (_CmiTests, active_information_storage,
                       gaze_transition_entropy, next_symbol_entropy)
from .markov import (analytic_ais, analytic_entropy, analytic_gte, cycle_spec,
                     generate, persistence_spec, uniform_iid_spec)
from .sequences import SymbolSequence, embed
from .stats import independent_samples_permutation_test

IDENTITY_TOL = 1e-12


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def dense_counts(rows, cols):
    """Oracle: the occupied cells' counts of the dense table that tallies
    columns `cols` of the integer matrix `rows`.

    The table spans every value tuple up to each column's maximum, so it is
    independent of the rank-compressed codes the estimators count.
    """
    sub = np.asarray(rows, dtype=np.int64)[:, list(cols)]
    counts = np.zeros(tuple(sub.max(axis=0) + 1), dtype=np.int64)
    np.add.at(counts, tuple(sub.T), 1)
    return counts[counts > 0]


def dense_entropy(rows, cols):
    """Oracle: (float plug-in entropy in bits, occupied cells) of the
    `dense_counts` tally."""
    counts = dense_counts(rows, cols)
    p = counts / float(len(rows))
    return float(-(p * np.log2(p)).sum()), counts.size


def dense_estimate(rows, *terms):
    """Oracle (plug-in, Miller-Madow correction) of sum sign * H(cols) over
    `(cols, sign)` terms, each entropy tallied by `dense_entropy`."""
    plugin = corr = 0.0
    for cols, sign in terms:
        h, cells = dense_entropy(rows, cols)
        plugin += sign * h
        corr += sign * (cells - 1.0) / (2.0 * len(rows) * math.log(2.0))
    return plugin, corr


def check_algebraic_identities(seed, n_cases=200) -> CheckResult:
    """The code-counting estimators against the dense-table oracle.

    On random short sequences: CMI row 0 with and without conditioning,
    AIS on a non-contiguous lag set, H(X_t) and GTE (plug-in and corrected
    values) and H(X_t) = AIS({1}) + GTE.
    """
    rng = np.random.default_rng(seed)
    devs = []

    def agree(est, plugin, corr):
        devs.extend((est.plugin_value - plugin,
                     est.corrected_value - (plugin + corr)))

    for _ in range(n_cases):
        m = int(rng.integers(2, 5))
        seq = SymbolSequence(rng.integers(0, m, size=int(rng.integers(10, 120))), m)
        series = embed(seq, (1, 2, 3), 3)
        rows = np.column_stack([series.targets, series.pasts])  # t, x-1, x-2, x-3
        t, lag1, lag3 = rows[:, 0], rows[:, 1], rows[:, 3]
        mi, _ = dense_estimate(rows, ((0,), 1), ((3,), 1), ((0, 3), -1))
        cmi, _ = dense_estimate(rows, ((0, 1), 1), ((1, 3), 1), ((0, 1, 3), -1),
                                ((1,), -1))
        devs.append(_CmiTests.single(t, [], [(lag3,)]).observed[0, 0] - mi)
        devs.append(_CmiTests.single(t, [lag1], [(lag3,)]).observed[0, 0] - cmi)
        ais = active_information_storage(seq, (1, 3), 3)
        agree(ais, *dense_estimate(rows, ((0,), 1), ((1, 3), 1), ((0, 1, 3), -1)))
        agree(next_symbol_entropy(seq, 3), *dense_estimate(rows, ((0,), 1)))

        rows = np.column_stack([seq.symbols[1:], seq.symbols[:-1]])  # t, x-1
        gte = gaze_transition_entropy(seq)
        agree(gte, *dense_estimate(rows, ((0, 1), 1), ((1,), -1)))
        ais1 = active_information_storage(seq, (1,), 1)
        agree(next_symbol_entropy(seq, 1), ais1.plugin_value + gte.plugin_value,
              ais1.bias_correction + gte.bias_correction)
    worst = float(np.max(np.abs(devs)))
    return CheckResult("algebraic identities", bool(worst <= IDENTITY_TOL),
                       f"max deviation {worst:.3e} over {n_cases} randomized cases")


def check_chain_oracle(seed, n=100_000, n_seeds=5) -> CheckResult:
    """Plug-in AIS on a persistence chain vs. the closed form 1 - h(0.9).

    Compared on the median error over a few seeds: a single draw at this N
    sits within one standard error of the 0.005 tolerance.
    """
    p = 0.9
    expected = 1.0 - (-(p * math.log2(p) + (1 - p) * math.log2(1 - p)))
    errs = []
    for i in range(n_seeds):
        seq = generate(persistence_spec(p), n, seed=seed + i)
        est = active_information_storage(seq, (1,), 1).plugin_value
        errs.append(abs(est - expected))
    median = float(np.median(errs))
    tol = 0.005 * math.sqrt(100_000 / n)  # 0.005 is pinned at N = 1e5
    return CheckResult("order-1 chain closed form", median < tol,
                       f"median |est - {expected:.5f}| = {median:.2e} "
                       f"over {n_seeds} seeds at N={n}")


def check_analytic_oracles(seed) -> CheckResult:
    """Exact AIS/GTE of reference chains against closed-form values."""
    tol = 1e-9
    cyc = cycle_spec(4)
    iid = uniform_iid_spec(4)
    per = persistence_spec(0.9)
    h9 = -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))
    checks = [
        abs(analytic_ais(cyc, (1,)) - 2.0),
        abs(analytic_gte(cyc) - 0.0),
        abs(analytic_ais(iid, (1, 2)) - 0.0),
        abs(analytic_gte(iid) - 2.0),
        abs(analytic_ais(per, (1,)) - (1.0 - h9)),
        abs(analytic_gte(per) - h9),
        abs(analytic_entropy(per) - 1.0),
    ]
    worst = max(checks)
    return CheckResult("analytic chain oracles", worst < tol,
                       f"max deviation {worst:.2e}")


def check_idt_planted(seed) -> CheckResult:
    """IDT on planted traces at 120 Hz and the fixation boundaries.

    Two clusters joined by saccade transits give exactly two fixations at
    their centres; dispersion 50 px and duration 100 ms are inclusive; the
    1500 ms maximum-duration filter removes only fixations above it.
    """
    def gaze(rows):
        return np.array(rows, dtype=GAZE_DTYPE)

    def count(rows):
        return len(detect_fixations_idt(gaze(rows), 50.0, 100.0))

    rows, t = [], 0.0
    for x in [100.0] * 25 + [240.0, 400.0, 560.0] + [700.0] * 25:
        rows.append((t, x, 200.0, 1.0))
        t += 1 / 120.0
    fixations = detect_fixations_idt(gaze(rows), 50.0, 100.0)
    ok = (len(fixations) == 2
          and np.all(np.abs(fixations["centroid_x"] - (100.0, 700.0)) < 1.0))
    ok &= count([(i / 120.0, 300.0 + 50.0 * (i % 2), 100.0, 1.0)
                 for i in range(30)]) == 1
    ok &= count([(i / 120.0, 300.0 + 50.0001 * (i % 2), 100.0, 1.0)
                 for i in range(30)]) == 0
    ok &= count([(v, 0.0, 0.0, 1.0) for v in (0.0, 0.05, 0.100)]) == 1
    ok &= count([(v, 0.0, 0.0, 1.0) for v in (0.0, 0.05, 0.099)]) == 0
    durations = np.zeros(2, dtype=FIXATION_DTYPE)
    durations["duration"] = 1500.0, 1500.0001
    ok &= filter_fixations(durations).tolist() == durations[:1].tolist()
    return CheckResult("IDT planted fixations", bool(ok),
                       f"planted clusters -> {len(fixations)} fixations; "
                       f"dispersion 50 px inclusive; duration 100 ms inclusive; "
                       f"max duration 1500 ms exclusive-above")


def check_exact_permutation(seed, n_perm=10_000) -> CheckResult:
    """3-vs-3 Monte-Carlo p against the exhaustive 20-split enumeration."""
    a = [10.0, 10.0, 10.0]
    b = [0.0, 0.0, 0.0]
    pooled = a + b
    obs = abs(np.mean(a) - np.mean(b))
    exceed = 0
    for idx in itertools.combinations(range(6), 3):
        s = [pooled[i] for i in idx]
        rest = [pooled[i] for i in range(6) if i not in idx]
        if abs(np.mean(s) - np.mean(rest)) >= obs:
            exceed += 1
    exact = exceed / 20.0
    mc = independent_samples_permutation_test(a, b, n_perm=n_perm,
                                              tail="two_sided", seed=seed)
    err = abs(mc.p_value - exact)
    return CheckResult("exact small-group permutation", err <= 0.02,
                       f"|MC {mc.p_value:.4f} - exact {exact:.4f}| = {err:.4f}")


def check_bias_correction(seed, n_draws=300) -> CheckResult:
    """Corrected entropy must beat plug-in entropy on undersampled data."""
    rng = np.random.default_rng(seed)
    err_plugin = []
    err_corrected = []
    for _ in range(n_draws):
        est = next_symbol_entropy(SymbolSequence(rng.integers(0, 4, size=50), 4), 0)
        err_plugin.append(abs(est.plugin_value - 2.0))
        err_corrected.append(abs(est.corrected_value - 2.0))
    mp, mc = float(np.mean(err_plugin)), float(np.mean(err_corrected))
    return CheckResult("Miller-Madow bias correction", mc < mp,
                       f"corrected MAE {mc:.4f} < plug-in MAE {mp:.4f} "
                       f"over {n_draws} draws")


def check_determinism(seed) -> CheckResult:
    """The same calls made twice at the same seed must agree bit for bit."""
    seq = generate(persistence_spec(0.85), 400, seed=seed)
    cfg = RunConfig(k_max=3, alpha=0.05, n_perm_selection=100, seed=seed)
    lags1, trace1 = optimize_past_state(seq, cfg)
    lags2, trace2 = optimize_past_state(seq, cfg)
    series = embed(seq, (1, 2, 3), 3)
    p1 = max_statistic_test((1, 2, 3), series, 100, seed)[1].p_value
    p2 = max_statistic_test((1, 2, 3), series, 100, seed)[1].p_value
    ok = (lags1 == lags2
          and [s.p_value for s in trace1.steps] == [s.p_value for s in trace2.steps]
          and p1 == p2)
    return CheckResult("seeded determinism", ok,
                       f"selection {lags1.lags}, surrogate p {p1:.4f}")


def run_all(seed: int = 12345, quick: bool = False) -> List[CheckResult]:
    """Run every oracle check; `quick` shrinks sample sizes for smoke use."""
    return [
        check_algebraic_identities(seed, n_cases=50 if quick else 200),
        check_chain_oracle(seed, n=20_000 if quick else 100_000),
        check_analytic_oracles(seed),
        check_idt_planted(seed),
        check_exact_permutation(seed, n_perm=2_000 if quick else 10_000),
        check_bias_correction(seed, n_draws=100 if quick else 300),
        check_determinism(seed),
    ]
