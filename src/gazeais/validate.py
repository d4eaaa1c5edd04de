"""Self-check suite behind the `validate` CLI subcommand.

Each check pits an estimator against an independent oracle (closed forms,
exhaustive enumeration, planted synthetic data) and reports pass/fail.
"""

import itertools
import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .embedding import EmbeddingConfig, max_statistic_test, optimize_past_state
from .gaze import GAZE_DTYPE, detect_fixations_idt
from .infocore import (ContingencyTable, active_information_storage,
                       conditional_entropy, conditional_mutual_information,
                       empirical_distribution, entropy,
                       gaze_transition_entropy, local_ais,
                       mutual_information, table_from_series)
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


def _random_table(rng):
    n_axes = int(rng.integers(2, 4))
    dims = tuple(int(rng.integers(2, 5)) for _ in range(n_axes))
    counts = rng.integers(0, 6, size=dims)
    if counts.sum() == 0:
        counts.flat[0] = 1
    return counts, dims


def check_algebraic_identities(seed, n_cases=200) -> CheckResult:
    """Chain rule, MI decomposition, CMI reduction, complementarity, locals."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_cases):
        counts, dims = _random_table(rng)
        table = ContingencyTable(counts)
        axes = list(range(len(dims)))
        a, b = (0,), (1,)
        rest = tuple(axes[2:])
        h_joint = entropy(table, a + b).plugin_value
        h_b = entropy(table, b).plugin_value
        ce = conditional_entropy(table, a, b).plugin_value
        worst = max(worst, abs(ce - (h_joint - h_b)))
        mi = mutual_information(table, a, b).plugin_value
        h_a = entropy(table, a).plugin_value
        worst = max(worst, abs(mi - (h_a + h_b - h_joint)))
        cmi0 = conditional_mutual_information(table, a, b, ()).plugin_value
        worst = max(worst, abs(cmi0 - mi))
        if rest:
            cmi = conditional_mutual_information(table, a, b, rest).plugin_value
            h_ac = entropy(table, a + rest).plugin_value
            h_bc = entropy(table, b + rest).plugin_value
            h_abc = entropy(table, a + b + rest).plugin_value
            h_c = entropy(table, rest).plugin_value
            worst = max(worst, abs(cmi - (h_ac + h_bc - h_abc - h_c)))
        # complementarity + local consistency on a random short sequence
        m = int(rng.integers(2, 5))
        seq = SymbolSequence(rng.integers(0, m, size=int(rng.integers(10, 120))), m)
        ais = active_information_storage(seq, (1,), 1).plugin_value
        gte = gaze_transition_entropy(seq).plugin_value
        h_t = entropy(table_from_series(embed(seq, (1,), 1)), (0,)).plugin_value
        worst = max(worst, abs(h_t - ais - gte))
        worst = max(worst, abs(float(np.mean(local_ais(seq, (1,), 1))) - ais))
    passed = worst <= IDENTITY_TOL
    return CheckResult("algebraic identities", passed,
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
    """Two planted stationary clusters must yield exactly two fixations."""
    xs = [100.0] * 25 + [220.0, 380.0, 520.0] + [600.0] * 25
    samples = np.array([(i * 0.008, x, 100.0, 1.0) for i, x in enumerate(xs)],
                       dtype=GAZE_DTYPE)
    fixations = detect_fixations_idt(samples, 50.0, 100.0)
    ok = (len(fixations) == 2
          and abs(fixations[0].centroid_x - 100.0) < 1.0
          and abs(fixations[1].centroid_x - 600.0) < 1.0)
    return CheckResult("IDT planted fixations", ok,
                       f"{len(fixations)} fixation(s) detected")


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
        draws = rng.integers(0, 4, size=50)
        table = empirical_distribution(draws[:, None], (4,))
        est = entropy(table)
        err_plugin.append(abs(est.plugin_value - 2.0))
        err_corrected.append(abs(est.corrected_value - 2.0))
    mp, mc = float(np.mean(err_plugin)), float(np.mean(err_corrected))
    return CheckResult("Miller-Madow bias correction", mc < mp,
                       f"corrected MAE {mc:.4f} < plug-in MAE {mp:.4f} "
                       f"over {n_draws} draws")


def check_determinism(seed) -> CheckResult:
    """The same calls made twice at the same seed must agree bit for bit."""
    seq = generate(persistence_spec(0.85), 400, seed=seed)
    cfg = EmbeddingConfig(k_max=3, alpha=0.05, n_perm=100, seed=seed)
    lags1, trace1 = optimize_past_state(seq, cfg)
    lags2, trace2 = optimize_past_state(seq, cfg)
    series = embed(seq, (1, 2, 3), 3)
    p1 = max_statistic_test(0.01, (1, 2, 3), series, 100, seed)
    p2 = max_statistic_test(0.01, (1, 2, 3), series, 100, seed)
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
