"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`. Every tolerance is pinned
here or, for criteria 1, 5 and 6, which run the check bodies of `gazeais
validate` (1 and 5 at their own seeds and sizes), in `gazeais.validate`.
The oracles (closed forms, exhaustive enumeration, planted traces, and for
criterion 1 a dense contingency table tallied apart from the production
path's rank-compressed codes) are computed independently of the code paths
they check.
"""

import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from gazeais import (RunConfig, ScanpathRecord,
                     active_information_storage, analytic_ais, analyze_trial,
                     compare_conditions, derive_seed, embed, generate,
                     independent_samples_permutation_test, lagged_copy_spec,
                     max_statistic_test, optimize_past_state,
                     persistence_spec, uniform_iid_spec)
from gazeais import test_final_ais as final_ais_test
from gazeais.cli import main as cli_main
from gazeais.validate import (check_algebraic_identities, check_bias_correction,
                              check_idt_planted)


def _report(num, name, passed, detail):
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if passed else 'FAIL'} ({detail})",
          flush=True)
    assert passed, f"criterion {num} failed: {detail}"


def binary_entropy(p):
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


def test_criterion_1_algebraic_identities():
    check = check_algebraic_identities(20240501, n_cases=1000)
    _report(1, "algebraic identities", check.passed, check.detail)


def test_criterion_2_oracle_convergence():
    p_stay = 0.9
    target = 1.0 - binary_entropy(p_stay)  # closed form, computed here
    spec = persistence_spec(p_stay)
    assert analytic_ais(spec, (1,)) == pytest.approx(target, abs=1e-12)
    medians = []
    for n in (1000, 10_000, 100_000):
        errs = []
        for s in range(20):
            seq = generate(spec, n, seed=derive_seed(812, n, s))
            est = active_information_storage(seq, (1,), 1).plugin_value
            errs.append(abs(est - target))
        medians.append(float(np.median(errs)))
    monotone = medians[0] >= medians[1] >= medians[2]
    close = medians[2] < 0.005
    _report(2, "oracle convergence", monotone and close,
            f"median errors {[f'{m:.4f}' for m in medians]} "
            f"for N in 1e3/1e4/1e5; target {target:.5f}")


def test_criterion_3_embedding_recovery():
    cfg = RunConfig(k_max=5, alpha=0.05, n_perm_selection=200, seed=0)

    order1_hits = 0
    for s in range(20):
        seq = generate(persistence_spec(0.9), 10_000, seed=derive_seed(31, s))
        lags, _ = optimize_past_state(seq, cfg)
        order1_hits += lags.lags == (1,)

    order2_hits = 0
    for s in range(20):
        seq = generate(lagged_copy_spec(2, 0.9), 10_000, seed=derive_seed(32, s))
        lags, _ = optimize_past_state(seq, cfg)
        order2_hits += 2 in lags.lags

    false_positives = 0
    for s in range(100):
        seq = generate(uniform_iid_spec(4), 10_000, seed=derive_seed(33, s))
        lags, _ = optimize_past_state(seq, cfg)
        false_positives += bool(lags)

    passed = order1_hits >= 18 and order2_hits >= 18 and false_positives <= 10
    _report(3, "embedding recovery", passed,
            f"order-1 {order1_hits}/20, planted lag-2 {order2_hits}/20, "
            f"iid false positives {false_positives}/100")


def _condition_records(spec, condition, n_trials, length, seed):
    records = []
    for i in range(n_trials):
        seq = generate(spec, length, seed=derive_seed(seed, condition, i))
        records.append(ScanpathRecord(
            trial_id=f"{condition}-t{i:02d}", participant_id="p0",
            condition=condition, symbols=seq.symbols,
            alphabet_size=seq.alphabet_size))
    return records


def test_criterion_4_protocol_pipeline():
    spec_hi = persistence_spec(0.95)   # analytic AIS ~ 0.714 bits
    spec_lo = persistence_spec(0.60)   # analytic AIS ~ 0.029 bits
    gap = analytic_ais(spec_hi, (1,)) - analytic_ais(spec_lo, (1,))
    assert gap >= 0.3
    cfg = RunConfig(k_max=5, alpha=0.05, n_perm_selection=200, seed=0)

    correct = 0
    for run in range(100):
        hi = _condition_records(spec_hi, "hi", 22, 300, derive_seed(41, run))
        lo = _condition_records(spec_lo, "lo", 22, 300, derive_seed(42, run))
        comp = compare_conditions(
            hi + lo, replace(cfg, seed=derive_seed(43, run),
                             n_perm_comparison=5000, tail="two_sided"))
        contrast = comp.contrasts["ais"]
        if contrast.observed_diff > 0 and contrast.p_value <= 0.01:
            correct += 1

    spec_null = persistence_spec(0.75)
    null_rejections = 0
    for run in range(100):
        a = _condition_records(spec_null, "A", 22, 300, derive_seed(44, run))
        b = _condition_records(spec_null, "B", 22, 300, derive_seed(45, run))
        comp = compare_conditions(
            a + b, replace(cfg, seed=derive_seed(46, run),
                           n_perm_comparison=5000, tail="two_sided"))
        if comp.contrasts["ais"].p_value <= 0.01:
            null_rejections += 1

    passed = correct >= 95 and null_rejections <= 7
    _report(4, "condition-contrast protocol", passed,
            f"separated direction+p<=0.01 in {correct}/100, "
            f"identical-spec rejections {null_rejections}/100, "
            f"analytic gap {gap:.3f} bits")


def test_criterion_5_bias_correction():
    check = check_bias_correction(55, n_draws=1000)
    _report(5, "bias correction", check.passed, check.detail)


def test_criterion_6_idt_correctness():
    check = check_idt_planted(0)
    _report(6, "IDT correctness", check.passed, check.detail)


def test_criterion_7_determinism(tmp_path):
    checks = []

    seq = generate(persistence_spec(0.85), 2000, seed=71)
    checks.append(np.array_equal(
        generate(persistence_spec(0.85), 2000, seed=71).symbols, seq.symbols))

    cfg = RunConfig(k_max=5, n_perm_selection=100, seed=72)
    out1 = optimize_past_state(seq, cfg)
    out2 = optimize_past_state(seq, cfg)
    checks.append(out1[0] == out2[0])
    checks.append([s.p_value for s in out1[1].steps]
                  == [s.p_value for s in out2[1].steps])

    series = embed(seq, (1, 2, 3), 5)
    checks.append(
        max_statistic_test((1, 2, 3), series, 200, seed=73)
        == max_statistic_test((1, 2, 3), series, 200, seed=73))
    checks.append(final_ais_test(series, 200, seed=74)
                  == final_ais_test(series, 200, seed=74))

    rng = np.random.default_rng(75)
    a, b = rng.normal(size=15).tolist(), rng.normal(0.4, 1.0, size=12).tolist()
    checks.append(
        independent_samples_permutation_test(a, b, 500, "two_sided", 76)
        == independent_samples_permutation_test(a, b, 500, "two_sided", 76))

    record = ScanpathRecord("d", "", "", seq.symbols, seq.alphabet_size)
    res1 = analyze_trial(record, cfg)
    res2 = analyze_trial(record, cfg)
    checks.append(res1.ais == res2.ais and res1.ais_p_value == res2.ais_p_value)

    # CLI: simulate -> ais -> compare, each run twice, byte identical
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(persistence_spec(0.9, m=4).to_json_dict()))
    sims = {}
    for cond, seed in (("TC", 771), ("TUC", 772)):
        path = tmp_path / f"sims_{cond}.json"
        cli_main(["simulate", str(spec_path), "--length", "150", "--trials", "4",
                  "--seed", str(seed), "--condition", cond,
                  "--participant", "p0", "--out", str(path)])
        sims[cond] = json.loads(path.read_text())["trials"]
    scan_path = tmp_path / "scan.json"
    scan_path.write_text(json.dumps(
        {"schema_version": 1, "trials": sims["TC"] + sims["TUC"]}))
    ais_outputs = []
    for run in ("1", "2"):
        out = tmp_path / f"results_{run}.json"
        cli_main(["ais", str(scan_path), "--seed", "77", "--nperm", "100",
                  "--out", str(out)])
        ais_outputs.append(out.read_bytes())
    checks.append(ais_outputs[0] == ais_outputs[1])
    cmp_outputs = []
    for run in ("1", "2"):
        out = tmp_path / f"cmp_{run}"
        cli_main(["compare", str(tmp_path / "results_1.json"), "--seed", "78",
                  "--nperm-comparison", "400", "--out", str(out)])
        cmp_outputs.append((out / "comparison.json").read_bytes())
    checks.append(cmp_outputs[0] == cmp_outputs[1])

    _report(7, "determinism", all(checks),
            f"{sum(checks)}/{len(checks)} determinism checks identical")


def test_criterion_8_exact_small_group_test():
    rng = np.random.default_rng(81)
    worst = 0.0
    for case in range(5):
        if case == 0:
            a, b = [10.0, 10.0, 10.0], [0.0, 0.0, 0.0]
        else:
            a = rng.normal(0.5, 1.0, size=3).tolist()
            b = rng.normal(0.0, 1.0, size=3).tolist()
        pooled = np.asarray(a + b)
        obs = abs(np.mean(sorted(a)) - np.mean(sorted(b)))
        exceed = 0
        splits = list(itertools.combinations(range(6), 3))
        for idx in splits:
            mask = np.zeros(6, dtype=bool)
            mask[list(idx)] = True
            s = np.sort(pooled[mask])
            rest = np.sort(pooled[~mask])
            if abs(s.mean() - rest.mean()) >= obs:
                exceed += 1
        exact = exceed / len(splits)
        mc = independent_samples_permutation_test(a, b, 10_000, "two_sided",
                                                  seed=derive_seed(82, case))
        worst = max(worst, abs(mc.p_value - exact))
    _report(8, "exact small-group permutation", worst <= 0.02,
            f"max |MC - exact| = {worst:.4f} over 5 group pairs")
