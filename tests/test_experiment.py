import math

import numpy as np
import pytest

from dataclasses import replace

from gazeais import (PastState, RunConfig, ScanpathRecord, SymbolSequence,
                     active_information_storage, analyze_trial,
                     compare_conditions, contrast_conditions, cycle_spec,
                     derive_seed, generate, independent_samples_permutation_test,
                     lag_histogram, next_symbol_entropy, parse_run_config,
                     persistence_spec, uniform_iid_spec, union_past_state)
from gazeais.experiment import MEASURES, TrialResult
from gazeais.stats import _contrast_tests

import test_batch


def make_records(spec, condition, n_trials, length, seed, participant="p0"):
    records = []
    for i in range(n_trials):
        seq = generate(spec, length, seed=derive_seed(seed, condition, i))
        records.append(ScanpathRecord(
            trial_id=f"{condition}-t{i:02d}", participant_id=participant,
            condition=condition, symbols=seq.symbols,
            alphabet_size=seq.alphabet_size))
    return records


def as_record(seq, trial_id="", participant_id="", condition=""):
    """`seq` as the record of one trial with the given ids."""
    return ScanpathRecord(trial_id, participant_id, condition, seq.symbols,
                          seq.alphabet_size)


class TestAnalyzeTrial:
    def test_deterministic_cycle(self):
        seq = SymbolSequence(np.arange(160) % 4, 4)
        cfg = RunConfig(k_max=5, n_perm_selection=100, seed=1)
        res = analyze_trial(as_record(seq, "cyc"), cfg)
        assert not res.skipped
        assert res.selected_lags.lags == (1,)
        assert res.normalized_ais == pytest.approx(1.0, abs=1e-6)
        assert res.ais_p_value == pytest.approx(1.0 / 101.0)
        assert res.ais.corrected_value == res.ais.plugin_value + res.ais.bias_correction

    def test_short_trial_skipped(self):
        seq = SymbolSequence([0, 1] * 6, 2)
        cfg = RunConfig(k_max=5, n_perm_selection=100, seed=1)
        res = analyze_trial(as_record(seq, "short"), cfg)
        assert res.skipped
        assert "need at least" in res.skip_reason
        assert res.ais is None

    def test_iid_trial_usually_empty(self):
        cfg = RunConfig(k_max=5, n_perm_selection=100, seed=2)
        empty = 0
        for s in range(5):
            seq = generate(uniform_iid_spec(4), 2000, seed=derive_seed(44, s))
            res = analyze_trial(as_record(seq), replace(cfg, seed=derive_seed(45, s)))
            if not res.selected_lags:
                assert res.ais.plugin_value == 0.0
                assert res.ais_p_value == 1.0
                empty += 1
        assert empty >= 4

    def test_chain_matches_oracle(self):
        from gazeais import analytic_ais
        spec = persistence_spec(0.9)
        seq = generate(spec, 10_000, seed=7)
        cfg = RunConfig(k_max=5, n_perm_selection=200, seed=7)
        res = analyze_trial(as_record(seq), cfg)
        assert res.ais.corrected_value == pytest.approx(
            analytic_ais(spec, (1,)), abs=0.02)

    def test_constant_sequence_normalized_undefined(self):
        seq = SymbolSequence(np.zeros(100, dtype=int), 2)
        cfg = RunConfig(k_max=5, n_perm_selection=100, seed=3)
        res = analyze_trial(as_record(seq), cfg)
        assert res.entropy_next.plugin_value == 0.0
        assert math.copysign(1.0, res.entropy_next.plugin_value) == 1.0
        assert res.normalized_ais is None

    @pytest.mark.parametrize("draw_rows, path", [(0, "tables"), (10 ** 9, "permutations")])
    def test_final_test_observes_the_reported_ais(self, monkeypatch, draw_rows, path):
        # The final test's observed statistic is the reported plug-in AIS bit
        # for bit, whichever way its surrogates are drawn: as tables, as
        # tallies per state (a binary target) or as permutations. `path` is
        # that of the 4-symbol trials.
        from gazeais import experiment, infocore, lagged_copy_spec
        monkeypatch.setattr(infocore, "TABLE_DRAW_ROWS", draw_rows)
        drawn, observed = [], []
        for name, label in (("_table_sums", "tables"), ("_state_count_draws", "tallies")):
            monkeypatch.setattr(infocore, name, lambda *args, draw=getattr(infocore, name),
                                label=label: drawn.append(label) or draw(*args))
        final = experiment._final_ais_tests

        def spied(*args, **kwargs):
            drawn.clear()  # the selection's own draws
            [result] = final(*args, **kwargs)
            observed.append((result.observed_statistic, drawn or ["permutations"]))
            return [result]
        monkeypatch.setattr(experiment, "_final_ais_tests", spied)
        cfg = RunConfig(k_max=3, n_perm_selection=50, seed=4)
        binary = "tallies" if draw_rows else "tables"
        for spec, drew in ((persistence_spec(0.8), binary),
                           (lagged_copy_spec(2, 0.6, m=4), path)):
            for seed in range(3):
                res = analyze_trial(as_record(generate(spec, 200, seed=seed)), cfg)
                assert res.selected_lags.lags and len(observed) == 1
                assert observed.pop() == (res.ais.plugin_value, [drew])


class TestTrialResultRoundTrip:
    @pytest.mark.parametrize("symbols", [
        np.arange(160) % 4,             # analysed, lag 1 selected
        [0, 1] * 6,                     # skipped: too short
        np.zeros(100, dtype=int),       # analysed, no lag selected
    ], ids=["analysed", "skipped", "no-lags"])
    def test_from_dict_inverts_to_dict(self, symbols):
        cfg = RunConfig(k_max=5, n_perm_selection=100, seed=1)
        record = as_record(SymbolSequence(symbols, 4), "t", "p", "c")
        res = analyze_trial(record, cfg)
        doc = res.to_dict()
        entry = {**doc, "symbols": record.symbols.tolist(), "alphabet_size": 4}
        again = TrialResult.from_dict(entry)
        assert again.to_dict() == doc
        assert again.record.to_dict() == record.to_dict()


RECORD = as_record(SymbolSequence([0], 2), "t", "p", "c")


class TestUnionPastState:
    def _result(self, lags, k_max=5):
        return TrialResult(RECORD, 100, selected_lags=PastState(lags, k_max))

    def test_union(self):
        results = [self._result((1,)), self._result((1, 3)), self._result((2,))]
        assert union_past_state(results, 5).lags == (1, 2, 3)

    def test_all_empty(self):
        results = [self._result(()), self._result(())]
        assert union_past_state(results, 5).lags == ()

    def test_single(self):
        assert union_past_state([self._result((1, 5))], 5).lags == (1, 5)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            union_past_state([], 5)


class TestLagHistogram:
    def _result(self, lags, skipped=False):
        if skipped:
            return TrialResult(RECORD, 0, skipped=True)
        return TrialResult(RECORD, 100, selected_lags=PastState(lags, 5))

    def test_tally_and_fractions(self):
        results = [self._result((1,)), self._result((1, 2)), self._result(())]
        hist = lag_histogram(results, 5)
        assert hist.counts[1] == 2 and hist.counts[2] == 1
        assert hist.fraction_multi_all == pytest.approx(1 / 3)
        assert hist.fraction_multi_selected == pytest.approx(1 / 2)

    def test_all_empty(self):
        hist = lag_histogram([self._result(()), self._result(())], 5)
        assert all(v == 0 for v in hist.counts.values())
        assert hist.fraction_multi_all == 0.0
        assert hist.fraction_multi_selected is None

    def test_skipped_excluded(self):
        hist = lag_histogram([self._result((2,)), self._result((), skipped=True)], 5)
        assert hist.n_trials == 1
        assert hist.fraction_multi_all == 1.0


def constant_trial_comparison():
    """Trials of unequal lengths, one of them constant (H(X_t) = 0, so it
    leaves the normalized contrast), contrasted on the union of the given
    lags."""
    rng = np.random.default_rng(71)
    results = []
    for cond, lags, lengths in (("A", (1,), (90, 100, 95)),
                                ("B", (2, 4), (120, 88, 110))):
        for i, length in enumerate(lengths):
            symbols = rng.integers(0, 3, length)
            if cond == "A" and i == 1:
                symbols[:] = 2
            results.append(TrialResult(
                ScanpathRecord(f"{cond}{i}", "p", cond, symbols, 3),
                length - 5, selected_lags=PastState(lags, 5)))
    return contrast_conditions(results, RunConfig(n_perm_comparison=500, seed=3))


def contrast_groups(comp):
    """{measure: (group_a, group_b)} of a comparison, each trial's values
    estimated alone on its equalized suffix with the union past state."""
    groups = {m: ([], []) for m in MEASURES}
    k_max = comp.union_lags.k_max
    for res in comp.trial_results:
        if res.skipped:
            continue
        seq = SymbolSequence(res.record.symbols[-comp.equalized_length:],
                             res.record.alphabet_size)
        h = next_symbol_entropy(seq, k_max)
        ais = (active_information_storage(seq, comp.union_lags, k_max).corrected_value
               if comp.union_lags.lags else 0.0)
        side = comp.conditions.index(res.record.condition)
        groups["ais"][side].append(ais)
        groups["entropy"][side].append(h.corrected_value)
        if h.plugin_value != 0.0:
            groups["normalized_ais"][side].append(
                min(1.0, max(0.0, ais / h.corrected_value)))
    return groups


class TestContrastStreams:
    """The measures of a participant whose groups have the same sizes share
    one permutation stream, that of the first of them; the AIS contrast
    always draws from its own seed."""

    # A batch of one measure is its standalone test at its own seed: the
    # normalized pool, left smaller by a constant trial, draws alone.
    @pytest.mark.parametrize("design, batches", [
        ("mixed", [("ais", "entropy"), ("normalized_ais",)]),
        ("mixed-without-constant", [("ais", "entropy", "normalized_ais")]),
        ("constant-trial", [("ais", "entropy"), ("normalized_ais",)])])
    def test_measures_of_equal_sizes_share_a_stream(self, design, batches):
        if design == "constant-trial":
            comp = constant_trial_comparison()
        else:
            records = [r for r in test_batch.mixed_records()
                       if design == "mixed" or r.trial_id != "constant"]
            comp = compare_conditions(records, test_batch.CFG)
        groups = contrast_groups(comp)
        for m, (a, b) in groups.items():
            assert comp.means[m] == {comp.conditions[0]: float(np.mean(a)),
                                     comp.conditions[1]: float(np.mean(b))}
        ais = independent_samples_permutation_test(
            *groups["ais"], comp.n_perm, comp.tail,
            derive_seed(comp.seed, "contrast", "ais"))
        assert (comp.contrasts["ais"].observed_diff,
                comp.contrasts["ais"].p_value) == (ais.observed_statistic, ais.p_value)
        for batch in batches:
            tests = _contrast_tests([groups[m] for m in batch], comp.n_perm,
                                    comp.tail, derive_seed(comp.seed, "contrast",
                                                           batch[0]))
            assert [(comp.contrasts[m].observed_diff, comp.contrasts[m].p_value)
                    for m in batch] == [(t.observed_statistic, t.p_value)
                                        for t in tests]


class TestCompareConditions:
    def test_duplicated_group_zero_differences(self):
        base = make_records(persistence_spec(0.85), "A", 4, 120, seed=5)
        mirrored = []
        for rec in base:
            mirrored.append(ScanpathRecord(
                trial_id=rec.trial_id.replace("A", "B"),
                participant_id=rec.participant_id, condition="B",
                symbols=rec.symbols.copy(), alphabet_size=rec.alphabet_size))
        cfg = RunConfig(k_max=5, n_perm_selection=100, seed=5)
        comp = compare_conditions(base + mirrored,
                                  replace(cfg, n_perm_comparison=300))
        for measure in ("ais", "entropy"):
            assert comp.contrasts[measure].observed_diff == pytest.approx(0.0, abs=1e-15)
        assert comp.contrasts["ais"].p_value == 1.0

    def test_separated_conditions(self):
        a = make_records(cycle_spec(4), "A", 4, 120, seed=6)
        b = make_records(uniform_iid_spec(4), "B", 4, 120, seed=7)
        cfg = RunConfig(k_max=5, n_perm_selection=100, seed=8)
        comp = compare_conditions(a + b, replace(cfg, n_perm_comparison=400))
        assert comp.contrasts["ais"].observed_diff > 0
        assert comp.contrasts["ais"].direction == "A>B"
        # 4v4 split: the minimum attainable two-sided mass is 2/C(8,4).
        assert comp.contrasts["ais"].p_value < 0.06

    def test_equalization_and_union_shared(self):
        a = make_records(persistence_spec(0.9), "A", 3, 150, seed=9)
        b = make_records(persistence_spec(0.9), "B", 3, 110, seed=10)
        cfg = RunConfig(k_max=5, n_perm_selection=100, seed=11)
        comp = compare_conditions(a + b, replace(cfg, n_perm_comparison=200))
        assert comp.equalized_length == 110
        assert comp.equalized_sample_count == 105
        assert set(comp.union_lags.lags) >= set(
            l for t in comp.trial_results if t.selected_lags
            for l in t.selected_lags.lags)

    def test_deterministic(self):
        a = make_records(persistence_spec(0.8), "A", 3, 100, seed=12)
        b = make_records(persistence_spec(0.6), "B", 3, 100, seed=13)
        cfg = RunConfig(k_max=5, n_perm_selection=60, seed=14)
        c1 = compare_conditions(a + b, replace(cfg, n_perm_comparison=100))
        c2 = compare_conditions(a + b, replace(cfg, n_perm_comparison=100))
        assert c1.contrasts["ais"].p_value == c2.contrasts["ais"].p_value
        assert c1.means == c2.means

    def test_insufficient_trials_names_condition(self):
        a = make_records(persistence_spec(0.8), "A", 1, 100, seed=15)
        b = make_records(persistence_spec(0.8), "B", 3, 100, seed=16)
        cfg = RunConfig(k_max=5, n_perm_selection=60, seed=17)
        with pytest.raises(ValueError, match="'A'"):
            compare_conditions(a + b, cfg)

    def test_all_skipped_trials_still_count_their_condition(self):
        # One 8-symbol trial in each condition: both are skipped at k_max 5,
        # and the error names the first condition and why, not "found []".
        records = [ScanpathRecord(f"{c}0", "p", c, np.array([0, 1] * 4), 2)
                   for c in "AB"]
        with pytest.raises(ValueError) as info:
            compare_conditions(records, RunConfig(k_max=5, n_perm_selection=60,
                                                  seed=1))
        assert str(info.value) == (
            "participant 'p': condition 'A' has 0 analyzable trial(s), 1 skipped "
            "(3 embedded rows at k_max=5; need at least 10); need >= 2")

    def test_skipped_condition_names_its_skips(self):
        a = make_records(persistence_spec(0.8), "A", 2, 100, seed=15)
        b = make_records(persistence_spec(0.8), "B", 1, 100, seed=16)
        b += [ScanpathRecord(f"B-short{n}", "p0", "B", np.arange(n) % 2, 2)
              for n in (12, 9, 12)]
        cfg = RunConfig(k_max=5, n_perm_selection=60, seed=17)
        with pytest.raises(ValueError) as info:
            compare_conditions(a + b, cfg)
        assert str(info.value) == (
            "participant 'p0': condition 'B' has 1 analyzable trial(s), 3 skipped "
            "(7 embedded rows at k_max=5; need at least 10, 4 embedded rows at "
            "k_max=5; need at least 10); need >= 2")

    def test_contrast_uses_given_selections(self):
        a = make_records(persistence_spec(0.9), "A", 3, 120, seed=21)
        b = make_records(persistence_spec(0.9), "B", 3, 120, seed=22)
        cfg = replace(RunConfig(k_max=5, n_perm_selection=60, seed=23),
                      n_perm_comparison=100)
        comp = compare_conditions(a + b, cfg)
        results = list(comp.trial_results)
        again = contrast_conditions(results, cfg)
        assert again.to_dict() == comp.to_dict()
        results[0] = replace(results[0], selected_lags=PastState((4,), 5))
        planted = contrast_conditions(results, cfg)
        assert 4 in planted.union_lags.lags

    def test_mixed_participants_rejected(self):
        a = make_records(persistence_spec(0.8), "A", 2, 100, seed=18)
        b = make_records(persistence_spec(0.8), "B", 2, 100, seed=19,
                         participant="p1")
        cfg = RunConfig(k_max=5, n_perm_selection=60, seed=20)
        with pytest.raises(ValueError, match="participants"):
            compare_conditions(a + b, cfg)

    def test_constant_trial_values_pinned(self):
        # The values are those the per-trial estimators gave before the
        # participant's trials were estimated in one call.
        comp = constant_trial_comparison()
        assert comp.union_lags.lags == (1, 2, 4)
        assert (comp.equalized_length, comp.equalized_sample_count) == (88, 83)
        assert comp.excluded_normalized == {"A": 1, "B": 0}
        assert comp.contrasts["normalized_ais"].n_a == 2
        assert comp.means == {
            "ais": {"A": 0.14421020212085822, "B": 0.3547665315146431},
            "entropy": {"A": 1.065801861094826, "B": 1.5783042776536471},
            "normalized_ais": {"A": 0.13528064413930876, "B": 0.2253683950017872}}
        assert comp.sems == {
            "ais": {"A": 0.07430836424690641, "B": 0.05171616223754974},
            "entropy": {"A": 0.5329023984794928, "B": 0.01740296449600165},
            "normalized_ais": {"A": 0.019275499812149592, "B": 0.03470324993293556}}
        assert {m: (c.observed_diff, c.p_value)
                for m, c in comp.contrasts.items()} == {
            "ais": (-0.21055632939378488, 0.0998003992015968),
            "entropy": (-0.512502416558821, 1.0),
            "normalized_ais": (-0.09008775086247844, 0.20159680638722555)}


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert (cfg.k_max, cfg.alpha, cfg.n_perm_selection, cfg.n_perm_comparison,
                cfg.seed, cfg.collapse_repeats, cfg.tail) == (
                    5, 0.05, 200, 5000, 0, False, "two_sided")

    def test_nperm_must_reach_alpha(self):
        # Minimum attainable p is 1/(n_perm + 1), so n_perm >= 1/alpha - 1.
        with pytest.raises(ValueError, match=(
                "n_perm_selection = 10 cannot reach alpha = 0.05; "
                "need at least 19")):
            RunConfig(alpha=0.05, n_perm_selection=10)
        RunConfig(alpha=0.05, n_perm_selection=19)  # boundary is fine

    def test_alpha_range(self):
        with pytest.raises(ValueError, match="alpha"):
            RunConfig(alpha=1.5)

    @pytest.mark.parametrize("key, value, message", [
        ("k_max", 0, "k_max must be >= 1, got 0"),
        ("alpha", 0.0, "alpha must lie in (0, 1), got 0.0"),
        ("alpha", 1.5, "alpha must lie in (0, 1), got 1.5"),
        ("n_perm_selection", 0, "n_perm_selection must be >= 1, got 0"),
        ("n_perm_comparison", 0, "n_perm_comparison must be >= 1, got 0"),
        ("tail", "both", "tail must be one of ('greater', 'less', "
                         "'two_sided'), got 'both'"),
    ])
    def test_each_field_named_in_its_error(self, key, value, message):
        with pytest.raises(ValueError) as info:
            RunConfig(**{key: value})
        assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            replace(RunConfig(), **{key: value})
        assert str(info.value) == message

    def test_frozen(self):
        cfg = RunConfig()
        with pytest.raises(AttributeError):
            cfg.k_max = 0

    @pytest.mark.parametrize("line, message", [
        ("k_max = 0", "k_max must be >= 1, got 0"),
        ("alpha = 2", "alpha must lie in (0, 1), got 2.0"),
        ("n_perm_selection = 0", "n_perm_selection must be >= 1, got 0"),
    ])
    def test_range_checked_per_line(self, tmp_path, line, message):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\n" + line + "\n")
        with pytest.raises(ValueError) as info:
            parse_run_config(path)
        assert str(info.value) == f"{path}: config line 2: {message}"

    @pytest.mark.parametrize("text", [
        "alpha = 0.1\nn_perm_selection = 10\n",
        "n_perm_selection = 10\nalpha = 0.1\n",
    ])
    def test_alpha_and_nperm_read_together(self, tmp_path, text):
        # Either line alone fails against the other's default.
        path = tmp_path / "run.cfg"
        path.write_text(text)
        cfg = parse_run_config(path)
        assert (cfg.alpha, cfg.n_perm_selection) == (0.1, 10)

    def test_nperm_that_cannot_reach_alpha_names_the_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n_perm_selection = 10\nalpha = 0.05\n")
        with pytest.raises(ValueError) as info:
            parse_run_config(path)
        assert str(info.value) == (f"{path}: n_perm_selection = 10 cannot "
                                   f"reach alpha = 0.05; need at least 19")

    def test_parse(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# analysis settings\n"
            "k_max = 4\n"
            "alpha = 0.01\n"
            "n_perm_selection = 300\n"
            "n_perm_comparison = 2000\n"
            "seed = 99\n"
            "collapse_repeats = true\n"
            "tail = greater\n"
        )
        cfg = parse_run_config(path)
        assert cfg.k_max == 4 and cfg.alpha == 0.01
        assert cfg.n_perm_selection == 300 and cfg.n_perm_comparison == 2000
        assert cfg.seed == 99 and cfg.collapse_repeats and cfg.tail == "greater"

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("bogus = 1\n")
        with pytest.raises(ValueError, match="unknown key"):
            parse_run_config(path)

    def test_key_set_twice(self, tmp_path):
        # The later value must not silently win.
        path = tmp_path / "run.cfg"
        path.write_text("k_max = 3\nalpha = 0.01\nk_max = 5\n")
        with pytest.raises(ValueError, match=(
                "config line 3: key 'k_max' is already set on line 1")):
            parse_run_config(path)

    @pytest.mark.parametrize("text", ["k_max 3\n", "bogus = 1\n",
                                      "seed = 1\nseed = 2\n", "alpha = x\n"])
    def test_errors_name_the_file(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            parse_run_config(path)
        assert str(info.value).startswith(f"{path}: config line ")

    def test_boolean_words(self, tmp_path):
        path = tmp_path / "run.cfg"
        for word, value in (("YES", True), ("On", True), ("1", True),
                            ("False", False), ("off", False), ("0", False)):
            path.write_text(f"collapse_repeats = {word}\n")
            assert parse_run_config(path).collapse_repeats is value

    def test_mistyped_boolean(self, tmp_path):
        # A typo must not read as False.
        path = tmp_path / "run.cfg"
        path.write_text("seed = 3\ncollapse_repeats = ture\n")
        with pytest.raises(ValueError, match="config line 2: .*'ture'"):
            parse_run_config(path)
