import tracemalloc

import numpy as np
import pytest

from gazeais import (RunConfig, SymbolSequence, derive_seed, embed,
                     generate, lagged_copy_spec, max_statistic_test,
                     optimize_past_state, persistence_spec, uniform_iid_spec)
from gazeais import derive_rng, embedding, infocore
from gazeais.validate import dense_estimate


class TestCandidateCmis:
    def test_matches_table_estimator(self):
        # The hot-path coded CMI must agree with the dense-table oracle.
        rng = np.random.default_rng(31)
        seq = SymbolSequence(rng.integers(0, 3, size=200), 3)
        series = embed(seq, (1, 2, 3), 3)
        cmis, _ = max_statistic_test((1, 3), series, 1, seed=0, selected=(2,))
        rows = np.column_stack([series.targets, series.pasts])  # t, lag1..lag3
        for lag in (1, 3):
            ref, _ = dense_estimate(rows, ((0, 2), 1), ((2, lag), 1),
                                    ((0, 2, lag), -1), ((2,), -1))
            assert cmis[lag] == pytest.approx(ref, abs=1e-12)


class TestMaxStatisticTest:
    @pytest.fixture
    def series(self):
        rng = np.random.default_rng(7)
        seq = SymbolSequence(rng.integers(0, 2, size=300), 2)
        return embed(seq, (1, 2, 3), 3)

    def test_extreme_statistic(self):
        # Every lag of a cycle determines the next symbol: 2 bits, which no
        # permuted target reaches.
        series = embed(SymbolSequence(np.arange(303) % 4, 4), (1, 2, 3), 3)
        cmis, result = max_statistic_test((1, 2, 3), series, n_perm=99, seed=1)
        assert cmis == pytest.approx({1: 2.0, 2: 2.0, 3: 2.0}, abs=1e-12)
        assert result.observed_statistic == max(cmis.values())
        assert result.p_value == pytest.approx(1.0 / 100.0)

    def test_null_consistent_statistic(self):
        # A constant target carries no information, and every surrogate
        # ties its zero.
        series = embed(SymbolSequence(np.zeros(300, dtype=np.int64), 2), (1, 2, 3), 3)
        cmis, result = max_statistic_test((1, 2, 3), series, n_perm=99, seed=1)
        assert cmis == {1: 0.0, 2: 0.0, 3: 0.0}
        assert result.p_value == 1.0

    def test_rerun_identical(self, series):
        first = max_statistic_test((1, 2), series, 50, seed=4)
        assert first == max_statistic_test((1, 2), series, 50, seed=4)

    def test_unknown_lag_rejected(self, series):
        with pytest.raises(ValueError, match="not present"):
            max_statistic_test((9,), series, 10, seed=0)


class TestLargeAlphabets:
    def test_selection_memory_follows_rows(self):
        # Dense tables over 16 symbols and lags 1..5 would hold 16^6 cells.
        seq = SymbolSequence(np.random.default_rng(16).integers(0, 16, 300), 16)
        series = embed(seq, range(1, 6), 5)
        tracemalloc.start()
        try:
            optimize_past_state(seq, RunConfig(k_max=5, n_perm_selection=200, seed=1))
            max_statistic_test((5,), series, 200, seed=1, selected=(1, 2, 3, 4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_selection_at_three_hundred_symbols(self):
        # 300^5 joint cells: no dense table, and no int64 mixed-radix code.
        seq = SymbolSequence(np.random.default_rng(300).integers(0, 300, 400), 300)
        lags, trace = optimize_past_state(
            seq, RunConfig(k_max=4, n_perm_selection=100, seed=1))
        assert set(lags.lags) <= {1, 2, 3, 4}
        assert all(np.isfinite(v) for v in trace.steps[0].cmi_values.values())


class TestOptimizePastState:
    def test_too_short(self):
        cfg = RunConfig(seed=0)
        with pytest.raises(ValueError, match="at least 10"):
            optimize_past_state(SymbolSequence([0, 1] * 7, 2), cfg)

    def test_deterministic_cycle_selects_lag_one(self):
        seq = SymbolSequence(np.arange(200) % 4, 4)
        cfg = RunConfig(k_max=5, n_perm_selection=100, seed=3)
        lags, trace = optimize_past_state(seq, cfg)
        assert lags.lags == (1,)
        assert trace.steps[0].accepted and not trace.steps[-1].accepted
        assert trace.n_rows == 195

    def test_trace_is_bounded(self):
        seq = generate(persistence_spec(0.9), 1500, seed=5)
        cfg = RunConfig(k_max=5, n_perm_selection=100, seed=5)
        lags, trace = optimize_past_state(seq, cfg)
        assert len(trace.steps) <= cfg.k_max + 1
        assert set(lags.lags) <= set(range(1, cfg.k_max + 1))
        # Accepted candidates carry strictly positive plug-in CMI.
        for step in trace.steps:
            if step.accepted:
                assert step.observed_cmi > 0.0

    def test_one_kernel_pass_per_step(self, monkeypatch):
        # Each step's observed CMIs and its surrogates come from one batch.
        calls = []
        batch = embedding._CmiTests

        def counted(*args):
            calls.append(args)
            return batch(*args)
        monkeypatch.setattr(embedding, "_CmiTests", counted)
        seq = generate(lagged_copy_spec(2, 0.9), 300, seed=12)
        _, trace = optimize_past_state(
            seq, RunConfig(k_max=5, n_perm_selection=200, seed=1))
        assert len(trace.steps) >= 2 and len(calls) == len(trace.steps)

    def test_identical_inputs_identical_outputs(self):
        seq = generate(persistence_spec(0.8), 800, seed=9)
        cfg = RunConfig(k_max=4, n_perm_selection=60, seed=21)
        out1 = optimize_past_state(seq, cfg)
        out2 = optimize_past_state(seq, cfg)
        assert out1[0] == out2[0]
        assert [s.p_value for s in out1[1].steps] == [s.p_value for s in out2[1].steps]

    def test_recovers_order_one_memory(self):
        cfg = RunConfig(k_max=5, n_perm_selection=200, seed=0)
        hits = 0
        for s in range(5):
            seq = generate(persistence_spec(0.9), 5000,
                           seed=derive_seed(101, s))
            lags, _ = optimize_past_state(seq, cfg)
            hits += lags.lags == (1,)
        assert hits >= 4

    def test_recovers_planted_lag_two(self):
        cfg = RunConfig(k_max=5, n_perm_selection=200, seed=0)
        hits = 0
        for s in range(5):
            seq = generate(lagged_copy_spec(2, 0.9), 5000,
                           seed=derive_seed(202, s))
            lags, _ = optimize_past_state(seq, cfg)
            hits += 2 in lags.lags
        assert hits >= 4

    def test_memoryless_mostly_empty(self):
        cfg = RunConfig(k_max=5, n_perm_selection=200, seed=0)
        nonempty = 0
        for s in range(10):
            seq = generate(uniform_iid_spec(4), 3000, seed=derive_seed(303, s))
            lags, _ = optimize_past_state(seq, cfg)
            nonempty += bool(lags)
        assert nonempty <= 2


class TestEarlyStop:
    """Selection stops a rejected step's max-statistic test at the first
    surrogate row where failure is certain."""

    @staticmethod
    def _cases(count=210):
        rng = np.random.default_rng(2026)
        for i in range(count):
            m, k_max = int(rng.integers(2, 17)), int(rng.integers(3, 6))
            if i % 3 == 0:
                spec = persistence_spec(float(rng.uniform(0.5, 0.95)), m)
            elif i % 3 == 1:
                spec = lagged_copy_spec(int(rng.integers(1, 4)),
                                        float(rng.uniform(0.3, 0.9)), m)
            else:
                spec = uniform_iid_spec(m)
            seq = generate(spec, int(rng.integers(60, 301)), seed=derive_seed(2026, i))
            alpha = (0.05, 0.1)[i % 2]
            cfg = RunConfig(k_max=k_max, alpha=alpha,
                            n_perm_selection=int(rng.integers(19, 201)), seed=i)
            yield seq, cfg

    @staticmethod
    def _full_evaluation(monkeypatch):
        """Make selection evaluate every surrogate, as a direct call does."""
        run = embedding._run_tests

        def full(tests, n_perm, alpha=None):
            return run(tests, n_perm)
        monkeypatch.setattr(embedding, "_run_tests", full)

    def test_same_selections_as_full_evaluation(self, monkeypatch):
        cases = list(self._cases())
        stopped = [optimize_past_state(seq, cfg) for seq, cfg in cases]
        for elements in (1, 10 ** 9):  # one row per block; all rows in one
            with monkeypatch.context() as patch:
                patch.setattr(infocore, "SURROGATE_BLOCK_ELEMENTS", elements)
                assert [optimize_past_state(seq, cfg) for seq, cfg in cases] == stopped
        self._full_evaluation(monkeypatch)
        flagged = 0
        for (seq, cfg), (lags, trace) in zip(cases, stopped):
            full_lags, full_trace = optimize_past_state(seq, cfg)
            assert lags == full_lags
            assert len(trace.steps) == len(full_trace.steps)
            for step, full in zip(trace.steps, full_trace.steps):
                assert not full.p_is_lower_bound
                assert step.accepted == full.accepted
                if step.accepted:
                    assert step.p_value == full.p_value
                    assert not step.p_is_lower_bound
                else:
                    assert cfg.alpha < step.p_value <= full.p_value
                    # p is (1 + b*) / (n_perm + 1), b* the first count past alpha.
                    b = round(step.p_value * (cfg.n_perm_selection + 1)) - 1
                    assert (1.0 + b) / (cfg.n_perm_selection + 1.0) == step.p_value
                    assert b / (cfg.n_perm_selection + 1.0) <= cfg.alpha
                    if not step.p_is_lower_bound:
                        assert step.p_value == full.p_value
                flagged += step.p_is_lower_bound
        assert flagged > len(cases) // 2

    def test_rejected_step_stops_and_accepted_step_does_not(self, monkeypatch):
        # Binary steps draw their surrogates as tallies per state,
        # `infocore.COUNT_DRAW_ROWS` (25) at a time.
        drawn = []
        draws = infocore._state_count_draws

        def counted(rng, sizes, ones, count):
            drawn.append(0)
            for tallies in draws(rng, sizes, ones, count):
                drawn[-1] += tallies.shape[0]
                yield tallies
        monkeypatch.setattr(infocore, "_state_count_draws", counted)

        iid = generate(uniform_iid_spec(2), 300, seed=11)
        _, trace = optimize_past_state(
            iid, RunConfig(k_max=5, n_perm_selection=200, seed=1))
        assert [s.accepted for s in trace.steps] == [False]
        assert trace.steps[0].p_is_lower_bound
        assert len(drawn) == 1 and drawn[0] < 200

        drawn.clear()
        copy = generate(lagged_copy_spec(2, 0.9), 300, seed=12)
        _, trace = optimize_past_state(
            copy, RunConfig(k_max=5, n_perm_selection=200, seed=1))
        assert trace.steps[0].accepted and not trace.steps[0].p_is_lower_bound
        assert drawn[0] == 200

    def test_direct_call_without_alpha_evaluates_everything(self):
        series = embed(generate(uniform_iid_spec(2), 300, seed=11), (1, 2, 3), 3)
        tests = infocore._CmiTests.single(
            series.targets, [], [(col,) for col in series.pasts.T], 200,
            derive_rng(5, "max-stat-surrogate"))
        rows = [tests.observed]
        for _ in range(8):  # COUNT_DRAW_ROWS tallies a round
            [(_, cmis)] = tests.draw(np.ones(1, dtype=bool))
            rows.append(cmis[0])
        rows = np.concatenate(rows)
        assert rows.shape == (201, 3)
        p_rows = (1.0 + np.cumsum(rows[1:].max(axis=1) >= rows[0].max())) / 201.0
        stop = int(np.argmax(p_rows > 0.05))  # the first row past alpha
        assert 0 < stop < 199
        cmis, full = max_statistic_test((1, 2, 3), series, 200, seed=5)
        assert cmis == dict(zip((1, 2, 3), rows[0].tolist()))
        assert full.evaluated == 200 and full.p_value == p_rows[-1]
        _, bounded = max_statistic_test((1, 2, 3), series, 200, seed=5, alpha=0.05)
        assert bounded.evaluated == stop + 1 and bounded.p_value == p_rows[stop]
