import itertools

import numpy as np
import pytest

from gazeais import SymbolSequence, embed, independent_samples_permutation_test
from gazeais import test_final_ais as final_ais_test


class TestFinalAis:
    def test_deterministic_cycle_minimal_p(self):
        seq = SymbolSequence(np.arange(101) % 4, 4)
        series = embed(seq, (1,), 1)
        result = final_ais_test(series, n_perm=99, seed=2)
        assert result.p_value == pytest.approx(1.0 / 100.0)

    def test_constant_target_p_one(self):
        # Zero observed information; every surrogate ties it under >=.
        seq = SymbolSequence(np.zeros(60, dtype=int), 2)
        series = embed(seq, (1,), 1)
        result = final_ais_test(series, n_perm=50, seed=2)
        assert result.observed_statistic == pytest.approx(0.0, abs=1e-12)
        assert result.p_value == 1.0

    def test_rerun_identical(self):
        rng = np.random.default_rng(6)
        seq = SymbolSequence(rng.integers(0, 3, size=400), 3)
        series = embed(seq, (1, 2), 2)
        r1 = final_ais_test(series, n_perm=80, seed=11)
        r2 = final_ais_test(series, n_perm=80, seed=11)
        assert r1 == r2

    def test_calibration_on_iid(self):
        # One-sided test on memoryless data stays near its nominal level.
        rejections = 0
        runs = 60
        for s in range(runs):
            rng = np.random.default_rng(1000 + s)
            seq = SymbolSequence(rng.integers(0, 4, size=300), 4)
            series = embed(seq, (1,), 1)
            result = final_ais_test(series, n_perm=99, seed=s)
            rejections += result.p_value <= 0.05
        bound = 0.05 + 3 * np.sqrt(0.05 * 0.95 / runs)
        assert rejections / runs <= bound


class TestIndependentSamples:
    def test_identical_groups(self):
        result = independent_samples_permutation_test(
            [1.0, 2.0, 3.0], [1.0, 2.0, 3.0], n_perm=200, seed=0)
        assert result.observed_statistic == 0.0
        assert result.p_value == 1.0

    def test_exact_enumeration_oracle(self):
        # All C(6,3)=20 splits of (10,10,10|0,0,0): only the original split
        # and its mirror reach |diff| = 10, so the exact two-sided p is 0.1.
        a, b = [10.0, 10.0, 10.0], [0.0, 0.0, 0.0]
        pooled = a + b
        obs = abs(np.mean(a) - np.mean(b))
        exceed = sum(
            1 for idx in itertools.combinations(range(6), 3)
            if abs(np.mean([pooled[i] for i in idx])
                   - np.mean([pooled[i] for i in range(6) if i not in idx])) >= obs
        )
        assert exceed / 20.0 == pytest.approx(0.1)
        result = independent_samples_permutation_test(a, b, n_perm=4000,
                                                      tail="two_sided", seed=3)
        assert result.p_value == pytest.approx(0.1, abs=0.02)

    def test_seeded_determinism(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=10).tolist()
        b = rng.normal(size=12).tolist()
        r1 = independent_samples_permutation_test(a, b, 500, "two_sided", seed=5)
        r2 = independent_samples_permutation_test(a, b, 500, "two_sided", seed=5)
        assert r1 == r2

    def test_exchangeability(self):
        # Swapping the groups flips the observed sign and leaves the
        # two-sided p unchanged, exactly, including for unequal sizes.
        rng = np.random.default_rng(14)
        a = rng.normal(0.3, 1.0, size=9).tolist()
        b = rng.normal(0.0, 1.0, size=13).tolist()
        ab = independent_samples_permutation_test(a, b, 400, "two_sided", seed=7)
        ba = independent_samples_permutation_test(b, a, 400, "two_sided", seed=7)
        assert ab.observed_statistic == pytest.approx(-ba.observed_statistic, abs=1e-15)
        assert ab.p_value == ba.p_value

    def test_p_value_bounds(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            a = rng.normal(size=rng.integers(2, 8)).tolist()
            b = rng.normal(size=rng.integers(2, 8)).tolist()
            n_perm = int(rng.integers(10, 200))
            for tail in ("two_sided", "greater", "less"):
                result = independent_samples_permutation_test(
                    a, b, n_perm, tail, seed=int(rng.integers(1 << 30)))
                assert 1.0 / (n_perm + 1) <= result.p_value <= 1.0

    def test_tail_conventions(self):
        a = [5.0, 6.0, 7.0]
        b = [0.0, 1.0, 2.0]
        greater = independent_samples_permutation_test(a, b, 400, "greater", seed=1)
        less = independent_samples_permutation_test(a, b, 400, "less", seed=1)
        assert greater.p_value < 0.2
        assert less.p_value > 0.8

    def test_non_finite_statistic_error(self):
        # nan >= x is always False, so a nan statistic would read as p = 1/(n_perm + 1).
        for group_a, tail in (([1.0, np.nan, 2.0], "two_sided"),
                              ([1.0, np.inf, 2.0], "greater"),
                              ([1.0, -np.inf, 2.0], "less")):
            with pytest.raises(ValueError, match="finite"):
                independent_samples_permutation_test(group_a, [0.5, 0.7, 0.9],
                                                     999, tail, seed=1)

    def test_empty_group_error(self):
        with pytest.raises(ValueError, match="nonempty"):
            independent_samples_permutation_test([], [1.0], 10, seed=0)

    def test_monte_carlo_converges_to_exact(self):
        # Compare against exhaustive enumeration for a small uneven case.
        rng = np.random.default_rng(33)
        a = rng.normal(0.5, 1.0, size=4).tolist()
        b = rng.normal(0.0, 1.0, size=3).tolist()
        pooled = np.asarray(a + b)
        obs = abs(np.mean(a) - np.mean(b))
        n = len(pooled)
        splits = list(itertools.combinations(range(n), len(a)))
        exceed = 0
        for idx in splits:
            mask = np.zeros(n, dtype=bool)
            mask[list(idx)] = True
            if abs(pooled[mask].mean() - pooled[~mask].mean()) >= obs - 1e-12:
                exceed += 1
        exact = exceed / len(splits)
        mc = independent_samples_permutation_test(a, b, 10_000, "two_sided", seed=9)
        assert mc.p_value == pytest.approx(exact, abs=0.02)
