import itertools

import numpy as np
import pytest

from gazeais import SymbolSequence, embed, independent_samples_permutation_test
from gazeais import test_final_ais as final_ais_test
from gazeais.infocore import _permutation_blocks
from gazeais.rng import derive_rng
from gazeais.stats import TAILS, _permutation_p


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


def sorted_parts_test(group_a, group_b, n_perm, tail, seed):
    """(observed, p): the contrast with every surrogate row's two parts
    sorted and averaged, the statistic's definition, as a reference for
    the filtered test."""
    a = np.asarray(group_a, dtype=np.float64)
    b = np.asarray(group_b, dtype=np.float64)

    def statistic(first, second):
        return np.sort(first, axis=1).mean(axis=1) - np.sort(second, axis=1).mean(axis=1)

    observed = float(statistic(a[None], b[None])[0])
    pooled = np.sort(np.concatenate([a, b]))
    k = min(a.size, b.size) if tail == "two_sided" else a.size
    oriented = {"greater": np.positive, "less": np.negative,
                "two_sided": np.abs}[tail]
    blocks = (oriented(statistic(shuffled[:, :k], shuffled[:, k:]))
              for shuffled in _permutation_blocks(
                  derive_rng(seed, "ind-samples-surrogate"), pooled, n_perm,
                  pooled.size))
    return observed, _permutation_p(oriented(observed), blocks, n_perm)[0]


def _groups(case):
    rng = np.random.default_rng(61)
    normal = rng.normal(size=30)
    return {
        # Values on a 0.1 grid: many surrogates tie the observed difference.
        "rounded-ties": (np.round(normal[:9], 1), np.round(normal[9:16], 1)),
        "rounded-equal-sizes": (np.round(normal[:8], 1), np.round(normal[8:16], 1)),
        "constant-pool": ([2.5] * 5, [2.5] * 6),
        "n-2": ([1.0], [3.0]),
        "one-against-many": ([0.3], normal[:20]),
        "many-against-one": (normal[:20], [0.3]),
        "signed-zeros": ([0.0, -0.0, 0.0], [-0.0, 0.0, -0.0, 0.0]),
        "near-1e300": (normal[:7] * 1e300, normal[7:15] * 1e300),
        "ties-near-1e300": (np.round(normal[:6]) * 1e300,
                            np.round(normal[6:12]) * 1e300),
        "subnormal": (normal[:7] * 1e-310, normal[7:15] * 1e-310),
        "subnormal-ties": (np.round(normal[:6]) * 1e-310,
                           np.round(normal[6:12]) * 1e-310),
    }[case]


class TestNearObservedFilter:
    """Rows far from the observed value are decided by one product and the
    rest by the sorted parts; p and the observed difference must equal
    those of sorting every row."""

    @pytest.mark.parametrize("tail", TAILS)
    @pytest.mark.parametrize("case", [
        "rounded-ties", "rounded-equal-sizes", "constant-pool", "n-2",
        "one-against-many", "many-against-one", "signed-zeros", "near-1e300",
        "ties-near-1e300", "subnormal", "subnormal-ties"])
    def test_equals_sorting_every_row(self, case, tail):
        a, b = _groups(case)
        for seed in range(3):
            result = independent_samples_permutation_test(a, b, 2000, tail, seed)
            observed, p = sorted_parts_test(a, b, 2000, tail, seed)
            assert result.observed_statistic.hex() == observed.hex()
            assert result.p_value == p
            assert result.evaluated == 2000

    def test_random_groups_equal_sorting_every_row(self):
        rng = np.random.default_rng(62)
        for i in range(150):
            sizes = rng.integers(1, 25, size=2)
            scale = 10.0 ** rng.choice([-310, -3, 0, 300])
            a, b = (rng.normal(size=size) * scale for size in sizes)
            if i % 2:
                a, b = np.round(a / scale, 1) * scale, np.round(b / scale, 1) * scale
            tail = TAILS[i % 3]
            result = independent_samples_permutation_test(a, b, 300, tail, i)
            observed, p = sorted_parts_test(a, b, 300, tail, i)
            assert (result.observed_statistic.hex(), result.p_value) == (observed.hex(), p)
