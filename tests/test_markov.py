import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from gazeais import (MarkovSpec, analytic_ais,
                     analytic_entropy, analytic_gte, cycle_spec, derive_seed,
                     generate, lagged_copy_spec, persistence_spec,
                     stationary_distribution, uniform_iid_spec)
from gazeais.markov import _check_irreducible


def binary_entropy(p):
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


class TestMarkovSpec:
    def test_validates_row_sums(self):
        with pytest.raises(ValueError, match="sum"):
            MarkovSpec(1, 2, {(0,): [0.5, 0.4], (1,): [0.5, 0.5]})

    def test_validates_nan(self):
        with pytest.raises(ValueError, match="sum to nan"):
            MarkovSpec(1, 2, {(0,): [math.nan, 1.0], (1,): [0.5, 0.5]})

    def test_validates_coverage(self):
        with pytest.raises(ValueError, match="covers"):
            MarkovSpec(1, 2, {(0,): [0.5, 0.5]})

    def test_validates_negative(self):
        with pytest.raises(ValueError, match="negative"):
            MarkovSpec(1, 2, {(0,): [1.1, -0.1], (1,): [0.5, 0.5]})

    @pytest.mark.parametrize("args, message", [
        ((1.7, 2), "order must be a whole number, got 1.7"),
        ((1, 2.9), "alphabet_size must be a whole number, got 2.9"),
        ((True, 2), "order must be a whole number, got True"),
    ], ids=["order", "alphabet_size", "bool_order"])
    def test_fractional_sizes_rejected(self, args, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            MarkovSpec(*args, {(0,): [0.5, 0.5], (1,): [0.5, 0.5]})

    def test_fractional_history_symbol_rejected(self):
        with pytest.raises(ValueError, match=re.escape(
                "history (0.5,): symbol must be a whole number, got 0.5")):
            MarkovSpec(1, 2, {(0.5,): [0.5, 0.5], (1,): [0.5, 0.5]})

    def test_duplicate_history_rejected(self):
        # Equal tuples such as (1,) and (1.0,) are one dict key already;
        # distinct keys can still name the same history.
        with pytest.raises(ValueError, match=re.escape(
                "history keys (1,) and range(1, 2) both name history (1,)")):
            MarkovSpec(1, 2, {(0,): [0.5, 0.5], (1,): [0.5, 0.5],
                              range(1, 2): [0.1, 0.9]})

    def test_whole_floats_accepted(self):
        spec = MarkovSpec(1.0, np.int64(2), {(0.0,): [0.5, 0.5], (1,): [0.5, 0.5]})
        assert (spec.order, spec.alphabet_size) == (1, 2)
        assert type(spec.order) is int and set(spec.transition) == {(0,), (1,)}

    @pytest.mark.parametrize("vec", [["a", 1], [0.5, "0.5"], [True, False],
                                     [0.5, None], [[0.5], 0.5]],
                             ids=["letter", "string", "bool", "null", "ragged"])
    def test_non_numeric_probability_names_history(self, vec):
        with pytest.raises(ValueError, match=re.escape(
                "history (0,): probabilities must be numbers")):
            MarkovSpec(1, 2, {(0,): vec, (1,): [0.5, 0.5]})

    def test_json_round_trip(self):
        spec = lagged_copy_spec(2, 0.8, m=3)
        again = MarkovSpec.from_json_dict(spec.to_json_dict())
        assert again.order == spec.order
        assert again.alphabet_size == spec.alphabet_size
        for hist, vec in spec.transition.items():
            assert np.allclose(again.transition[hist], vec)

    def test_order_zero_key(self):
        spec = uniform_iid_spec(3)
        doc = spec.to_json_dict()
        assert list(doc["transition"].keys()) == [""]
        assert MarkovSpec.from_json_dict(doc).order == 0

    def test_rows_follow_product_order(self):
        spec = lagged_copy_spec(2, 0.8, m=3)
        hists = list(itertools.product(range(3), repeat=2))
        assert np.array_equal(spec.rows, [spec.transition[h] for h in hists])
        iid = MarkovSpec(0, 3, {(): [0.2, 0.5, 0.3]})
        assert np.array_equal(iid.rows, [[0.2, 0.5, 0.3]] * 3)

    @pytest.mark.parametrize("doc, message", [
        ({"order": 1, "alphabet_size": 2}, "missing field 'transition'"),
        ({"order": 1.7, "alphabet_size": 2, "transition": {}},
         "order must be a whole number, got 1.7"),
        ({"order": 1, "alphabet_size": True, "transition": {}},
         "alphabet_size must be a whole number, got True"),
        ({"order": 1, "alphabet_size": 2, "transition": {"x": [1.0, 0.0]}},
         "history key 'x' must be comma-separated symbol ids"),
        ({"order": 1, "alphabet_size": 2, "transition": [[1.0, 0.0]]},
         "transition must be a JSON object, got list"),
        ({"order": 1, "alphabet_size": 2, "transition": {"0": {"a": 1}}},
         "history '0' must be a list, got dict"),
        ([1, 2], "expected a JSON object, got list"),
        ({"order": 1, "alphabet_size": 2, "transition":
          {"0": [0.5, 0.5], "1": [0.5, 0.5], "01": [0.1, 0.9]}},
         "history keys '1' and '01' both name history (1,)"),
    ])
    def test_malformed_json_rejected(self, doc, message):
        with pytest.raises(ValueError, match=f"Markov spec: {re.escape(message)}"):
            MarkovSpec.from_json_dict(doc)


class TestGenerate:
    def test_deterministic_cycle_output(self):
        seq = generate(cycle_spec(4), 12, seed=0, burn_in=5)
        diffs = np.diff(seq.symbols) % 4
        assert np.all(diffs == 1)

    def test_iid_frequencies(self):
        n = 10_000
        seq = generate(uniform_iid_spec(4), n, seed=1)
        counts = np.bincount(seq.symbols, minlength=4)
        sd = math.sqrt(n * 0.25 * 0.75)
        assert np.all(np.abs(counts - n / 4) <= 3 * sd)

    def test_same_seed_same_sequence(self):
        a = generate(persistence_spec(0.7), 500, seed=42)
        b = generate(persistence_spec(0.7), 500, seed=42)
        assert np.array_equal(a.symbols, b.symbols)

    def test_length_validated(self):
        with pytest.raises(ValueError, match="length"):
            generate(uniform_iid_spec(2), 0, seed=0)


class TestStationaryDistribution:
    def test_symmetric_binary(self):
        pi = stationary_distribution(persistence_spec(0.9))
        assert np.allclose(pi, [0.5, 0.5], atol=1e-12)

    def test_order_zero_returns_the_vector(self):
        spec = MarkovSpec(0, 3, {(): [0.2, 0.5, 0.3]})
        pi = stationary_distribution(spec)
        assert np.allclose(pi, [0.2, 0.5, 0.3], atol=1e-12)

    def test_doubly_stochastic_uniform(self):
        rows = {
            (0,): [0.5, 0.25, 0.25],
            (1,): [0.25, 0.5, 0.25],
            (2,): [0.25, 0.25, 0.5],
        }
        pi = stationary_distribution(MarkovSpec(1, 3, rows))
        assert np.allclose(pi, [1 / 3] * 3, atol=1e-12)

    def test_periodic_chain_still_has_stationary(self):
        # A deterministic cycle is periodic; the half-lazy kernel converges
        # to its (uniform) stationary distribution anyway.
        pi = stationary_distribution(cycle_spec(5))
        assert np.allclose(pi, [0.2] * 5, atol=1e-10)

    def test_reducible_chain_rejected(self):
        rows = {(0,): [1.0, 0.0], (1,): [0.0, 1.0]}  # two absorbing states
        with pytest.raises(ValueError, match="reducible"):
            stationary_distribution(MarkovSpec(1, 2, rows))

    def test_order_zero_zero_probability_rejected(self):
        # Symbol 2 never occurs, so the lifted history 2 is never entered.
        with pytest.raises(ValueError, match="reducible"):
            stationary_distribution(MarkovSpec(0, 3, {(): [0.5, 0.5, 0.0]}))

    def test_absorbing_history_rejected(self):
        rows = {(0, 0): [1.0, 0.0], (0, 1): [0.5, 0.5],
                (1, 0): [0.5, 0.5], (1, 1): [0.5, 0.5]}  # (0, 0) absorbs
        with pytest.raises(ValueError, match="reducible"):
            stationary_distribution(MarkovSpec(2, 2, rows))

    def test_reachability_matches_transitive_closure(self):
        # Oracle: the boolean closure of the dense history graph, built
        # from the transition dict.
        rng = np.random.default_rng(5)
        verdicts = set()
        for order, m in [(1, 2), (1, 4), (2, 2), (2, 3), (3, 2)] * 8:
            transition = {}
            for hist in itertools.product(range(m), repeat=order):
                vec = rng.random(m) * (rng.random(m) < 0.6)
                vec[rng.integers(m)] += 0.1
                transition[hist] = vec / vec.sum()
            hists = list(transition)
            index = {h: i for i, h in enumerate(hists)}
            reach = np.eye(len(hists), dtype=bool)
            for h, vec in transition.items():
                for a in np.flatnonzero(vec):
                    reach[index[h], index[h[1:] + (int(a),)]] = True
            for _ in range(len(hists)):
                reach = reach | ((reach.astype(int) @ reach.astype(int)) > 0)
            strongly = bool(reach.all())
            verdicts.add(strongly)
            spec = MarkovSpec(order, m, transition)
            if strongly:
                pi = stationary_distribution(spec)
                assert abs(pi.sum() - 1.0) < 1e-12
            else:
                with pytest.raises(ValueError, match="reducible"):
                    stationary_distribution(spec)
        assert verdicts == {True, False}

    def test_long_cycle(self):
        # A de Bruijn cycle passes through all 2^10 histories in one loop,
        # so each search step finds one new history. Redirecting one
        # history's only edge leaves another history with no predecessor.
        n = 10
        seq, seen = [0] * n, {(0,) * n}
        while True:
            window = tuple(seq[len(seq) - n + 1:])
            nxt = next((a for a in (1, 0) if window + (a,) not in seen), None)
            if nxt is None:
                break
            seen.add(window + (nxt,))
            seq.append(nxt)
        cyc = seq[:2 ** n]
        transition = {
            tuple(cyc[(i + j) % 2 ** n] for j in range(n)):
                np.eye(2)[cyc[(i + n) % 2 ** n]] for i in range(2 ** n)}
        _check_irreducible(MarkovSpec(n, 2, transition).rows)
        transition[(1,) * n] = transition[(1,) * n][::-1]
        with pytest.raises(ValueError, match="reducible"):
            _check_irreducible(MarkovSpec(n, 2, transition).rows)

    def test_fixed_point_property(self):
        spec = lagged_copy_spec(2, 0.85, m=2)
        pi = stationary_distribution(spec)
        rows = spec.rows
        n_states = rows.shape[0]
        mod = n_states // 2
        advanced = np.zeros(n_states)
        for h in range(n_states):
            for a in range(2):
                advanced[(h % mod) * 2 + a] += pi[h] * rows[h, a]
        assert np.abs(advanced - pi).sum() < 1e-10


class TestAnalyticValues:
    def test_cycle_ais(self):
        for m in (2, 3, 4, 6):
            assert analytic_ais(cycle_spec(m), (1,)) == pytest.approx(math.log2(m), abs=1e-12)

    def test_iid_zero_ais(self):
        assert analytic_ais(uniform_iid_spec(4), (1,)) == pytest.approx(0.0, abs=1e-12)
        assert analytic_ais(uniform_iid_spec(4), (1, 3, 5)) == pytest.approx(0.0, abs=1e-12)

    def test_persistence_closed_form(self):
        spec = persistence_spec(0.9)
        assert analytic_ais(spec, (1,)) == pytest.approx(1 - binary_entropy(0.9), abs=1e-12)
        assert analytic_gte(spec) == pytest.approx(binary_entropy(0.9), abs=1e-12)

    def test_cycle_gte_zero(self):
        assert analytic_gte(cycle_spec(4)) == pytest.approx(0.0, abs=1e-12)

    def test_iid_gte(self):
        assert analytic_gte(uniform_iid_spec(4)) == pytest.approx(2.0, abs=1e-12)

    def test_complementarity_for_order_one(self):
        for spec in (persistence_spec(0.8), persistence_spec(0.6, m=3), cycle_spec(4)):
            h = analytic_entropy(spec)
            assert analytic_ais(spec, (1,)) + analytic_gte(spec) == pytest.approx(h, abs=1e-12)

    def test_lagged_copy_marginal_independence(self):
        # Even and odd sub-chains are independent, so lag 1 alone is useless
        # while lag 2 carries the full memory.
        spec = lagged_copy_spec(2, 0.9)
        assert analytic_ais(spec, (1,)) == pytest.approx(0.0, abs=1e-12)
        assert analytic_ais(spec, (2,)) == pytest.approx(1 - binary_entropy(0.9), abs=1e-12)

    def test_monotone_in_lags(self):
        spec = lagged_copy_spec(2, 0.85)
        a1 = analytic_ais(spec, (1,))
        a12 = analytic_ais(spec, (1, 2))
        a123 = analytic_ais(spec, (1, 2, 3))
        assert a1 <= a12 + 1e-12
        assert abs(a12 - a123) < 1e-9  # full order reached at {1, 2}

    def test_full_order_equals_entropy_minus_transition(self):
        spec = persistence_spec(0.75, m=3)
        ais = analytic_ais(spec, (1,))
        assert ais == pytest.approx(analytic_entropy(spec) - analytic_gte(spec), abs=1e-12)

    def test_empty_lags_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            analytic_ais(persistence_spec(0.9), ())

    def test_nonpositive_lags_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            analytic_ais(persistence_spec(0.9), (0, 1))

    def test_memory_grows_with_rows_not_history_pairs(self):
        # 16^3 histories: a dense history-to-history operator alone would
        # hold 16^6 float64s (128 MiB).
        spec = lagged_copy_spec(3, 0.6, m=16)
        tracemalloc.start()
        try:
            value = analytic_ais(spec, (1, 2, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        assert value == pytest.approx(1.4662931673019877, abs=1e-12)


class TestEstimatorConvergence:
    def test_median_error_shrinks(self):
        spec = persistence_spec(0.9)
        target = analytic_ais(spec, (1,))
        from gazeais import active_information_storage
        medians = []
        for n in (1000, 10_000):
            errs = []
            for s in range(10):
                seq = generate(spec, n, seed=derive_seed(9, n, s))
                errs.append(abs(active_information_storage(seq, (1,), 1).plugin_value - target))
            medians.append(float(np.median(errs)))
        assert medians[1] <= medians[0]
