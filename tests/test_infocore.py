import math
import tracemalloc

import numpy as np
import pytest

from gazeais import (SymbolSequence, active_information_storage, embed,
                     gaze_transition_entropy, independent_samples_permutation_test,
                     max_statistic_test, next_symbol_entropy)
from gazeais import infocore
from gazeais import test_final_ais as final_ais_test
from gazeais.infocore import _CmiTests, row_estimates
from gazeais.stats import TAILS, _permutation_p
from gazeais.validate import dense_counts, dense_entropy, dense_estimate

LN2 = math.log(2.0)
TOL = 1e-12


def binary_entropy(p):
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


def rows_from_counts(counts):
    """One integer row per observation tallied in the table `counts`."""
    counts = np.asarray(counts)
    cells = np.indices(counts.shape).reshape(counts.ndim, -1).T
    return np.repeat(cells, counts.ravel(), axis=0)


def h_next(symbols, alphabet_size=None):
    """H(X_t) over a whole symbol list (no embedding offset)."""
    symbols = np.asarray(symbols)
    m = alphabet_size or int(symbols.max()) + 1
    return next_symbol_entropy(SymbolSequence(symbols, m), 0)


def mi(a, b):
    return _CmiTests.single(a, [], [(b,)]).observed[0, 0]


def cmi(a, b, c):
    return _CmiTests.single(a, [c], [(b,)]).observed[0, 0]


def cmi_rows(target, cond, cands, n_perm=0, rng=None):
    """Row 0 and then every surrogate row of one `_CmiTests` test, drawn
    round by round to its last: shape (n_perm + 1, candidates)."""
    tests = _CmiTests.single(target, cond, cands, n_perm, rng)
    rows = [tests.observed]
    is_open = np.array([n_perm > 0])
    while is_open[0]:
        for ids, cmis in tests.draw(is_open):
            assert ids.tolist() == [0]
            rows.append(cmis[0])
            is_open[0] = sum(map(len, rows)) <= n_perm
    return np.concatenate(rows)


class TestEmpiricalDistribution:
    """The dense tally behind the `validate` oracle."""

    def test_single_observation(self):
        assert dense_entropy(np.array([[0, 1]]), (0, 1)) == (0.0, 1)

    def test_direct_tally(self):
        h, cells = dense_entropy(np.array([[0], [0], [1]]), (0,))
        assert h == pytest.approx(binary_entropy(1 / 3), abs=TOL)
        assert cells == 2

    def test_uniform_tally(self):
        rows = np.array([(a, b) for a in range(2) for b in range(2)] * 2)
        h, cells = dense_entropy(rows, (0, 1))
        assert h == pytest.approx(2.0, abs=TOL)
        assert cells == 4


class TestEntropy:
    """H(X_t) on the embedded targets."""

    def test_uniform_four_symbols(self):
        assert h_next(range(4)).plugin_value == pytest.approx(2.0, abs=TOL)

    def test_degenerate(self):
        est = h_next([1] * 10, 3)
        assert est.plugin_value == 0.0
        assert math.copysign(1.0, est.plugin_value) == 1.0

    def test_dyadic(self):
        assert h_next([0, 0, 1, 2]).plugin_value == pytest.approx(1.5, abs=TOL)

    def test_corrected_value_relation(self):
        est = h_next([0, 0, 0, 1])
        assert est.corrected_value == est.plugin_value + est.bias_correction
        assert est.kind == "entropy" and est.sample_count == 4

    def test_offset_drops_leading_rows(self):
        est = next_symbol_entropy(SymbolSequence([0, 1, 2, 3, 3, 3], 4), 3)
        assert est.plugin_value == 0.0 and est.sample_count == 3


class TestConditionalEntropy:
    """H(X_t | X_{t-1}), i.e. GTE, on sequences with planted pair counts."""

    def test_independent_uniform(self):
        # (0, 0, 1, 1, 0) holds each (x_{t-1}, x_t) pair once.
        est = gaze_transition_entropy(SymbolSequence([0, 0, 1, 1, 0], 2))
        assert est.plugin_value == pytest.approx(1.0, abs=TOL)

    def test_functional_dependence(self):
        seq = SymbolSequence([0, 1] * 8, 2)
        assert gaze_transition_entropy(seq).plugin_value == pytest.approx(0.0, abs=TOL)

    def test_hand_tally(self):
        # Pairs (x_{t-1}, x_t): (0,0) x3, (0,1) x1, (1,1) x3, (1,0) x1, so
        # the pair counts are [[3, 1], [1, 3]]; chain rule by hand.
        seq = SymbolSequence([0, 0, 0, 0, 1, 1, 1, 1, 0], 2)
        n = 8.0
        h_joint = -sum(c / n * math.log2(c / n) for c in (3, 1, 1, 3))
        h_y = -sum(c / n * math.log2(c / n) for c in (4, 4))
        est = gaze_transition_entropy(seq)
        assert est.plugin_value == pytest.approx(h_joint - h_y, abs=TOL)


class TestMutualInformation:
    """The CMI kernel's observed row with no conditioning columns."""

    def test_product_form_zero(self):
        # p(x, y) = p(x) p(y) exactly.
        rows = rows_from_counts(np.outer([1, 3], [2, 2]))
        assert abs(mi(rows[:, 0], rows[:, 1])) < TOL

    def test_identity_coupling(self):
        rows = rows_from_counts(np.diag([2, 2]))
        assert mi(rows[:, 0], rows[:, 1]) == pytest.approx(1.0, abs=TOL)

    def test_hand_tally(self):
        rows = rows_from_counts([[3, 1], [1, 3]])
        n = 8.0
        h_x = -sum(c / n * math.log2(c / n) for c in (4, 4))
        h_y = h_x
        h_joint = -sum(c / n * math.log2(c / n) for c in (3, 1, 1, 3))
        assert mi(rows[:, 0], rows[:, 1]) == pytest.approx(h_x + h_y - h_joint, abs=TOL)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        counts = rng.integers(0, 5, size=(3, 4))
        counts[0, 0] += 1
        rows = rows_from_counts(counts)
        assert mi(rows[:, 0], rows[:, 1]) == pytest.approx(
            mi(rows[:, 1], rows[:, 0]), abs=TOL)


class TestConditionalMutualInformation:
    def test_empty_conditioning_reduces_to_mi(self):
        rng = np.random.default_rng(11)
        counts = rng.integers(0, 4, size=(3, 3))
        counts[0, 0] += 1
        rows = rows_from_counts(counts)
        a, b = rows[:, 0], rows[:, 1]
        oracle, _ = dense_estimate(rows, ((0,), 1), ((1,), 1), ((0, 1), -1))
        assert mi(a, b) == pytest.approx(oracle, abs=TOL)
        assert cmi(a, b, np.zeros_like(a)) == pytest.approx(mi(a, b), abs=TOL)

    def test_conditioning_on_copy_kills_information(self):
        # Column 2 duplicates column 0, so A carries nothing beyond C about B.
        rows = np.array([(a, (a + b) % 2, a) for a in range(2) for b in range(2)])
        assert abs(cmi(rows[:, 0], rows[:, 1], rows[:, 2])) < TOL

    def test_xor_structure(self):
        # B = A xor C with uniform inputs: I(A;B) = 0 but I(A;B|C) = 1.
        rows = np.array([(a, a ^ c, c) for a in range(2) for c in range(2)])
        assert abs(mi(rows[:, 0], rows[:, 1])) < TOL
        assert cmi(rows[:, 0], rows[:, 1], rows[:, 2]) == pytest.approx(1.0, abs=TOL)


class TestBiasCorrection:
    def test_single_occupied_bin(self):
        assert h_next([0] * 5, 3).bias_correction == 0.0

    def test_uniform_binary_formula(self):
        assert h_next([0, 1]).bias_correction == pytest.approx(1 / (4 * LN2), abs=TOL)

    def test_mi_combines_marginals(self):
        # AIS's correction is c_t + c_past - c_joint, each (R - 1) / (2 N ln 2)
        # for R occupied cells, counted here by hand on the embedded rows.
        seq = SymbolSequence(np.random.default_rng(5).integers(0, 3, 40), 3)
        series = embed(seq, (1, 2), 2)
        n = series.n_rows

        def c(cols):
            return (len({tuple(r) for r in cols.tolist()}) - 1) / (2 * n * LN2)

        rows = np.column_stack([series.targets, series.pasts])
        expected = c(rows[:, :1]) + c(rows[:, 1:]) - c(rows)
        est = active_information_storage(seq, (1, 2), 2)
        assert est.bias_correction == pytest.approx(expected, abs=TOL)

    def test_monte_carlo_improvement(self):
        # Undersampled uniform source: the corrected entropy must be closer
        # to the true 2 bits on average than the raw plug-in.
        rng = np.random.default_rng(99)
        plugin_err, corrected_err = [], []
        for _ in range(400):
            est = h_next(rng.integers(0, 4, size=50), 4)
            plugin_err.append(abs(est.plugin_value - 2.0))
            corrected_err.append(abs(est.corrected_value - 2.0))
        assert np.mean(corrected_err) < np.mean(plugin_err)


class TestActiveInformationStorage:
    def test_deterministic_cycle(self):
        # 101 symbols make the embedded rows exactly uniform over the cycle.
        seq = SymbolSequence(np.arange(101) % 4, 4)
        est = active_information_storage(seq, (1,), 1)
        assert est.plugin_value == pytest.approx(2.0, abs=TOL)
        h_t = next_symbol_entropy(seq, 1).plugin_value
        assert est.plugin_value / h_t == pytest.approx(1.0, abs=TOL)

    def test_constant_sequence(self):
        seq = SymbolSequence(np.zeros(50, dtype=int), 2)
        assert active_information_storage(seq, (1,), 1).plugin_value == pytest.approx(0.0, abs=TOL)

    def test_closed_form_chain(self):
        from gazeais import generate, persistence_spec
        expected = 1.0 - binary_entropy(0.9)
        seq = generate(persistence_spec(0.9), 100_000, seed=20)
        est = active_information_storage(seq, (1,), 1)
        assert est.plugin_value == pytest.approx(expected, abs=0.01)

    def test_empty_lags_error(self):
        seq = SymbolSequence([0, 1, 0, 1], 2)
        with pytest.raises(ValueError, match="nonempty"):
            active_information_storage(seq, (), 1)


class TestLargeAlphabets:
    """AIS counts only occupied states, so memory follows the row count."""

    def test_memory_stays_small_at_sixteen_symbols(self):
        # A dense joint table over lags 1..5 would hold 16^6 cells.
        seq = SymbolSequence(np.random.default_rng(16).integers(0, 16, 300), 16)
        tracemalloc.start()
        try:
            active_information_storage(seq, range(1, 6), 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_state_codes_do_not_overflow(self):
        # 300^5 joint cells: no dense table, and no int64 mixed-radix code.
        seq = SymbolSequence(np.random.default_rng(300).integers(0, 300, 400), 300)
        est = active_information_storage(seq, (1, 2, 3, 4), 4)
        assert math.isfinite(est.corrected_value)

    def test_gte_memory_follows_rows(self):
        # A dense transition table over 3000 symbols would hold 3000^2 cells.
        seq = SymbolSequence(np.random.default_rng(3000).integers(0, 3000, 300), 3000)
        tracemalloc.start()
        try:
            est = gaze_transition_entropy(seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(est.corrected_value)
        assert peak < 2 ** 20

    def test_sparse_surrogate_tables_counted_by_sort(self):
        # Dense tables of one surrogate row would hold 5 groups x 300 target
        # codes x up to 3000 states; counting by sort keeps the block bound.
        seq = SymbolSequence(np.random.default_rng(300).integers(0, 300, 3000), 300)
        series = embed(seq, (1, 2, 3, 4, 5), 5)
        tracemalloc.start()
        try:
            _, result = max_statistic_test((2, 3, 4, 5), series, 200, seed=7,
                                           selected=(1,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20
        assert result.p_value == 9 / 201  # the value dense counting gives

    def test_equals_table_estimator_bit_for_bit(self):
        # AIS, H(X_t) and GTE against the dense tally of `validate`, each
        # entropy summed as (n log2 n - sum c log2 c) / n in the fixed-point
        # terms of `_clogc`: the same counts give the same floats.
        def fields(est):
            return (est.plugin_value, est.bias_correction, est.corrected_value,
                    est.sample_count)

        def oracle(rows, *terms):
            n = len(rows)
            clogc, scale = infocore._clogc(n)
            plugin = sum(sign * (int(clogc[n]) - int(clogc[dense_counts(rows, cols)].sum()))
                         for cols, sign in terms) / (scale * n)
            corr = dense_estimate(rows, *terms)[1]
            return plugin, corr, plugin + corr, n

        rng = np.random.default_rng(17)
        for _ in range(60):
            m = int(rng.integers(1, 6))
            lags = tuple(sorted(rng.choice(np.arange(1, 5), size=int(rng.integers(1, 5)),
                                           replace=False).tolist()))
            k = max(lags) + int(rng.integers(0, 2))
            weights = rng.dirichlet(np.full(m, 0.5))
            seq = SymbolSequence(rng.choice(m, size=int(rng.integers(k + 1, 200)),
                                            p=weights), m)
            series = embed(seq, lags, k)
            rows = np.column_stack([series.targets, series.pasts])
            past = tuple(range(1, 1 + len(lags)))
            assert fields(active_information_storage(seq, lags, k)) == oracle(
                rows, ((0,), 1), (past, 1), ((0,) + past, -1))
            assert fields(next_symbol_entropy(seq, k)) == oracle(rows, ((0,), 1))
            pairs = np.column_stack([seq.symbols[1:], seq.symbols[:-1]])
            assert fields(gaze_transition_entropy(seq)) == oracle(
                pairs, ((0, 1), 1), ((1,), -1))

    def test_fixed_point_bound_at_a_hundred_thousand_rows(self):
        # Each c log2 c term is rounded to 1/scale, which moves an entropy
        # by at most 0.5/scale bits, 4.5e-13 at n = 10^5. Over 16 symbols
        # and lags {1, 2} only 1 + 16 + 256 + 4096 terms can round, so AIS
        # stays far inside that bound too, as does the float oracle's own
        # rounding.
        n = 10 ** 5
        bound = 0.5 / infocore._clogc(n)[1]
        assert 4.5e-13 < bound < 4.6e-13
        seq = SymbolSequence(np.random.default_rng(100).integers(0, 16, n + 2), 16)
        series = embed(seq, (1, 2), 2)
        rows = np.column_stack([series.targets, series.pasts])
        pairs = np.column_stack([seq.symbols[1:], seq.symbols[:-1]])
        for est, table, terms in (
                (next_symbol_entropy(seq, 2), rows, [((0,), 1)]),
                (active_information_storage(seq, (1, 2), 2), rows,
                 [((0,), 1), ((1, 2), 1), ((0, 1, 2), -1)]),
                (gaze_transition_entropy(seq), pairs, [((0, 1), 1), ((1,), -1)])):
            assert abs(est.plugin_value - dense_estimate(table, *terms)[0]) <= bound


def reference_rows(codes, cond, cands):
    """`cmi_rows` rows for each row of target codes in `codes` (ranks,
    the observed target first) by the first algorithm: `np.unique` ranks of
    the columns and a dense bincount per (row, group)."""
    def ranks(code, *columns):
        for col in columns:
            code = np.unique(code * (int(col.max()) + 1) + col,
                             return_inverse=True)[1]
        return code

    codes = np.asarray(codes)
    n = codes.shape[1]
    s = ranks(np.zeros(n, dtype=np.int64), *cond)
    groups = np.stack([s] + [ranks(s, *cols) for cols in cands])
    width = int(groups.max()) + 1
    cells = (int(codes.max()) + 1) * width
    clogc, scale = infocore._clogc(n)
    static = np.array([clogc[np.bincount(g)].sum() for g in groups])
    static = static[0] - static[1:]
    rows = []
    for t in codes:
        joint = np.array([clogc[np.bincount(t * width + g, minlength=cells)].sum()
                          for g in groups])
        rows.append((joint[1:] - joint[:1] + static) / (scale * n))
    return np.array(rows)


def target_ranks(target):
    return np.unique(target, return_inverse=True)[1]


def reference_cmi_rows(target, cond, cands, n_perm, rng):
    """`cmi_rows` rows of the target and of `n_perm` permutations of it,
    each a tiled `arange` of row indices permuted in place, 1000 rows per
    call, which draws the same stream as one call (`_permutation_blocks`)."""
    t = target_ranks(target)
    n = t.size
    rows = [reference_rows(t[None], cond, cands)]
    for start in range(0, n_perm, 1000):
        perms = rng.permuted(np.tile(np.arange(n), (min(1000, n_perm - start), 1)),
                             axis=1)
        rows.append(reference_rows(t[perms], cond, cands))
    return np.concatenate(rows)


def reference_count_rows(target, cond, cands, n_perm, rng):
    """`cmi_rows` rows of a two-code target and of `n_perm` targets laid
    out from tallies of code 1 per joint state of all the columns, drawn
    `infocore.COUNT_DRAW_ROWS` at a time with `np.unique`'s state order: in
    each state, the first rows of the tally take code 1."""
    t = target_ranks(target)
    columns = np.column_stack(list(cond) + [col for cols in cands for col in cols])
    _, full, sizes = np.unique(columns, axis=0, return_inverse=True,
                               return_counts=True)
    full = full.ravel()
    order = np.argsort(full, kind="stable")
    states = full[order]
    within = np.arange(t.size) - np.searchsorted(states, states)  # rank in state
    codes = [t]
    for start in range(0, n_perm, infocore.COUNT_DRAW_ROWS):
        for tally in rng.multivariate_hypergeometric(
                sizes, int(t.sum()), method="count",
                size=min(infocore.COUNT_DRAW_ROWS, n_perm - start)):
            code = np.empty_like(t)
            code[order] = within < tally[states]
            codes.append(code)
    return reference_rows(codes, cond, cands)


def selection_step(m, step):
    """(target, cond, cands) of selection step `step` over lags 1..5 of 300
    iid symbols of m codes: the lags before `step` are conditioned on and
    every other lag is a candidate."""
    x = np.random.default_rng(10 * step + m).integers(0, m, size=300)
    target, lags = x[5:], [x[5 - lag:-lag] for lag in range(1, 6)]
    return target, lags[:step - 1], [(col,) for col in lags[step - 1:]]


def record_regimes(monkeypatch):
    """The regime of every `_clogc_blocks` call, in call order."""
    seen = []
    count = infocore._clogc_blocks

    def recorded(blocks, groups, m, width, clogc, regime):
        seen.append(regime)
        return count(blocks, groups, m, width, clogc, regime)
    monkeypatch.setattr(infocore, "_clogc_blocks", recorded)
    return seen


def record_draws(monkeypatch):
    """How every test gets its surrogates, in the order its batch sets them
    up: "tables" for drawn tables, "counts" for drawn tallies per state,
    else the regime that counts its permutations."""
    seen = record_regimes(monkeypatch)
    tables = infocore._table_sums
    counts = infocore._state_count_draws

    def recorded_tables(rng, table, count, clogc):
        seen.append("tables")
        return tables(rng, table, count, clogc)

    def recorded_counts(*args):
        seen.append("counts")
        return counts(*args)
    monkeypatch.setattr(infocore, "_table_sums", recorded_tables)
    monkeypatch.setattr(infocore, "_state_count_draws", recorded_counts)
    return seen


def force_regime(monkeypatch, regime):
    """Force one counting regime through the module constants, keeping the
    block bound for the product path; returns `record_draws`' list."""
    product = regime == "product"
    monkeypatch.setattr(infocore, "PRODUCT_CODES", 10 ** 9 if product else 0)
    monkeypatch.setattr(infocore, "PRODUCT_MULTIPLIES", 2 ** 62 if product else 0)
    if not product:
        monkeypatch.setattr(infocore, "SURROGATE_BLOCK_ELEMENTS",
                            10 ** 9 if regime == "dense" else 1)
    return record_draws(monkeypatch)


class TestKernelAgainstReference:
    """Ranks by counting and the surrogate kernel against direct algorithms."""

    def test_ranks_equal_unique_inverse(self):
        rng = np.random.default_rng(41)
        for n in (1, 2, 50, 300):
            for high in (1, 2, 4 * n, 4 * n + 1, 50 * n):  # both sides of 4n
                codes = rng.integers(0, high, size=n)
                codes[0] = high - 1  # the code space reaches `high`
                expected = np.unique(codes, return_inverse=True)[1]
                assert np.array_equal(infocore._ranks(codes), expected)
                columns = [rng.integers(0, high, size=n) for _ in range(3)]
                rows = np.column_stack(columns)
                expected = np.unique(rows, axis=0, return_inverse=True)[1].ravel()
                got = infocore._joint_ranks(np.zeros(n, dtype=np.int64), *columns)
                assert np.array_equal(got, expected)

    @pytest.mark.parametrize("elements", [1, 10 ** 9])
    @pytest.mark.parametrize("n_perm", [1, 200])
    @pytest.mark.parametrize("m, n", [(2, 300), (3, 300), (16, 300), (300, 60)])
    @pytest.mark.parametrize("conditioned", [False, True])
    def test_cmi_rows_equal_reference(self, monkeypatch, m, n, n_perm,
                                      elements, conditioned):
        # Every row bit-equal, counted by product in blocks of one row (1)
        # or of all rows (10**9), and densely (10**9) or by sort (1). A
        # binary target draws tallies per state in every regime and block
        # size, and its rows are those of targets laid out from the tallies.
        monkeypatch.setattr(infocore, "SURROGATE_BLOCK_ELEMENTS", elements)
        rng = np.random.default_rng(m * n)
        x = rng.integers(0, m, size=n + 3)
        target, c1, c2, c3 = x[3:], x[2:-1], x[1:-2], x[:-3]
        cond = [c1] if conditioned else []
        cands = [(c2,), (c2, c3)]
        reference = reference_count_rows if m == 2 else reference_cmi_rows
        expected = reference(target, cond, cands, n_perm, np.random.default_rng(5))
        for regime in ("product", "dense" if elements > 1 else "sort"):
            seen = force_regime(monkeypatch, regime)
            got = cmi_rows(target, cond, cands, n_perm, np.random.default_rng(5))
            # One stream per test, row 0 included.
            assert seen == ["counts" if m == 2 else regime]
            assert got.shape == (n_perm + 1, 2)
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("regime", ["product", "dense", "sort"])
    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("step", [1, 2, 3])
    def test_selection_step_rows_equal_reference(self, monkeypatch, step, m, regime):
        # The shape of selection step `step` over lags 1..5: the lags chosen
        # so far are conditioned on and every other lag is a candidate. A
        # binary step draws tallies per state whatever the regime.
        target, cond, cands = selection_step(m, step)
        reference = reference_count_rows if m == 2 else reference_cmi_rows
        expected = reference(target, cond, cands, 200, np.random.default_rng(step))
        seen = force_regime(monkeypatch, regime)
        got = cmi_rows(target, cond, cands, 200, np.random.default_rng(step))
        assert seen == ["counts" if m == 2 else regime]
        assert np.array_equal(got, expected)

    @pytest.fixture
    def sequences(self):
        from gazeais import generate, lagged_copy_spec
        return {m: generate(lagged_copy_spec(2, 0.7, m=m), 300, seed=m)
                for m in (2, 16)}

    def test_binary_tests_draw_state_counts(self, monkeypatch, sequences):
        # Binary selection steps draw tallies per state and never permute;
        # the final AIS test on the selected lags, one candidate of 4 states
        # given nothing, draws tables, and on all five lags (32 states,
        # 31 x 22 > 295 rows) draws tallies.
        seen = record_draws(monkeypatch)
        series = embed(sequences[2], (1, 2, 3, 4, 5), 5)
        max_statistic_test((1, 2, 3, 4, 5), series, 200, seed=1)
        max_statistic_test((2, 3, 4, 5), series, 200, seed=1, selected=(1,))
        final_ais_test(embed(sequences[2], (1, 2), 5), 200, seed=1)
        final_ais_test(series, 200, seed=1)
        # One stream per test, row 0 included.
        assert seen == ["counts", "counts", "tables", "counts"]

    def test_sixteen_symbols_never_count_by_product(self, monkeypatch, sequences):
        # Nor do they draw tallies per state, which only a binary target does.
        seen = record_draws(monkeypatch)
        max_statistic_test((1, 2, 3, 4, 5),
                           embed(sequences[16], (1, 2, 3, 4, 5), 5), 200, seed=1)
        max_statistic_test((2, 3, 4, 5), embed(sequences[16], (1, 2, 3, 4, 5), 5),
                           200, seed=1, selected=(1,))
        final_ais_test(embed(sequences[16], (1,), 5), 200, seed=1)
        assert len(seen) == 3 and not {"product", "counts", "tables"} & set(seen)
        # Not even where one block's product would stay below the bound:
        # one row of 16385 codes, 15 x 16385 x 2 multiply-adds.
        groups = np.zeros((1, 16385), dtype=np.int64)
        assert infocore._counting_regime(3, 2, groups)[0] == "product"
        assert infocore._counting_regime(16, 2, groups)[0] == "dense"

    def test_products_stay_below_the_thread_bound(self):
        # 295 rows and 5 groups, 22 rows per block: a binary target counts
        # by product up to width 16, and at 32 the product would pass
        # PRODUCT_MULTIPLIES; past PRODUCT_CODES target codes, never.
        groups = np.zeros((5, 295), dtype=np.int64)
        for m, width, regime in ((2, 2, "product"), (2, 16, "product"),
                                 (2, 32, "dense"), (4, 4, "product"),
                                 (4, 8, "dense"), (5, 2, "dense")):
            assert infocore._counting_regime(m, width, groups)[0] == regime


class TestSurrogateKernel:
    """The permutation tests share one kernel; row 0 is the observed value."""

    @pytest.fixture
    def series(self):
        from gazeais import generate, lagged_copy_spec
        return embed(generate(lagged_copy_spec(2, 0.7), 400, seed=5),
                     (1, 2, 3, 4), 4)

    def test_constant_target_gives_p_one(self, series):
        # Every surrogate of a constant target ties the observed value.
        series.targets[:] = 0
        assert max_statistic_test((2, 3), series, 50, seed=1,
                                  selected=(1,))[1].p_value == 1.0
        assert final_ais_test(series, 50, seed=1).p_value == 1.0

    def test_all_equal_groups_give_p_one(self):
        for tail in ("two_sided", "greater", "less"):
            result = independent_samples_permutation_test(
                [0.3] * 5, [0.3] * 8, 300, tail, seed=2)
            assert result.observed_statistic == 0.0 and result.p_value == 1.0

    def _p_values(self, series):
        """(p, evaluated, n_perm) for each kind of permutation test."""
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=9), rng.normal(0.5, 1.0, size=12)
        from gazeais import generate, lagged_copy_spec
        # The final test on the binary series draws tables; on four symbols
        # and four lags it permutes (`TestTableDraws`).
        wide = embed(generate(lagged_copy_spec(2, 0.7, m=4), 400, seed=5),
                     (1, 2, 3, 4), 4)
        results = ([(max_statistic_test((1, 3, 4), series, n_perm, seed=n_perm,
                                        selected=(2,))[1], n_perm)
                    for n_perm in (19, 99, 200)]
                   + [(final_ais_test(final, n_perm, seed=n_perm), n_perm)
                      for final in (series, wide) for n_perm in (19, 99, 200)]
                   + [(independent_samples_permutation_test(a, b, n_perm, tail,
                                                            seed=n_perm), n_perm)
                      for n_perm in (19, 999) for tail in TAILS])
        return [(r.p_value, r.evaluated, n_perm) for r, n_perm in results]

    def test_p_values_lie_on_the_grid(self, series):
        for p, evaluated, n_perm in self._p_values(series):
            exceed = round(p * (n_perm + 1) - 1)
            assert 0 <= exceed <= n_perm
            assert p == (1.0 + exceed) / (n_perm + 1.0)
            assert evaluated == n_perm  # no test here is given alpha

    def test_p_rule_does_not_depend_on_blocks(self):
        rng = np.random.default_rng(8)
        values = rng.random(50)
        observed = 0.7  # about 15 of the 50 values reach it
        p_rows = (1.0 + np.cumsum(values >= observed)) / 51.0  # running p
        assert p_rows[-1] <= 0.5
        for alpha in (None, 0.05, 0.15, 0.5):
            results = {_permutation_p(observed, (values[i:i + rows]
                                                 for i in range(0, 50, rows)),
                                      50, alpha)
                       for rows in (1, 3, 50)}
            assert len(results) == 1
            if alpha is None or alpha == 0.5:  # never past the bound
                assert results.pop() == (p_rows[-1], 50)
            else:
                # Stops at the first row whose count makes (1 + b)/51 > alpha.
                stop = int(np.argmax(p_rows > alpha))
                assert 0 < stop < 49 and p_rows[stop - 1] <= alpha
                assert results.pop() == (p_rows[stop], stop + 1)

    def test_p_rule_rejects_bad_input(self):
        with pytest.raises(ValueError, match="n_perm"):
            _permutation_p(0.5, iter([]), 0)
        for observed in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                _permutation_p(observed, iter([np.zeros(3)]), 3)

    def test_block_size_does_not_change_p_values(self, series, monkeypatch):
        seen = record_draws(monkeypatch)
        reference = self._p_values(series)
        # All three ways drawn: tallies, tables and permutations.
        assert seen.count("counts") == seen.count("tables") == 3 and len(seen) == 9
        for elements in (1, 10 ** 9):  # one row per block; all rows in one
            monkeypatch.setattr(infocore, "SURROGATE_BLOCK_ELEMENTS", elements)
            assert self._p_values(series) == reference

    @pytest.mark.parametrize("rows", [1, 7, 18, 200])
    @pytest.mark.parametrize("n", [1, 2, 44, 295, 2995])
    def test_block_draws_equal_per_row_draws(self, n, rows):
        # One in-place `permuted` call per block must draw exactly the rows
        # that one `permutation(n)` call per row draws, and consume the same
        # stream: for scaled target codes and for an ascending pool alike.
        source = np.random.default_rng(n)
        codes = source.permutation(n).astype(np.int64) * 7
        pool = np.sort(source.normal(size=n))
        for values in (codes, pool):
            for row_elements in (n, infocore.SURROGATE_BLOCK_ELEMENTS):
                per_row, blocked = np.random.default_rng(n), np.random.default_rng(n)
                expected = np.array([values[per_row.permutation(n)]
                                     for _ in range(rows)])
                drawn = np.concatenate(list(infocore._permutation_blocks(
                    blocked, values, rows, row_elements)))
                assert drawn.dtype == values.dtype
                assert np.array_equal(drawn, expected)
                assert blocked.bit_generator.state == per_row.bit_generator.state

    def test_row_zero_is_the_reported_observation(self):
        from gazeais import RunConfig, generate, optimize_past_state, persistence_spec
        seq = generate(persistence_spec(0.8), 500, seed=6)
        _, trace = optimize_past_state(
            seq, RunConfig(k_max=4, n_perm_selection=50, seed=6))
        series = embed(seq, range(1, 5), 4)
        cols = {lag: series.pasts[:, lag - 1] for lag in range(1, 5)}
        selected = []
        for step in trace.steps:
            rows = _CmiTests.single(series.targets, [cols[l] for l in selected],
                                    [(cols[l],) for l in step.candidates], 30,
                                    np.random.default_rng(0)).observed
            assert dict(zip(step.candidates, rows[0].tolist())) == step.cmi_values
            assert rows[0].max() == step.observed_cmi
            cmis, result = max_statistic_test(step.candidates, series, 30, seed=0,
                                              selected=tuple(selected))
            assert cmis == step.cmi_values
            assert result.observed_statistic == step.observed_cmi
            selected.append(step.chosen_lag)
        final = embed(seq, (1,), 4)
        rows = _CmiTests.single(final.targets, [], [tuple(final.pasts.T)], 30,
                                np.random.default_rng(0)).observed
        assert final_ais_test(final, 30, seed=0).observed_statistic == rows[0, 0]


def ks_distance(a, b):
    """Two-sample Kolmogorov-Smirnov distance: the largest gap between the
    empirical distribution functions, read at every value either holds."""
    a, b = np.sort(a), np.sort(b)
    x = np.union1d(a, b)
    return np.abs(np.searchsorted(a, x, "right") / a.size
                  - np.searchsorted(b, x, "right") / b.size).max()


class TestTableDraws:
    """A test of one candidate given nothing draws its surrogates as the
    contingency tables that permuting the target would give."""

    @staticmethod
    def lag_one(m, seed):
        """(target, past) of a 300-symbol lag-1 copy chain over m symbols."""
        from gazeais import generate, lagged_copy_spec
        series = embed(generate(lagged_copy_spec(1, 0.3, m=m), 300, seed=seed), (1,), 5)
        return series.targets, series.pasts[:, 0]

    @pytest.mark.parametrize("shape", [(2, 2), (2, 7), (3, 3), (4, 5), (1, 3), (3, 1)])
    def test_drawn_tables_keep_the_margins(self, shape):
        rng = np.random.default_rng(shape[0] * 10 + shape[1])
        table = rng.integers(0, 12, size=shape)
        table[0, 0] += 1  # a table of at least one row, zero cells allowed
        tables = np.stack(list(infocore._table_columns(
            np.random.default_rng(1), table, 500)), axis=2)
        assert tables.shape == (500,) + shape and tables.min() >= 0
        assert (tables.sum(axis=2) == table.sum(axis=1)).all()
        assert (tables.sum(axis=1) == table.sum(axis=0)).all()
        if min(shape) > 1:
            assert len(np.unique(tables.reshape(500, -1), axis=0)) > 1
        # `_table_sums` sums c log2 c over these very tables, in one block.
        clogc, _ = infocore._clogc(int(table.sum()))
        blocks = list(infocore._table_sums(np.random.default_rng(1), table, 500, clogc))
        assert len(blocks) == 1 and blocks[0].shape == (500, 1)
        assert np.array_equal(blocks[0][:, 0], clogc[tables].sum(axis=(1, 2)))

    def test_rule_reads_the_code_space(self, monkeypatch):
        # 295 rows of a binary target: (2 - 1)(S - 1) x 22 <= 295 up to
        # S = 14 states. More states, more candidates or a condition draw
        # tallies per state; so does no target of more codes.
        seen = record_draws(monkeypatch)
        assert infocore.TABLE_DRAW_ROWS == 22
        target = np.arange(295) % 2
        for states, path in ((14, "tables"), (15, "counts")):
            past = np.arange(295) // 2 % states
            cmi_rows(target, [], [(past,)], 5, np.random.default_rng(0))
            assert seen.pop() == path
        past = np.arange(295) // 2 % 3
        cmi_rows(target, [], [(past,), (past,)], 5, np.random.default_rng(0))
        cmi_rows(target, [past], [(past,)], 5, np.random.default_rng(0))
        assert seen == ["counts", "counts"]
        cmi_rows(np.arange(295) % 3, [past], [(past,)], 5, np.random.default_rng(0))
        assert seen[-1] == "product"

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_row_zero_equals_the_permutation_path(self, monkeypatch, m):
        target, past = self.lag_one(m, seed=m)
        seen = record_draws(monkeypatch)
        rows = {}
        for draw_rows in (0, 10 ** 9):  # tables; tallies (m = 2) or permutations
            monkeypatch.setattr(infocore, "TABLE_DRAW_ROWS", draw_rows)
            rows[draw_rows] = _CmiTests.single(target, [], [(past,)], 200,
                                               np.random.default_rng(m)).observed
        assert seen[0] == "tables" and seen[1] != "tables"
        assert rows[0].shape == (1, 1) and rows[0].tobytes() == rows[10 ** 9].tobytes()

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_table_null_matches_the_permutation_null(self, monkeypatch, m):
        # 20 000 surrogate MIs drawn each way at pinned seeds (distances
        # 0.0123, 0.0065 and 0.0078 for m = 2, 3, 4). The bound is the
        # two-sample KS distance's 1 % critical value, 1.628 sqrt(2 / N). A
        # pilot of 200 chains and seed pairs per m read median distances of
        # 0.007-0.008 and exceeded the bound in 0, 2 and 1 of 200 pairs, as
        # a 1 % test of a true null should. The permuted side is the
        # reference, which draws the permutation path's stream.
        target, past = self.lag_one(m, seed=m)
        monkeypatch.setattr(infocore, "TABLE_DRAW_ROWS", 0)
        tables = cmi_rows(target, [], [(past,)], 20000, np.random.default_rng(11))
        permuted = reference_cmi_rows(target, [], [(past,)], 20000,
                                      np.random.default_rng(12))
        assert ks_distance(tables[1:, 0], permuted[1:, 0]) < 1.628 * math.sqrt(2 / 20000)

    def test_sixteen_aois_keep_permutations(self, monkeypatch):
        # (16 - 1)(16 - 1) x 22 > 295: the final test permutes, and its
        # p-values are the ones permuting gave before tables were drawn.
        from gazeais import generate, lagged_copy_spec
        seen = record_draws(monkeypatch)
        exceed = {}
        for seed in (1, 2, 3, 4):
            seq = generate(lagged_copy_spec(2, 0.1, m=16), 300, seed=seed)
            for lag in (1, 2):
                result = final_ais_test(embed(seq, (lag,), 5), 200, seed=seed)
                exceed[seed, lag] = round(result.p_value * 201) - 1
                assert result.p_value == (1 + exceed[seed, lag]) / 201
        assert "tables" not in seen and len(seen) == 8
        assert exceed == {(1, 1): 182, (1, 2): 2, (2, 1): 25, (2, 2): 17,
                          (3, 1): 79, (3, 2): 125, (4, 1): 83, (4, 2): 9}


class TestStateCountDraws:
    """A test of a two-code target that does not draw tables draws each
    surrogate as the tally of code 1 in every joint state of its columns."""

    @pytest.mark.parametrize("sizes, ones", [
        ([3, 1, 4, 1, 5, 9, 2, 6], 12), ([3, 1, 4, 1, 5, 9, 2, 6], 27),
        ([10, 10], 1), ([7], 3), ([1] * 40, 20)])
    def test_drawn_tallies_keep_the_margins(self, monkeypatch, sizes, ones):
        # Code 1's tallies sum to its total and code 0's, the state sizes
        # minus them, are never negative; blocks hold COUNT_DRAW_ROWS tallies
        # whatever the block bound, and each state's mean is the
        # hypergeometric mean within four standard errors.
        sizes = np.array(sizes)
        n, count = sizes.sum(), 5010
        drawn = {}
        for elements in (1, 10 ** 9):
            monkeypatch.setattr(infocore, "SURROGATE_BLOCK_ELEMENTS", elements)
            blocks = list(infocore._state_count_draws(np.random.default_rng(4),
                                                      sizes, ones, count))
            assert [len(b) for b in blocks] == [25] * 200 + [10]
            drawn[elements] = np.concatenate(blocks)
        tallies = drawn[1]
        assert np.array_equal(tallies, drawn[10 ** 9])
        assert (tallies.sum(axis=1) == ones).all()
        assert tallies.min() >= 0 and (sizes - tallies).min() >= 0
        if sizes.size > 1:
            assert len(np.unique(tallies, axis=0)) > 1
        mean = ones * sizes / n
        var = ones * (sizes / n) * (1 - sizes / n) * (n - ones) / max(n - 1, 1)
        assert (np.abs(tallies.mean(axis=0) - mean)
                <= 4 * np.sqrt(var / count) + 1e-12).all()

    @pytest.mark.parametrize("step", [1, 2, 3])
    def test_row_zero_equals_the_permutation_reference(self, monkeypatch, step):
        seen = record_draws(monkeypatch)
        target, cond, cands = selection_step(2, step)
        row = _CmiTests.single(target, cond, cands, 200,
                               np.random.default_rng(0)).observed
        expected = reference_cmi_rows(target, cond, cands, 0, None)
        assert seen == ["counts"]
        assert row.shape == (1, 6 - step) and row.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("step", [1, 2])
    def test_count_null_matches_the_permutation_null(self, step):
        # Surrogate maxima of a 5-candidate step 1 and of step 2 given lag 1
        # on a lag-1 copy chain, 20 000 drawn as tallies and 20 000 permuted
        # (reference) at pinned seeds (distances 0.0064 and 0.0142); the
        # bound is the two-sample KS 1 % critical value, as for tables. A
        # pilot of 200 chains and seed pairs per step read median distances
        # of 0.0072 and 0.0083 and exceeded the bound in 1 and 2 of 200.
        from gazeais import generate, lagged_copy_spec
        series = embed(generate(lagged_copy_spec(1, 0.3), 300, seed=7),
                       (1, 2, 3, 4, 5), 5)
        lags = list(series.pasts.T)
        cond, cands = lags[:step - 1], [(col,) for col in lags[step - 1:]]
        drawn = cmi_rows(series.targets, cond, cands, 20000, np.random.default_rng(21))
        permuted = reference_cmi_rows(series.targets, cond, cands, 20000,
                                      np.random.default_rng(22))
        assert drawn[0].tobytes() == permuted[0].tobytes()
        assert ks_distance(drawn[1:].max(axis=1), permuted[1:].max(axis=1)) < (
            1.628 * math.sqrt(2 / 20000))

    def test_memory_follows_the_rows(self, monkeypatch):
        # 3000 binary symbols at k_max 12, given lags 1..6: about 2900 full
        # states, and 7 groups of up to 128 states each. This peaked at
        # 1.3 MiB; summing the tallies through the float64 one-hot matrix
        # of full states by group states, which the product bound rules
        # out here, peaked at 14.8 MiB.
        seen = record_draws(monkeypatch)
        seq = SymbolSequence(np.random.default_rng(12).integers(0, 2, 3000), 2)
        series = embed(seq, range(1, 13), 12)
        tracemalloc.start()
        try:
            max_statistic_test(range(7, 13), series, 200, seed=7,
                               selected=range(1, 7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert seen == ["counts"]
        assert peak < 4 * 2 ** 20


class TestGazeTransitionEntropy:
    def test_deterministic_cycle_zero(self):
        seq = SymbolSequence(np.arange(101) % 4, 4)
        assert gaze_transition_entropy(seq).plugin_value == pytest.approx(0.0, abs=TOL)

    def test_iid_limit(self):
        rng = np.random.default_rng(2)
        seq = SymbolSequence(rng.integers(0, 4, size=50_000), 4)
        assert gaze_transition_entropy(seq).plugin_value == pytest.approx(2.0, abs=0.01)

    def test_complementarity_identity(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            m = int(rng.integers(2, 5))
            seq = SymbolSequence(rng.integers(0, m, size=int(rng.integers(10, 200))), m)
            ais = active_information_storage(seq, (1,), 1).plugin_value
            gte = gaze_transition_entropy(seq).plugin_value
            h_t = next_symbol_entropy(seq, 1).plugin_value
            assert abs(h_t - ais - gte) <= TOL

    def test_persistence_chain_closed_form(self):
        from gazeais import analytic_gte, generate, persistence_spec
        spec = persistence_spec(0.9)
        seq = generate(spec, 200_000, seed=4)
        assert gaze_transition_entropy(seq).plugin_value == pytest.approx(
            analytic_gte(spec), abs=0.01)

    def test_too_short(self):
        with pytest.raises(ValueError, match=">= 2"):
            gaze_transition_entropy(SymbolSequence([0], 2))


class TestInvariants:
    """Bounds and relabeling on the code path, values against the oracle."""

    def test_nonnegativity_and_bounds(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            dims = tuple(int(rng.integers(2, 4)) for _ in range(int(rng.integers(2, 4))))
            counts = rng.integers(0, 5, size=dims)
            if counts.sum() == 0:
                counts.flat[0] = 1
            rows = rows_from_counts(counts)
            info = mi(rows[:, 0], rows[:, 1])
            oracle, _ = dense_estimate(rows, ((0,), 1), ((1,), 1), ((0, 1), -1))
            assert info == pytest.approx(oracle, abs=TOL)
            h = [h_next(rows[:, axis], card).plugin_value
                 for axis, card in enumerate(dims)]
            assert info >= -TOL
            assert info <= min(h[0], h[1]) + TOL
            for axis, card in enumerate(dims):
                assert h[axis] == pytest.approx(dense_entropy(rows, (axis,))[0], abs=TOL)
                assert -TOL <= h[axis] <= math.log2(card) + TOL

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            counts = rng.integers(0, 6, size=(3, 4))
            counts[0, 0] += 1
            rows = rows_from_counts(counts)
            relabeled = np.column_stack([rng.permutation(3)[rows[:, 0]],
                                         rng.permutation(4)[rows[:, 1]]])
            assert h_next(rows[:, 0], 3).plugin_value == pytest.approx(
                h_next(relabeled[:, 0], 3).plugin_value, abs=TOL)
            assert mi(rows[:, 0], rows[:, 1]) == pytest.approx(
                mi(relabeled[:, 0], relabeled[:, 1]), abs=TOL)
            assert mi(rows[:, 0], rows[:, 1]) == pytest.approx(
                dense_estimate(relabeled, ((0,), 1), ((1,), 1), ((0, 1), -1))[0],
                abs=TOL)

    def test_estimator_consistency_light(self):
        # Median error shrinks with N; the full three-decade sweep lives in
        # the acceptance suite.
        from gazeais import analytic_ais, derive_seed, generate, persistence_spec
        spec = persistence_spec(0.9)
        target = analytic_ais(spec, (1,))
        medians = []
        for n in (1000, 10_000):
            errs = [abs(active_information_storage(
                generate(spec, n, seed=derive_seed(55, n, s)), (1,), 1
            ).plugin_value - target) for s in range(8)]
            medians.append(np.median(errs))
        assert medians[1] <= medians[0]


def copy_chain_matrix(m, seed, rows=3, length=80):
    """`rows` trials of `length` symbols below `m`; each symbol repeats the
    one before with probability 1/2 and is uniform otherwise."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, m, (rows, length))
    for t in range(1, length):
        copy = rng.random(rows) < 0.5
        x[copy, t] = x[copy, t - 1]
    return x


def pinned_matrix(m):
    x = copy_chain_matrix(m, {2: 1, 4: 2, 16: 3}[m])
    if m == 2:
        x[1] = 1  # a constant trial: H(X_t) = 0
    return x


# Per row of `pinned_matrix(m)`, (plug-in value, bias correction) of H(X_t)
# at offset 5, AIS on lags (1,) and on (1, ..., 5) at offset 5, and GTE, as
# the per-sequence estimators gave them before they were computed row-wise.
PINNED = {
    2: [
        ((0.953197172543056, 0.009617966939259757), (0.0881274774853434, -0.009617966939259755), (0.33853229960825765, -0.11541560327111705), (0.8742165635534195, 0.018261962542898275)),
        ((0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0)),
        ((0.9426831892554917, 0.009617966939259757), (0.29452243832167474, -0.009617966939259755), (0.4908637386444663, -0.048089834696298794), (0.6665390448247217, 0.018261962542898275)),
    ],
    4: [
        ((1.9707368442613817, 0.02885390081777927), (0.46614071851790556, -0.08656170245333782), (1.7320683838628468, -0.038471867757039035), (1.493163649568857, 0.10957177525738963)),
        ((1.9533697828994585, 0.02885390081777927), (0.6066971893032964, -0.07694373551407806), (1.7251109098492756, -0.038471867757039035), (1.3574746954526191, 0.10044079398594048)),
        ((1.8696030435691005, 0.02885390081777927), (0.3697562111553221, -0.08656170245333782), (1.6829363769024337, -0.028853900817779166), (1.5140806716675845, 0.10957177525738963)),
    ],
    16: [
        ((3.8099373191990646, 0.14426950408889636), (2.2247802814086604, -0.1731234049066756), (3.7832706525323982, 0.13465153714963662), (1.6247431501093783, 0.3195843445007197)),
        ((3.3901514064608778, 0.12503357021037684), (2.0326383395193286, -0.1250335702103768), (3.2633544064031854, 0.0961796693925977), (1.352968634768164, 0.24653649432912667)),
        ((3.587367220451594, 0.1346515371496366), (2.145241031907001, -0.14426950408889633), (3.5440990538137735, 0.12503357021037687), (1.5148004955084986, 0.29219140068637234)),
    ],
}


def bits(est):
    return (est.plugin_value.hex(), est.bias_correction.hex(),
            est.corrected_value.hex(), est.sample_count, est.kind)


class TestRowEstimates:
    """Every trial's values from one call over the matrix of trials."""

    @pytest.mark.parametrize("m", [2, 4, 16])
    def test_rows_equal_pinned_values(self, m):
        x = pinned_matrix(m)
        entropies, no_ais = row_estimates(x, (), 5)
        ais_1 = row_estimates(x, (1,), 5)[1]
        ais_5 = row_estimates(x, (1, 2, 3, 4, 5), 5)[1]
        assert no_ais is None
        for i, row in enumerate(x):
            gte = gaze_transition_entropy(SymbolSequence(row, m))
            for est, (plugin, corr), n in zip(
                    (entropies[i], ais_1[i], ais_5[i], gte), PINNED[m][i],
                    (75, 75, 75, 79)):
                assert (est.plugin_value.hex(), est.bias_correction.hex(),
                        est.corrected_value.hex(), est.sample_count) == (
                    plugin.hex(), corr.hex(), (plugin + corr).hex(), n)

    @pytest.mark.parametrize("lags", [(), (1,), (1, 2, 3, 4, 5)])
    @pytest.mark.parametrize("symbols", ["binary", "4-aoi", "16-aoi", "mixed"])
    def test_each_row_equals_a_one_row_call(self, symbols, lags):
        x = {"binary": pinned_matrix(2), "4-aoi": pinned_matrix(4),
             "16-aoi": pinned_matrix(16),
             # Rows of different code spaces share one count.
             "mixed": np.stack([pinned_matrix(16)[0], pinned_matrix(2)[1],
                                pinned_matrix(2)[0], pinned_matrix(4)[2]])}[symbols]
        entropies, ais = row_estimates(x, lags, 5)
        assert len(entropies) == len(x) and (ais is None) == (not lags)
        for i, row in enumerate(x):
            one_h, one_ais = row_estimates(x[i:i + 1], lags, 5)
            seq = SymbolSequence(row, int(x.max()) + 1)
            assert bits(entropies[i]) == bits(one_h[0]) == bits(
                next_symbol_entropy(seq, 5))
            if lags:
                assert bits(ais[i]) == bits(one_ais[0]) == bits(
                    active_information_storage(seq, lags, 5))

    def test_constant_trial(self):
        h, ais = row_estimates(np.full((1, 40), 3), (1, 2), 2)
        zero = ((0.0).hex(), (0.0).hex(), (0.0).hex(), 38)
        assert bits(h[0]) == zero + ("entropy",)
        assert bits(ais[0]) == zero + ("active_information_storage",)

    def test_single_trial_of_one_row(self):
        h, ais = row_estimates(np.array([[0, 1, 1, 0]]), (1, 3), 3)
        assert bits(h[0]) == ((0.0).hex(), (0.0).hex(), (0.0).hex(), 1, "entropy")
        assert ais[0].sample_count == 1 and ais[0].corrected_value == 0.0

    def test_embedding_errors(self):
        with pytest.raises(ValueError, match="exceeds"):
            row_estimates(np.zeros((2, 10), dtype=np.int64), (4,), 3)
        with pytest.raises(ValueError, match="too short"):
            row_estimates(np.zeros((2, 3), dtype=np.int64), (1,), 3)
