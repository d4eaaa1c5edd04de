import numpy as np
import pytest

from gazeais import PastState, SymbolSequence, embed


class TestSymbolSequence:
    def test_valid(self):
        seq = SymbolSequence([0, 1, 2, 1], 3)
        assert len(seq) == 4
        assert seq.symbols.dtype == np.int64

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="symbol ids"):
            SymbolSequence([0, 3], 3)
        with pytest.raises(ValueError, match="symbol ids"):
            SymbolSequence([-1, 0], 2)

    def test_bad_alphabet(self):
        with pytest.raises(ValueError, match="alphabet_size"):
            SymbolSequence([], 0)

    def test_empty_ok(self):
        assert len(SymbolSequence([], 4)) == 0


class TestPastState:
    def test_sorted_unique(self):
        state = PastState((1, 3, 5), 5)
        assert state.lags == (1, 3, 5)
        assert bool(state)

    def test_empty_allowed(self):
        state = PastState((), 5)
        assert not state
        assert len(state) == 0

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            PastState((3, 1), 5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="k_max"):
            PastState((1, 6), 5)
        with pytest.raises(ValueError, match="k_max"):
            PastState((0, 1), 5)


class TestEmbed:
    def test_single_lag(self):
        seq = SymbolSequence([0, 1, 2, 3, 0], 4)
        series = embed(seq, (1,), 1)
        assert series.targets.tolist() == [1, 2, 3, 0]
        assert series.pasts.tolist() == [[0], [1], [2], [3]]
        assert series.n_rows == 4

    def test_two_lags(self):
        seq = SymbolSequence([0, 1, 2, 3, 0], 4)
        series = embed(seq, (1, 2), 2)
        assert series.targets.tolist() == [2, 3, 0]
        assert series.pasts.tolist() == [[1, 0], [2, 1], [3, 2]]

    def test_fixed_offset_row_count(self):
        # The offset, not the lag set, fixes the row count.
        rng = np.random.default_rng(0)
        seq = SymbolSequence(rng.integers(0, 3, size=40), 3)
        a = embed(seq, (1,), 5)
        b = embed(seq, (1, 2, 3, 4, 5), 5)
        assert a.n_rows == b.n_rows == 35

    def test_empty_lags(self):
        seq = SymbolSequence([0, 1, 0, 1], 2)
        series = embed(seq, (), 2)
        assert series.n_rows == 2
        assert series.pasts.shape == (2, 0)

    def test_too_short(self):
        seq = SymbolSequence([0, 1], 2)
        with pytest.raises(ValueError, match="too short"):
            embed(seq, (1,), 2)

    def test_lag_exceeds_offset(self):
        seq = SymbolSequence([0, 1, 0, 1], 2)
        with pytest.raises(ValueError, match="exceeds"):
            embed(seq, (3,), 2)

    def test_accepts_past_state(self):
        seq = SymbolSequence([0, 1, 2, 3, 0, 1], 4)
        series = embed(seq, PastState((2,), 3), 3)
        assert series.targets[0] == 3
        assert series.pasts[0].tolist() == [1]
