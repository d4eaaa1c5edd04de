"""Symbol sequences, past states, and fixed-offset time-delay embedding."""

from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np


@dataclass
class SymbolSequence:
    """Ordered discrete symbols from the alphabet {0, ..., alphabet_size - 1}.

    The unit of analysis: a scanpath is one SymbolSequence whose symbols are
    AOI ids, but any integer-coded discrete series qualifies.
    """

    symbols: np.ndarray
    alphabet_size: int

    def __post_init__(self):
        self.symbols = np.asarray(self.symbols, dtype=np.int64)
        if self.symbols.ndim != 1:
            raise ValueError("symbols must be a one-dimensional sequence")
        if int(self.alphabet_size) < 1:
            raise ValueError("alphabet_size must be >= 1")
        self.alphabet_size = int(self.alphabet_size)
        if self.symbols.size:
            lo = int(self.symbols.min())
            hi = int(self.symbols.max())
            if lo < 0 or hi >= self.alphabet_size:
                raise ValueError(
                    f"symbol ids must lie in [0, {self.alphabet_size}), "
                    f"found range [{lo}, {hi}]"
                )

    def __len__(self) -> int:
        return int(self.symbols.size)


@dataclass(frozen=True)
class PastState:
    """A set of positive lags selected as the past state of a sequence.

    May be empty, meaning no significant memory was found. Lags are kept
    sorted and unique, each within [1, k_max].
    """

    lags: tuple
    k_max: int

    def __post_init__(self):
        lags = tuple(int(l) for l in self.lags)
        object.__setattr__(self, "lags", lags)
        object.__setattr__(self, "k_max", int(self.k_max))
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        if any(b <= a for a, b in zip(lags, lags[1:])):
            raise ValueError("lags must be strictly increasing and unique")
        if lags and (lags[0] < 1 or lags[-1] > self.k_max):
            raise ValueError(f"lags must lie in [1, k_max={self.k_max}]")

    def __bool__(self) -> bool:
        return bool(self.lags)

    def __len__(self) -> int:
        return len(self.lags)


@dataclass
class StateVectorSeries:
    """Aligned realizations of (next value, past vector) for a sequence.

    Column j of `pasts` holds the symbol at lag `lags[j]` (ascending lag
    order) relative to the target in the same row.
    """

    targets: np.ndarray   # shape (n,)
    pasts: np.ndarray     # shape (n, len(lags))
    lags: tuple

    @property
    def n_rows(self) -> int:
        return int(self.targets.size)


def _as_lag_tuple(lags: Union[PastState, Iterable[int]]) -> tuple:
    if isinstance(lags, PastState):
        return lags.lags
    out = tuple(sorted({int(l) for l in lags}))
    if any(l < 1 for l in out):
        raise ValueError("lags must be positive integers")
    return out


def _embedding(length: int, lags, k_max_offset: int):
    """(lags, offset, rows) of an embedding of `length` symbols: the sorted
    lag tuple, the offset and the row count, each checked."""
    lag_t = _as_lag_tuple(lags)
    offset = int(k_max_offset)
    if offset < 0:
        raise ValueError("k_max_offset must be >= 0")
    if lag_t and lag_t[-1] > offset:
        raise ValueError(
            f"max lag {lag_t[-1]} exceeds embedding offset {offset}"
        )
    if length - offset < 1:
        raise ValueError(
            f"sequence of length {length} too short for offset {offset}"
        )
    return lag_t, offset, length - offset


def embed(seq: SymbolSequence, lags, k_max_offset: int) -> StateVectorSeries:
    """Embed a sequence at a fixed offset, one row per target position.

    Rows cover targets x_t for t in [k_max_offset, N) (0-based), so the row
    count is N - k_max_offset regardless of which lags are requested. Using
    the same offset for every candidate lag set keeps sample counts
    identical across candidates, which is what makes their information
    estimates comparable.
    """
    lag_t, offset, n = _embedding(len(seq), lags, k_max_offset)
    targets = seq.symbols[offset:].copy()
    pasts = np.empty((n, len(lag_t)), dtype=np.int64)
    for j, lag in enumerate(lag_t):
        pasts[:, j] = seq.symbols[offset - lag : len(seq) - lag]
    return StateVectorSeries(targets=targets, pasts=pasts, lags=lag_t)


def _embed_rows(symbols, k_max: int):
    """(n, flat, position): the 1-D symbol arrays `symbols` concatenated
    into `flat`, and the rows of their embeddings at offset k_max, the n[i]
    rows of array i after those of the arrays before it, each as the index
    in `flat` of its target. A row's symbol at lag l is flat[position - l],
    as in `embed`. `flat` takes the least unsigned type that holds every
    symbol, so the columns taken from it stay small. Each array must be
    longer than k_max."""
    n = np.array([len(s) for s in symbols], dtype=np.intp) - k_max
    position = np.arange(n.sum()) + np.repeat(k_max * np.arange(1, n.size + 1), n)
    flat = np.concatenate(symbols)
    return n, flat.astype(np.min_scalar_type(int(flat.max()))), position
