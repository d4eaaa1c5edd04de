"""Plug-in information estimators over discrete contingency tables.

Entropy, conditional entropy, mutual information, conditional mutual
information, active information storage (AIS), local AIS, and gaze
transition entropy (GTE), all in bits (log base 2), with small-sample bias
correction of the Miller-Madow family.

Every quantity for one computation is derived from a single shared set of
counts, so the chain-rule identities

    H(X|Y) = H(X,Y) - H(Y)
    I(X;Y) = H(X) + H(Y) - H(X,Y)
    I(A;B|C) = H(A,C) + H(B,C) - H(A,B,C) - H(C)

hold exactly on plug-in values, not just asymptotically. AIS, local AIS
and the permutation tests count rank-compressed state codes, not dense
tables, so their memory grows with the rows, not as alphabet^(lags + 1).
"""

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .sequences import StateVectorSeries, SymbolSequence, embed

LN2 = math.log(2.0)


@dataclass
class ContingencyTable:
    """Empirical joint counts over symbol tuples.

    `counts` is an integer array whose shape gives the per-axis
    cardinalities; `total` is the number of tallied observations.
    """

    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts)
        if (not np.issubdtype(self.counts.dtype, np.integer)
                and not np.all(self.counts == np.floor(self.counts))):
            raise ValueError("cell counts must be integers")
        self.counts = self.counts.astype(np.int64)
        if self.counts.ndim < 1:
            raise ValueError("table needs at least one axis")
        if np.any(self.counts < 0):
            raise ValueError("cell counts must be nonnegative")
        if self.total < 1:
            raise ValueError("table must contain at least one observation")

    @property
    def dimensions(self) -> tuple:
        return tuple(self.counts.shape)

    @property
    def n_axes(self) -> int:
        return self.counts.ndim

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def marginal(self, axes: Sequence[int]) -> np.ndarray:
        """Marginal counts over `axes` (returned in ascending axis order)."""
        axes = tuple(axes)
        drop = tuple(i for i in range(self.n_axes) if i not in axes)
        return self.counts.sum(axis=drop) if drop else self.counts


@dataclass(frozen=True)
class InfoEstimate:
    """A plug-in information value plus its additive bias correction.

    `corrected_value == plugin_value + bias_correction` always; for entropy
    the correction is nonnegative (the plug-in underestimates), for MI-like
    quantities it is typically negative (the plug-in overestimates).
    """

    plugin_value: float
    bias_correction: float
    corrected_value: float
    sample_count: int
    kind: str = "entropy"


def empirical_distribution(samples, dimensions) -> ContingencyTable:
    """Tally symbol tuples into a contingency table.

    `samples` is a sequence of equal-length tuples (or a 2-D array) and
    `dimensions` the per-axis cardinalities. Empty input and out-of-range
    symbols are errors.
    """
    arr = np.asarray(list(samples) if not isinstance(samples, np.ndarray) else samples)
    dims = tuple(int(d) for d in dimensions)
    if arr.size == 0:
        raise ValueError("cannot build a distribution from zero samples")
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[1] != len(dims):
        raise ValueError(
            f"samples have {arr.shape[1] if arr.ndim == 2 else '?'} axes, "
            f"expected {len(dims)}"
        )
    if any(d < 1 for d in dims):
        raise ValueError("every axis cardinality must be >= 1")
    arr = arr.astype(np.int64)
    for axis, d in enumerate(dims):
        col = arr[:, axis]
        if col.min() < 0 or col.max() >= d:
            raise ValueError(f"axis {axis}: symbol out of range [0, {d})")
    flat = np.ravel_multi_index(tuple(arr.T), dims)
    counts = np.bincount(flat, minlength=int(np.prod(dims))).reshape(dims)
    return ContingencyTable(counts)


def table_from_series(series: StateVectorSeries) -> ContingencyTable:
    """Joint table over (target, past...) rows; axis 0 is the target."""
    rows = np.column_stack([series.targets, series.pasts])
    return empirical_distribution(rows, (series.alphabet_size,) * rows.shape[1])


# ---------------------------------------------------------------------------
# internal helpers
# ---------------------------------------------------------------------------

def _check_axes(table, axes, name, allow_empty=False):
    axes = tuple(int(a) for a in axes)
    if not axes and not allow_empty:
        raise ValueError(f"{name}: axis subset must not be empty")
    if len(set(axes)) != len(axes):
        raise ValueError(f"{name}: duplicate axes {axes}")
    for a in axes:
        if a < 0 or a >= table.n_axes:
            raise ValueError(f"{name}: axis {a} out of range for {table.n_axes}-axis table")
    return tuple(sorted(axes))


def _plugin_entropy(counts: np.ndarray, total: int) -> float:
    nz = counts[counts > 0]
    p = nz / float(total)
    return float(-(p * np.log2(p)).sum())


def _correction(r_obs, total) -> float:
    """Miller-Madow additive term (R - 1) / (2 N ln 2) for R occupied bins."""
    return (float(r_obs) - 1.0) / (2.0 * total * LN2)


def _entropy_correction(table, axes) -> float:
    marginal = np.atleast_1d(table.marginal(axes) if axes else np.asarray(table.total))
    return _correction(int(np.count_nonzero(marginal)), table.total)


# ---------------------------------------------------------------------------
# table operations
# ---------------------------------------------------------------------------

def entropy(table: ContingencyTable, axes=None) -> InfoEstimate:
    """Shannon entropy H = -sum p log2 p of the marginal over `axes`.

    `axes=None` means all axes. Cells with zero count contribute nothing
    (0 log 0 = 0 by continuity).
    """
    if axes is None:
        axes = tuple(range(table.n_axes))
    axes = _check_axes(table, axes, "entropy")
    plugin = _plugin_entropy(table.marginal(axes), table.total)
    corr = _entropy_correction(table, axes)
    return InfoEstimate(plugin, corr, plugin + corr, table.total, kind="entropy")


def conditional_entropy(table, target_axes, cond_axes) -> InfoEstimate:
    """H(target | cond) = H(target, cond) - H(cond) on plug-in values."""
    target_axes = _check_axes(table, target_axes, "conditional_entropy target")
    cond_axes = _check_axes(table, cond_axes, "conditional_entropy conditioning",
                            allow_empty=True)
    if set(target_axes) & set(cond_axes):
        raise ValueError("target and conditioning axes must be disjoint")
    joint = tuple(sorted(target_axes + cond_axes))
    plugin = (_plugin_entropy(table.marginal(joint), table.total)
              - _plugin_entropy(table.marginal(cond_axes) if cond_axes
                                else np.asarray([table.total]), table.total))
    corr = (_entropy_correction(table, joint)
            - _entropy_correction(table, cond_axes))
    return InfoEstimate(plugin, corr, plugin + corr, table.total,
                        kind="conditional_entropy")


def mutual_information(table, axes_a, axes_b) -> InfoEstimate:
    """I(A;B) = H(A) + H(B) - H(A,B) on plug-in values (symmetric in A, B)."""
    axes_a = _check_axes(table, axes_a, "mutual_information A")
    axes_b = _check_axes(table, axes_b, "mutual_information B")
    if set(axes_a) & set(axes_b):
        raise ValueError("axis sets must be disjoint")
    joint = tuple(sorted(axes_a + axes_b))
    t = table.total
    plugin = (_plugin_entropy(table.marginal(axes_a), t)
              + _plugin_entropy(table.marginal(axes_b), t)
              - _plugin_entropy(table.marginal(joint), t))
    corr = (_entropy_correction(table, axes_a)
            + _entropy_correction(table, axes_b)
            - _entropy_correction(table, joint))
    return InfoEstimate(plugin, corr, plugin + corr, t, kind="mutual_information")


def conditional_mutual_information(table, axes_a, axes_b, cond_axes=()) -> InfoEstimate:
    """I(A;B|C) = H(A,C) + H(B,C) - H(A,B,C) - H(C); reduces to MI for C = {}."""
    axes_a = _check_axes(table, axes_a, "cmi A")
    axes_b = _check_axes(table, axes_b, "cmi B")
    cond_axes = _check_axes(table, cond_axes, "cmi conditioning", allow_empty=True)
    groups = [set(axes_a), set(axes_b), set(cond_axes)]
    for i in range(3):
        for j in range(i + 1, 3):
            if groups[i] & groups[j]:
                raise ValueError("axis sets must be pairwise disjoint")
    t = table.total
    ac = tuple(sorted(axes_a + cond_axes))
    bc = tuple(sorted(axes_b + cond_axes))
    abc = tuple(sorted(axes_a + axes_b + cond_axes))
    h_c = _plugin_entropy(table.marginal(cond_axes), t) if cond_axes else 0.0
    plugin = (_plugin_entropy(table.marginal(ac), t)
              + _plugin_entropy(table.marginal(bc), t)
              - _plugin_entropy(table.marginal(abc), t)
              - h_c)
    corr = (_entropy_correction(table, ac)
            + _entropy_correction(table, bc)
            - _entropy_correction(table, abc)
            - _entropy_correction(table, cond_axes))
    return InfoEstimate(plugin, corr, plugin + corr, t,
                        kind="conditional_mutual_information")


# ---------------------------------------------------------------------------
# counting kernel
# ---------------------------------------------------------------------------

# Surrogates are evaluated in blocks of rows whose largest array holds at
# most this many elements, which bounds memory for long sequences.
SURROGATE_BLOCK_ELEMENTS = 1 << 15


@functools.lru_cache(maxsize=16)
def _clogc(n: int):
    """(table, scale): c log2 c for counts c in [0, n], times `scale`, as int64.

    `scale` is a power of two that keeps sums over n rows' counts (at most
    n log2 n) exact, so equal count tables give equal sums in any order.
    """
    bound = n * max(1, math.ceil(math.log2(n)))
    scale = 2.0 ** (61 - bound.bit_length())
    c = np.arange(n + 1, dtype=np.float64)
    return np.rint(c * np.log2(np.maximum(c, 1.0)) * scale).astype(np.int64), scale


def _joint_ranks(code: np.ndarray, *columns) -> np.ndarray:
    """Fold integer columns into `code`, most significant first, ranking after
    each so codes stay below the row count and keep the tuples' order."""
    for col in columns:
        _, code = np.unique(code * (int(col.max()) + 1) + col,
                            return_inverse=True)
    return code


def _permutation_blocks(rng, n: int, count: int, row_elements: int):
    """`count` permutations of range(n) in (rows, n) blocks, drawn in row
    order from `rng`, so the block size never changes a row's permutation."""
    rows = max(1, SURROGATE_BLOCK_ELEMENTS // row_elements)
    for start in range(0, count, rows):
        yield np.array([rng.permutation(n)
                        for _ in range(min(rows, count - start))])


def _cmi_rows(target, cond, cands, n_perm=0, rng=None) -> np.ndarray:
    """Plug-in CMI(target; cand | cond) under permutations of the target.

    `cond` is a list of columns, `cands` a list of candidates, each a tuple
    of columns. Returns shape (1 + n_perm, len(cands)): row 0 is the
    unpermuted target, row i the i-th permutation drawn from `rng`. Equal
    count tables give bit-equal values in every row.
    """
    n = target.size
    _, t = np.unique(target, return_inverse=True)
    s = _joint_ranks(np.zeros(n, dtype=np.int64), *cond)
    groups = np.stack([s] + [_joint_ranks(s, *cols) for cols in cands])
    width = int(groups.max()) + 1
    cells = (int(t.max()) + 1) * width
    clogc, scale = _clogc(n)
    static = np.array([clogc[np.bincount(g)].sum() for g in groups])

    joint, base = [], ()
    for perms in itertools.chain([np.arange(n)[None]], _permutation_blocks(
            rng, n, n_perm, len(groups) * max(n, cells))):
        # One bincount per block: each (row, group) counts into its own slice.
        rows = perms.shape[0]
        if len(base) < rows:
            base = groups + np.arange(rows * len(groups)).reshape(rows, -1, 1) * cells
        codes = (t[perms] * width)[:, None, :] + base[:rows]
        counts = np.bincount(codes.ravel(), minlength=rows * len(groups) * cells)
        joint.append(clogc[counts.reshape(rows, -1, cells)].sum(axis=2))
    joint = np.concatenate(joint)
    # I(T; C | S) = H(T,S) + H(C,S) - H(T,C,S) - H(S), with
    # H(X) = log2(n) - sum(c log2 c) / n over the counts of X.
    return (joint[:, 1:] - joint[:, :1] - static[1:] + static[0]) / (scale * n)


# ---------------------------------------------------------------------------
# sequence operations
# ---------------------------------------------------------------------------

def _ais_codes(seq: SymbolSequence, lags, k_max_offset: int):
    """Embedded (target, past, joint) codes; ranks keep the table's order."""
    series = embed(seq, lags, k_max_offset)
    if not series.lags:
        raise ValueError("AIS needs a nonempty past state; "
                         "with no memory the caller should report AIS = 0")
    t = series.targets
    past = _joint_ranks(np.zeros_like(t), *series.pasts.T)
    return t, past, _joint_ranks(t, past)


def active_information_storage(seq: SymbolSequence, lags, k_max_offset: int) -> InfoEstimate:
    """AIS: mutual information between the past state and the next value.

    The sequence is embedded at `k_max_offset` with the given lags; AIS is
    the plug-in MI between the target and the past vector of the embedded
    rows, equal to `mutual_information` on their joint table. Counts are
    taken over the occupied states only, so memory grows with the rows,
    not with the alphabet size to the power of the lag count. Zero for
    memoryless processes, bounded above by both H(next value) and H(past
    state).
    """
    t, past, joint = _ais_codes(seq, lags, k_max_offset)
    n = t.size
    plugin = corr = 0.0
    for codes, sign in ((t, 1.0), (past, 1.0), (joint, -1.0)):
        counts = np.bincount(codes)
        plugin += sign * _plugin_entropy(counts, n)
        corr += sign * _correction(int(np.count_nonzero(counts)), n)
    return InfoEstimate(plugin, corr, plugin + corr, n,
                        kind="active_information_storage")


def local_ais(seq: SymbolSequence, lags, k_max_offset: int) -> np.ndarray:
    """Per-row local AIS, log2( p(x_t | past) / p(x_t) ), in bits.

    Uses plug-in probabilities from the embedded rows' own table, so the
    arithmetic mean of the local values equals the plug-in AIS.
    """
    t, past, joint = _ais_codes(seq, lags, k_max_offset)
    c_t, c_p, c_tp = (np.bincount(codes) for codes in (t, past, joint))
    return np.log2(c_tp[joint] * float(t.size) / (c_p[past] * c_t[t]))


def gaze_transition_entropy(seq: SymbolSequence) -> InfoEstimate:
    """GTE: H(X_t | X_{t-1}) over the lag-1 embedded rows.

    Complementary to lag-1 AIS: on the same embedded rows,
    H(X_t) = AIS({1}) + GTE on plug-in values.
    """
    if len(seq) < 2:
        raise ValueError("GTE needs a sequence of length >= 2")
    table = table_from_series(embed(seq, (1,), 1))
    est = conditional_entropy(table, (0,), (1,))
    return replace(est, kind="gaze_transition_entropy")
