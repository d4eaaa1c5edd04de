"""Plug-in information estimators over rank-compressed state codes.

Next-symbol entropy H(X_t), active information storage (AIS), gaze
transition entropy (GTE) and the conditional mutual information (CMI)
of the permutation tests, all in bits (log base 2), with small-sample bias
correction of the Miller-Madow family.

Each estimate is a signed sum of entropies of integer code columns,

    H(X_t)   = H(t)
    AIS      = H(t) + H(past) - H(t, past)
    GTE      = H(t, x_{t-1}) - H(x_{t-1})
    I(T;C|S) = H(T,S) + H(C,S) - H(T,C,S) - H(S),

counted over the codes of one set of embedded rows. An entropy over n rows
is H = log2(n) - sum(c log2 c) / n over its counts c, and `_clogc` holds
each c log2 c times a power of two `scale` as an integer, log2(n) being
clogc[n] / (scale n). So every estimate is one exact int64 numerator over
scale * n: H(X_t) = AIS({1}) + GTE holds exactly on the numerators, and
the reported plug-in AIS is the final test's row 0 bit for bit. Rounding
each term to 1/scale moves an entropy by at most 0.5/scale bits (only
counts of 2 or more round, at most n/2 of them beside clogc[n]), and a
signed sum of k entropies by k times that, before the one float division;
0.5/scale is 8.9e-16 at n = 295 and 4.5e-13 at n = 10^5. Codes are ranked
over the occupied states only, so memory grows with the rows, not as
alphabet^(lags + 1).

H(X_t), AIS and GTE are estimated row-wise (`row_estimates`): the rows of
a (trials, length) symbol matrix are embedded at one offset with one lag
set, and the trial is the most significant column of every state code
(`_fold`). So one bincount per entropy counts every trial's cells, each
trial's cells form one run of codes, and `np.add.reduceat` over those
runs gives each trial's exact integer numerator and its occupied cells.
Each trial's values are those of its row alone, bit for bit; one
sequence is a one-row matrix.

A permutation test sees a permuted target only through its tables, and
draws those directly where that is cheaper, from the hypergeometric law
that permuting the target induces on them. A test of one candidate given
nothing, such as the final AIS test, draws its contingency tables when
they have few cells for the rows (`_table_columns`, `TABLE_DRAW_ROWS`).
Any other test of a target of two codes, such as every selection step on
a binary scanpath, draws the target's tally per joint state of all its
columns (`_state_count_draws`) and sums the tallies into each table.
Every other test permutes the target and counts its surrogate tables in
one of three regimes, picked per test from the code space alone
(`_counting_regime`): a matrix product of the target's indicator rows with
a fixed one-hot matrix of the group states when the target takes at most
PRODUCT_CODES codes and the product stays small; otherwise one dense
bincount per block when a row's tables fit in SURROGATE_BLOCK_ELEMENTS;
otherwise a sort and run-length count per row. All three count the same
integers, and the sums over them are integer sums, so the regime never
changes a value, and an observed table gives the same value drawn or
permuted.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .sequences import SymbolSequence, _embedding

LN2 = math.log(2.0)


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


# ---------------------------------------------------------------------------
# counting kernel
# ---------------------------------------------------------------------------

# Surrogates are evaluated in blocks of rows whose largest array holds at
# most this many elements, or one row, which bounds memory for long
# sequences and large alphabets.
SURROGATE_BLOCK_ELEMENTS = 1 << 15

# A block whose target takes at most PRODUCT_CODES codes is counted as one
# matrix product if that product needs fewer than PRODUCT_MULTIPLIES
# multiply-adds (`_counting_regime`). The product's cost grows with the
# target codes and a bincount's does not: at 295 rows the product was
# faster up to six codes and slower at eight. Below 2**19 multiply-adds
# OpenBLAS, at its default GEMM_MULTITHREAD_THRESHOLD, keeps a product on
# one thread.
PRODUCT_CODES = 4
PRODUCT_MULTIPLIES = 1 << 19

# A test of one candidate given nothing draws its surrogates as contingency
# tables, not permutations, when (m - 1) x (S - 1) x TABLE_DRAW_ROWS <= n for
# m target codes, S past states and n rows (`_table_blocks`). Each table cell
# costs one hypergeometric call over all surrogates; at 200 surrogates one
# call cost about as much as permuting TABLE_DRAW_ROWS rows of the target.
TABLE_DRAW_ROWS = 22

# A test whose target takes two codes, and that does not draw tables, draws
# each surrogate as the count of code 1 in every joint state of its columns,
# COUNT_DRAW_ROWS surrogates per `multivariate_hypergeometric` call
# (`_state_count_draws`). numpy's count sampler carries its shuffled urn from
# one surrogate to the next within a call, so the call size is fixed here and
# never follows the block bound, which would then change the draws. Over
# 88 binary trials of 300 symbols, 25 and 50 rows per call cost within 5 %
# of each other, 10 rows about a fifth more and 200 rows 6-8 % more: small
# calls pay the call's overhead, and large ones draw surrogates that a
# step which stops early never reads.
COUNT_DRAW_ROWS = 25


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


def _ranks(codes: np.ndarray) -> np.ndarray:
    """Dense ranks of nonnegative integer codes: `np.unique`'s inverse.

    A code space of at most 4 rows per code is ranked by counting, which
    skips the sort; the ranks are the same either way.
    """
    space = int(codes.max()) + 1
    if space <= 4 * codes.size:
        return (np.cumsum(np.bincount(codes, minlength=space) > 0) - 1)[codes]
    return np.unique(codes, return_inverse=True)[1]


def _fold(code: np.ndarray, *columns):
    """(codes, space): integer columns folded into `code`, most significant
    first, as mixed-radix codes below `space`, which keep the tuples' order.
    The codes are ranked before a fold that would take their space past 4
    per row, so they stay small, and columns of few codes are folded
    without ranking between."""
    space = int(code.max()) + 1
    for col in columns:
        radix = int(col.max()) + 1
        if space * radix > 4 * code.size:
            code = _ranks(code)
            space = int(code.max()) + 1
        code = code * radix + col
        space *= radix
    return code, space


def _joint_ranks(code: np.ndarray, *columns) -> np.ndarray:
    """Dense ranks of the tuples of `code` and integer columns, most
    significant first (`_fold`); `code` itself without columns."""
    return _ranks(_fold(code, *columns)[0]) if columns else code


def _block_rows(row_elements: int) -> int:
    """Surrogate rows per block when each row holds `row_elements` elements."""
    return max(1, SURROGATE_BLOCK_ELEMENTS // row_elements)


def _permutation_blocks(rng, values: np.ndarray, count: int, row_elements: int):
    """`count` permutations of the 1-D array `values` in (rows, n) blocks,
    drawn in row order from `rng`, so the block size never changes a row's
    permutation. One `permuted` call per block, in place on the tiled
    values, draws what `rng.permutation(n)` row by row draws, and leaves
    `rng` in the same state."""
    rows = _block_rows(row_elements)
    for start in range(0, count, rows):
        block = np.tile(values, (min(rows, count - start), 1))
        yield rng.permuted(block, axis=1, out=block)


def _table_columns(rng, table: np.ndarray, count: int):
    """`count` random tables with the margins of the (m, S) `table`, drawn
    from `rng` and yielded column by column: S int64 arrays of shape
    (count, m), one per state in order.

    Permuting the target leaves the code totals (rows) and the state sizes
    (columns) fixed, and the table of codes against states then follows the
    multivariate hypergeometric law given those margins, which is the law
    drawn here (Patefield 1981, JRSS-C 30:91). In each column but the last,
    each of the first m - 1 codes' cells is one `rng.hypergeometric` call
    over all `count` tables, drawn from the codes' totals not yet placed;
    the last code's cell and the last column follow by subtraction. So
    (m - 1)(S - 1) calls draw every table, and memory holds one column.
    """
    m = table.shape[0]
    left = np.tile(table.sum(axis=1), (count, 1))  # the codes not yet placed
    for size in table.sum(axis=0)[:-1]:
        column = np.empty((count, m), dtype=np.int64)
        need = np.full(count, size)
        rest = left.sum(axis=1)
        for v in range(m - 1):
            rest -= left[:, v]  # the codes after v
            column[:, v] = rng.hypergeometric(left[:, v], rest, need)
            need -= column[:, v]
        column[:, -1] = need
        left -= column
        yield column
    yield left


def _table_blocks(rng, table: np.ndarray, count: int, clogc):
    """Sums of `clogc` over the cells of the (m, S) `table`, then over those of
    `count` random tables with its margins (`_table_columns`): int64 blocks
    of shape (1, 1) and (count, 1); nothing is drawn before the second."""
    yield clogc[table].sum()[None, None]
    if count:
        yield sum(clogc[column].sum(axis=1)
                  for column in _table_columns(rng, table, count))[:, None]


def _state_count_draws(rng, sizes: np.ndarray, drawn: int, count: int):
    """`count` random tallies, per state, of `drawn` rows taken without
    replacement from states of `sizes` rows: int64 blocks of shape
    (rows, len(sizes)), COUNT_DRAW_ROWS rows each but the last, drawn in
    order from `rng`.

    Permuting a target of two codes over rows whose states stay fixed
    places its `drawn` rows of code 1 as one draw without replacement, so
    their tally per state follows the multivariate hypergeometric law given
    the state sizes, which is the law drawn here. numpy's count sampler
    shuffles min(drawn, n - drawn) state labels per tally.
    """
    for start in range(0, count, COUNT_DRAW_ROWS):
        yield rng.multivariate_hypergeometric(
            sizes, drawn, size=min(COUNT_DRAW_ROWS, count - start), method="count")


def _state_count_sums(t, s, full, cands, n_perm, rng, clogc):
    """(static, blocks) of `_cmi_blocks` for a target `t` of codes 0 and 1,
    conditioning state `s` and `full`, the joint state of `s` and every
    candidate column.

    Each group, the conditioning state and each candidate joined with it,
    has a state that is a function of the full state. So a surrogate's
    table of the target against any group is the sum, over the group
    state's full states, of its tally of code 1 per full state
    (`_state_count_draws`); code 0's counts follow by subtraction. Row 0 is
    the observed tally. The group states are ranked over one row of each
    full state, not over all rows. The tallies are summed into group states
    by one product with the one-hot matrix of full states by group states
    while a product of COUNT_DRAW_ROWS tallies stays below
    PRODUCT_MULTIPLIES multiply-adds, and otherwise by a gather and one
    `reduceat` over the full states sorted by group state, in blocks
    bounded by SURROGATE_BLOCK_ELEMENTS, so memory stays linear in the
    rows. Both sum the same integers. `static` and the blocks are those of
    `_cmi_blocks`: int64 H(C,S) - H(S) sums, and per row
    H(T,C,S) - H(T,S) sums, shape (rows, len(cands)).
    """
    sizes = np.bincount(full)
    states = sizes.size
    rep = np.empty(states, dtype=np.intp)
    rep[full] = np.arange(full.size)  # one row of each full state
    s_rep = s[rep]
    folded = [(s_rep, int(s_rep.max()) + 1)] + [
        _fold(s_rep, *(col[rep] for col in cols)) for cols in cands]
    # Each group's state code per full state, group g's above every code of
    # group g - 1: their ranks number the groups' states in group order.
    spaces = np.array([space for _, space in folded])
    cells = _ranks(np.concatenate([code for code, _ in folded])
                   + np.repeat(np.cumsum(spaces) - spaces, states))
    offsets = np.minimum.reduceat(cells, np.arange(0, cells.size, states))
    n_cells = int(cells.max()) + 1
    if COUNT_DRAW_ROWS * states * n_cells < PRODUCT_MULTIPLIES:
        # A float64 sum of counts below 2**53 is exact.
        onehot = np.zeros((states, n_cells))
        onehot[np.arange(cells.size) % states, cells] = 1.0

        def count(tallies):
            return (tallies @ onehot).astype(np.intp)
    else:
        order = np.argsort(cells, kind="stable")
        gather = order % states
        starts = np.searchsorted(cells[order], np.arange(n_cells))

        def count(tallies):
            return np.add.reduceat(tallies[:, gather], starts, axis=1)
    group_sizes = count(sizes[None])[0]
    totals = np.add.reduceat(clogc[group_sizes], offsets)
    # terms[base[v] + c] = clogc[c] + clogc[size - c], both codes' terms of
    # group state v of `size` rows when c of them hold code 1.
    spans = group_sizes + 1
    base = np.cumsum(spans) - spans
    c = np.arange(spans.sum()) - np.repeat(base, spans)
    terms = clogc[c] + clogc[np.repeat(group_sizes, spans) - c]

    def blocks():
        ones = t == 1
        observed = np.bincount(full[ones], minlength=states)[None]
        rows = _block_rows(cells.size)
        for tallies in itertools.chain([observed], _state_count_draws(
                rng, sizes, int(np.count_nonzero(ones)), n_perm)):
            for start in range(0, tallies.shape[0], rows):
                counts = count(tallies[start:start + rows])
                joint = np.add.reduceat(terms[counts + base], offsets, axis=1)
                yield joint[:, 1:] - joint[:, :1]
    return totals[0] - totals[1:], blocks()


def _counting_regime(m: int, width: int, groups: np.ndarray):
    """(regime, row elements) of `_clogc_blocks` for a target of `m` codes
    and the (len(groups), n) group states, all below `width`.

    The rule reads the code space alone. "product" if m <= PRODUCT_CODES
    and one block's product, (m - 1) block rows by n by len(groups) x
    width, has fewer than PRODUCT_MULTIPLIES multiply-adds; else "dense" if
    one row's tables, len(groups) x m x width cells, fit in
    SURROGATE_BLOCK_ELEMENTS; else "sort".
    """
    n_groups, n = groups.shape
    row_elements = n_groups * n
    if (m <= PRODUCT_CODES and _block_rows(row_elements) * (m - 1)
            * row_elements * width < PRODUCT_MULTIPLIES):
        return "product", row_elements
    if n_groups * m * width <= SURROGATE_BLOCK_ELEMENTS:
        return "dense", n_groups * max(n, m * width)
    return "sort", row_elements


def _clogc_blocks(blocks, groups: np.ndarray, m: int, width: int, clogc, regime: str):
    """Per (rows, n) block of target codes `v * width`, v < m, the sums of
    `clogc` over the counts of each (row, group)'s codes
    `block[row] + groups[group]`, with `groups` below `width`: int64, shape
    (rows, len(groups)).

    The regime (`_counting_regime`) changes how the counts are taken, never
    which integers they are, so the sums are equal in every regime:

    - "product": the fixed one-hot matrix H of the group states, shape
      (n, len(groups) x width), gives each block's counts of target code v
      in every (row, group, state) as `(block == v * width) @ H`. In
      float64 every count below 2**53 is an exact integer. The last code's
      counts are the group states' sizes minus the other codes' counts.
    - "dense": each (row, group) is offset into its own slice of m x width
      cells, with the offset groups kept for the largest block, and one
      bincount counts every slice.
    - "sort": each (row, group) is sorted and its run lengths are counted,
      so memory follows the rows, not the cells.
    """
    n_groups, n = groups.shape
    if regime == "product":
        onehot = np.zeros((n, n_groups * width))
        onehot[np.arange(n)[:, None], groups.T + np.arange(n_groups) * width] = 1.0
        sizes = onehot.sum(axis=0)
        values = np.arange(0, (m - 1) * width, width)[:, None, None]
        for block in blocks:
            rows = block.shape[0]
            counts = ((block == values).reshape(-1, n) @ onehot).reshape(
                m - 1, rows, n_groups * width)
            counts = np.concatenate([counts, (sizes - counts.sum(axis=0))[None]])
            yield clogc[counts.astype(np.intp)].reshape(
                m, rows, n_groups, width).sum(axis=(0, 3))
        return
    cells = m * width
    base = ()
    for block in blocks:
        rows = block.shape[0]
        if len(base) < rows:
            base = groups + (np.arange(rows * n_groups) * cells).reshape(rows, -1, 1)
        joint = block[:, None, :] + base[:rows]
        if regime == "dense":
            counts = np.bincount(joint.ravel(), minlength=rows * n_groups * cells)
            yield clogc[counts.reshape(rows, -1, cells)].sum(axis=2)
            continue
        joint = joint.reshape(-1, n)
        joint.sort(axis=1)
        starts = np.ones(joint.shape, dtype=bool)
        np.not_equal(joint[:, 1:], joint[:, :-1], out=starts[:, 1:])
        first = np.flatnonzero(starts)
        runs = np.diff(first, append=joint.size)
        # Each (row, group) opens with a run, so its runs form one segment.
        segments = np.flatnonzero(first % n == 0)
        yield np.add.reduceat(clogc[runs], segments).reshape(rows, -1)


def _cmi_blocks(target, cond, cands, n_perm=0, rng=None):
    """Plug-in CMI(target; cand | cond) under permutations of the target,
    yielded in blocks of rows.

    `cond` is a list of columns, `cands` a list of candidates, each a tuple
    of columns. The first block is row 0, the unpermuted target, with shape
    (1, len(cands)); then come the `n_perm` surrogates drawn from `rng`.
    Row 0 draws nothing from `rng`. Equal count tables give bit-equal
    values in every row, however they were drawn or counted.

    The surrogates are drawn one of three ways, picked from the code space:

    - As contingency tables, when nothing is conditioned on, there is one
      candidate with S states, and (m - 1)(S - 1) x TABLE_DRAW_ROWS <= n
      for the target's m codes: the MI depends on a permuted target only
      through its m x S table of codes against states, whose law given the
      margins `_table_columns` draws directly. Row 0 is the observed table.
      All `n_perm` tables come in one block, so the block bound never
      changes a draw.
    - As tallies per full state, otherwise when the target takes two
      codes: every group's table is a sum of the target's counts in the
      joint states of all the test's columns, which `_state_count_draws`
      draws COUNT_DRAW_ROWS surrogates at a time and `_state_count_sums`
      sums. Row 0 is the observed tally.
    - As permutations otherwise, in row order, in blocks of at most
      `SURROGATE_BLOCK_ELEMENTS`. One `_clogc_blocks` stream counts every
      row, row 0 included.

    A consumer that stops early draws nothing past the block it stopped in.
    All three ways give the same exact null, the permutation distribution
    of the statistic, but from different streams of `rng`.
    """
    n = target.size
    t = _ranks(target)
    m = int(t.max()) + 1
    clogc, scale = _clogc(n)
    s = _joint_ranks(np.zeros(n, dtype=np.int64), *cond)
    single = not cond and len(cands) == 1
    # The joint state of every column: the one candidate's own state, or the
    # state whose tallies a two-code target's surrogates are drawn as.
    full = (_joint_ranks(s, *itertools.chain.from_iterable(cands))
            if single or m == 2 else None)
    tables = single and (m - 1) * int(full.max()) * TABLE_DRAW_ROWS <= n
    # I(T; C | S) = H(T,S) + H(C,S) - H(T,C,S) - H(S), whose log2(n) terms
    # cancel; the sums for H(C,S) and H(S) do not depend on the permutation.
    if m == 2 and not tables:
        static, sums = _state_count_sums(t, s, full, cands, n_perm, rng, clogc)
    else:
        groups = np.stack([s] + ([full] if single else
                                 [_joint_ranks(s, *cols) for cols in cands]))
        width = int(groups.max()) + 1
        static = np.array([clogc[np.bincount(g)].sum() for g in groups])
        static = static[0] - static[1:]
        if not cond:
            # With no conditioning, H(T, S) = H(T) in every permutation: its
            # sum joins `static`, and only the candidates are counted.
            static = static - clogc[np.bincount(t)].sum()
        codes = t * width  # permuted as values: each row is a permuted target
        if tables:
            table = np.bincount(codes + groups[1], minlength=m * width)
            sums = _table_blocks(rng, table.reshape(m, width), n_perm, clogc)
        else:
            counted = groups if cond else groups[1:]
            regime, row_elements = _counting_regime(m, width, counted)
            blocks = itertools.chain(
                [codes[None]], _permutation_blocks(rng, codes, n_perm, row_elements))
            sums = _clogc_blocks(blocks, counted, m, width, clogc, regime)
            if cond:
                sums = (joint[:, 1:] - joint[:, :1] for joint in sums)
    for joint in sums:
        yield (joint + static) / (scale * n)


# ---------------------------------------------------------------------------
# row-wise estimates
# ---------------------------------------------------------------------------

def _row_entropy_terms(folded, n: int):
    """(sums, occupied): per trial of n rows, the int64 sum of `_clogc(n)`
    over the counts of its cells and the number of cells it occupies.

    `folded` is `_fold`'s (codes, space) of columns whose most significant
    is the trial of each row, so one bincount counts every trial's cells
    and each trial's cells lie between its least code and the next trial's,
    where one `reduceat` sums them. A space past 4 codes per row is ranked
    first, so memory follows the rows."""
    codes, space = folded
    if space > 4 * codes.size:
        codes = _ranks(codes)
    counts = np.bincount(codes)
    starts = np.minimum.reduceat(codes, np.arange(0, codes.size, n))
    return (np.add.reduceat(_clogc(n)[0][counts], starts),
            np.add.reduceat(counts > 0, starts, dtype=np.intp))


def _signed_rows(kind: str, n: int, *terms):
    """Per trial, the `InfoEstimate` of the sum of sign * H over
    `(entropy terms, sign)` pairs (`_row_entropy_terms`) of n rows each,
    with the same signed sum of Miller-Madow corrections (R - 1) / (2 n ln 2)
    for R occupied cells, added in the order of the terms.

    H is (clogc[n] - the sum of clogc over its counts) / (scale * n), so
    the plug-in value is one exact integer over scale * n, as
    `_cmi_blocks`' rows are."""
    clogc, scale = _clogc(n)
    numerator, corr = 0, 0.0
    for (sums, occupied), sign in terms:
        numerator = numerator + sign * (clogc[n] - sums)
        corr = corr + sign * (occupied - 1.0) / (2.0 * n * LN2)
    plugin = numerator / (scale * n)
    return [InfoEstimate(p, c, p + c, n, kind=kind)
            for p, c in zip(plugin.tolist(), corr.tolist())]


def _row_terms(symbols: np.ndarray, lags, k_max_offset: int):
    """(n, target, past, joint): every row of the (trials, length) symbol
    matrix embedded at `k_max_offset` with `lags`, n rows per trial, and
    per trial the entropy terms (`_row_entropy_terms`) of the targets, the
    past states and their joint states; past and joint are None without
    lags."""
    lags, offset, n = _embedding(symbols.shape[1], lags, k_max_offset)
    trials, length = symbols.shape
    trial = np.repeat(np.arange(trials), n)
    t = symbols[:, offset:].ravel()
    target = _row_entropy_terms(_fold(trial, t), n)
    if not lags:
        return n, target, None, None
    past = _fold(trial, *(symbols[:, offset - lag:length - lag].ravel()
                          for lag in lags))
    return (n, target, _row_entropy_terms(past, n),
            _row_entropy_terms(_fold(past[0], t), n))


def row_estimates(symbols: np.ndarray, lags, k_max_offset: int):
    """(entropies, ais): H(X_t) and the AIS of every row of the
    (trials, length) symbol matrix, each row embedded at `k_max_offset`
    with `lags`, as lists of `InfoEstimate` by row; `ais` is None without
    lags.

    The trial is the most significant column of every state code, so one
    bincount per entropy counts the cells of all trials, and each trial's
    values equal those of its row alone, bit for bit."""
    n, target, past, joint = _row_terms(symbols, lags, k_max_offset)
    entropies = _signed_rows("entropy", n, (target, 1))
    if past is None:
        return entropies, None
    return entropies, _signed_rows("active_information_storage", n,
                                   (target, 1), (past, 1), (joint, -1))


def next_symbol_entropy(seq: SymbolSequence, k_max_offset: int) -> InfoEstimate:
    """H(X_t) over the targets of the rows embedded at `k_max_offset`."""
    return row_estimates(seq.symbols[None], (), k_max_offset)[0][0]


def active_information_storage(seq: SymbolSequence, lags, k_max_offset: int) -> InfoEstimate:
    """AIS: mutual information between the past state and the next value.

    The sequence is embedded at `k_max_offset` with the given lags; AIS is
    the plug-in MI between the target and the past vector of the embedded
    rows. Counts are taken over the occupied states only, so memory grows
    with the rows, not with the alphabet size to the power of the lag
    count. Zero for memoryless processes, bounded above by both H(next
    value) and H(past state).
    """
    ais = row_estimates(seq.symbols[None], lags, k_max_offset)[1]
    if ais is None:
        raise ValueError("AIS needs a nonempty past state; "
                         "with no memory the caller should report AIS = 0")
    return ais[0]


def gaze_transition_entropy(seq: SymbolSequence) -> InfoEstimate:
    """GTE: H(X_t | X_{t-1}) over the lag-1 embedded rows.

    Counted on the codes of lag-1 AIS, so memory grows with the rows, not
    as alphabet^2, and on the same embedded rows H(X_t) = AIS({1}) + GTE
    holds on plug-in values.
    """
    if len(seq) < 2:
        raise ValueError("GTE needs a sequence of length >= 2")
    n, _, past, joint = _row_terms(seq.symbols[None], (1,), 1)
    return _signed_rows("gaze_transition_entropy", n, (joint, 1), (past, -1))[0]
