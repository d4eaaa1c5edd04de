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

Permutation tests run in batches (`_CmiTests`), such as one selection
step of every trial of a run, with the test index folded in as the most
significant column of every state code, as the trial is in
`row_estimates`. The observed CMIs of all tests come from one count per
entropy. Their surrogates advance round by round: each round every open
test draws its next block from its own generator, in the order and sizes
it would alone, and one pass per chunk of tests sums the tallies of all
open two-code tests into their tables (`_TallyChunk`); the tests that
permute or draw tables count their blocks one by one. So every value and
every draw of a test is the one it has alone.
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
# m target codes, S past states and n rows (`_table_sums`). Each table cell
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


def _table_sums(rng, table: np.ndarray, count: int, clogc):
    """The sums of `clogc` over the cells of `count` random tables with the
    margins of the (m, S) `table` (`_table_columns`), as one int64 block of
    shape (count, 1), drawn when it is asked for."""
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


def _clogc_tables(n: np.ndarray):
    """(table, offsets, scales): `_clogc` of every test's row count n[i] in
    one table, where test i reads c log2 c of a count c at offsets[i] + c,
    and each test's scale."""
    sizes, which = np.unique(n, return_inverse=True)
    tables = [_clogc(int(size)) for size in sizes]
    table = (tables[0][0] if len(tables) == 1
             else np.concatenate([values for values, _ in tables]))
    lengths = sizes + 1
    return (table, (np.cumsum(lengths) - lengths)[which],
            np.array([scale for _, scale in tables])[which])


class _TallyChunk:
    """Tests of two-code targets whose tallies are summed into their group
    states together, each round (`_tally_chunks`).

    Each test's cells are laid out as `groups` rows of `width` cells, its
    conditioning state's first, then each candidate's; `width` is a power
    of two, so a row's terms sum by halving. When c of a cell's
    rows hold code 1, both codes' terms are clogc[offset + c] +
    clogc[sizes - c], `offsets` the test's offset into the clogc table
    (`_clogc_tables`) and `sizes` the cell's rows plus that offset; a cell
    the test does not have has no rows and adds 0. With `onehot`, the
    (tests, states, groups x width) one-hot matrices of full states by
    cells, a round's tallies are summed by one stacked product; without,
    the chunk is one test, summed by a gather and one `reduceat` over its
    full states sorted by cell, in blocks of SURROGATE_BLOCK_ELEMENTS.
    """

    def __init__(self, tests, states, groups, width, sizes, offsets,
                 onehot=None, gather=None):
        self.tests, self.states, self.groups, self.width = (
            tests, states, groups, width)
        self.sizes, self.offsets = sizes, offsets
        self.onehot, self.gather = onehot, gather

    def joint(self, tallies, sel, clogc):
        """Per (test, tally, group), the int64 sum of both codes' terms over
        the group's states: shape (len(sel), rows, groups) for the chunk's
        tests `sel` and their tallies of code 1 per full state."""
        if self.onehot is None:
            (tallies,) = tallies
            occupied, gather, starts = self.gather
            rows = _block_rows(self.groups * max(self.states, self.width))
            joint = []
            for start in range(0, tallies.shape[0], rows):
                block = tallies[start:start + rows]
                counts = np.zeros((1, block.shape[0], self.groups * self.width),
                                  dtype=np.intp)
                counts[0][:, occupied] = np.add.reduceat(block[:, gather], starts, axis=1)
                joint.append(self._sums(counts, sel, clogc))
            return np.concatenate(joint, axis=1)
        x = np.zeros((sel.size, tallies[0].shape[0], self.states))
        for block, tally in zip(x, tallies):
            block[:, :tally.shape[1]] = tally
        onehot = self.onehot if sel.size == self.tests.size else self.onehot[sel]
        # A float64 sum of counts below 2**53 is exact.
        return self._sums((x @ onehot).astype(np.intp), sel, clogc)

    def _sums(self, counts, sel, clogc):
        terms = (clogc[counts + self.offsets[sel, None, None]]
                 + clogc[self.sizes[sel, None] - counts])
        terms = terms.reshape(*counts.shape[:2], self.groups, self.width)
        while terms.shape[3] > 1:  # a power of two, halved in strided adds
            terms = terms[..., ::2] + terms[..., 1::2]
        return terms[..., 0]


def _tally_chunks(tests, n_perm, groups, first_full, states, offsets):
    """The `_TallyChunk`s of the two-code `tests` of a `_CmiTests` batch.

    `groups` holds, for the conditioning state and then each candidate,
    (firsts, cells, codes, sizes): each test's least state and its number
    of states, and for each full state, the joint state of all columns,
    its state in the group and that state's rows. `first_full` and
    `states` are each test's least full state and number of them. The
    tests are sorted by their states and cells and cut into chunks whose
    arrays of one round, at min(COUNT_DRAW_ROWS, n_perm) tallies, hold at
    most SURROGATE_BLOCK_ELEMENTS elements each. A test whose product of
    COUNT_DRAW_ROWS tallies would reach PRODUCT_MULTIPLIES multiply-adds is
    a chunk of its own, summed by gathering, so memory stays linear in the
    rows.
    """
    # Each test's most states in one group, to the next power of two.
    width = 1 << np.ceil(np.log2(np.max([cells[tests] for _, cells, _, _ in groups],
                                        axis=0))).astype(np.intp)
    n_groups, rows = len(groups), min(COUNT_DRAW_ROWS, n_perm)
    chunks, members, limit = [], [], (0, 0)
    for j in np.lexsort((width, states[tests])):
        need = (states[tests[j]], n_groups * width[j])
        if COUNT_DRAW_ROWS * need[0] * need[1] >= PRODUCT_MULTIPLIES:
            chunks.append(([tests[j]], False))
            continue
        grown = (max(limit[0], need[0]), max(limit[1], need[1]))
        if members and (len(members) + 1) * max(rows * grown[0], grown[0] * grown[1],
                                                rows * grown[1]) > SURROGATE_BLOCK_ELEMENTS:
            chunks.append((members, True))
            members, grown = [], need
        members.append(tests[j])
        limit = grown
    if members:
        chunks.append((members, True))

    out = []
    for members, product in chunks:
        members = np.array(members)
        count = states[members]
        test = np.repeat(np.arange(members.size), count)
        state = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
        full = first_full[members][test] + state
        cell_width = int(width[np.searchsorted(tests, members)].max())
        columns = [g * cell_width + codes[full] - firsts[members][test]
                   for g, (firsts, _, codes, _) in enumerate(groups)]
        cell_sizes = np.zeros((members.size, n_groups * cell_width), dtype=np.intp)
        for column, (_, _, _, sizes) in zip(columns, groups):
            cell_sizes[test, column] = sizes[full]
        args = (members, int(count.max()), n_groups, cell_width,
                cell_sizes + offsets[members, None], offsets[members])
        if product:
            onehot = np.zeros((members.size, int(count.max()), n_groups * cell_width))
            for column in columns:
                onehot[test, state, column] = 1.0
            out.append(_TallyChunk(*args, onehot=onehot))
            continue
        column = np.concatenate(columns)
        order = np.argsort(column, kind="stable")
        occupied, first_entry = np.unique(column[order], return_index=True)
        out.append(_TallyChunk(*args, gather=(
            occupied, np.tile(state, n_groups)[order], first_entry)))
    return out


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


class _CmiTests:
    """Plug-in CMI(target; cand | cond) of a batch of permutation tests: row
    0 of every test, then its surrogates, drawn round by round.

    Test i owns n[i] consecutive rows of the 1-D `target`, of the (rows, C)
    matrix `cond` and of each (rows, W) matrix in `cands`, one per
    candidate: every test conditions on C columns and weighs the same
    number of candidates. A candidate of fewer columns in some test is
    padded with constant columns or copies of its own, which change none
    of its states. The
    test index is the most significant column of every state code
    (`_fold`), so one bincount per entropy counts every test's cells, and
    `np.add.reduceat` from each test's least code gives its exact integer
    sums, each over c log2 c of its own row count (`_clogc_tables`).
    `observed` holds row 0, shape (tests, candidates): each test's values
    are those it has alone, bit for bit.

    With `n_perm`, test i draws `n_perm` surrogates from `rngs[i]`, in one
    of three ways picked from its code space:

    - As contingency tables (`_table_sums`), when nothing is conditioned
      on, there is one candidate with S states, and (m - 1)(S - 1) x
      TABLE_DRAW_ROWS <= n for the target's m codes: the MI depends on a
      permuted target only through its m x S table of codes against
      states, whose law given the margins `_table_columns` draws directly.
      All `n_perm` tables come in one round.
    - As tallies per full state, otherwise when the target takes two codes:
      every group's table is a sum of the target's counts in the joint
      states of all the test's columns, which `_state_count_draws` draws
      COUNT_DRAW_ROWS surrogates a round. The tests are cut into chunks
      (`_tally_chunks`); each round, one pass per chunk sums every test's
      tallies into its group states and their terms.
    - As permutations otherwise, in row order, in blocks of at most
      `SURROGATE_BLOCK_ELEMENTS`, one block a round, each counted by its
      test's own `_clogc_blocks` stream in the regime that its code space
      picks (`_counting_regime`), since that cost is per row.

    All three ways give the same exact null, the permutation distribution
    of the statistic, but from different streams. Each round (`draw`)
    advances the open tests; a test the consumer closes draws nothing
    more, so it draws nothing past the block it stopped in. A test's draws, in their order and sizes, do not
    depend on the other tests of its batch.
    """

    def __init__(self, n, target, cond, cands, n_perm=0, rngs=()):
        n = np.asarray(n, dtype=np.intp)
        starts = np.cumsum(n) - n
        trial = np.repeat(np.arange(n.size), n)
        clogc, offsets, scales = _clogc_tables(n)
        self.denom = scales * n
        t = _ranks(_fold(trial, target)[0])
        t -= np.minimum.reduceat(t, starts)[trial]
        s = _joint_ranks(trial, *cond.T)
        conditioned = cond.shape[1] > 0
        self._tally = np.zeros(n.size, dtype=bool)
        self._streams, self._chunks = {}, []
        full = None
        if n_perm:
            # The joint state of all columns, which fixes every group's state.
            full = _joint_ranks(s, *(col for cols in cands for col in cols.T))
            first_full = np.minimum.reduceat(full, starts)
            states = np.diff(first_full, append=int(full.max()) + 1)
            m = np.maximum.reduceat(t, starts) + 1
            tables = ((not conditioned and len(cands) == 1)
                      & ((m - 1) * (states - 1) * TABLE_DRAW_ROWS <= n))
            self._tally = (m == 2) & ~tables
            rep = np.empty(states.sum(), dtype=np.intp)
            rep[full] = np.arange(full.size)  # one row of each full state
            # The rows of the tests counted alone, in order.
            apart = np.flatnonzero(~self._tally[trial])
        shared = offsets if offsets.any() else None

        def sums(*columns):
            return _entropy_terms(_fold(*columns), starts, clogc, shared)[0]
        # I(T; C | S) = H(T,S) + H(C,S) - H(T,C,S) - H(S), whose log2(n)
        # terms cancel, over the c log2 c sums of every group, the
        # conditioning state's and each candidate's, with and without the
        # target. A group's rows are dropped once counted, so memory holds
        # one group's at a time.
        alone, joint, groups = [], [], []
        for code in itertools.chain([s], (
                full if full is not None and len(cands) == 1
                else _joint_ranks(s, *cols.T) for cols in cands)):
            alone.append(sums(code))
            joint.append(sums(code, t))
            if n_perm:
                first = np.minimum.reduceat(code, starts)
                groups.append((first, np.diff(first, append=int(code.max()) + 1),
                               code[rep], np.bincount(code)[code[rep]], code[apart]))
        alone, joint = np.stack(alone, axis=1), np.stack(joint, axis=1)
        self.static = alone[:, :1] - alone[:, 1:]
        self.observed = ((joint[:, 1:] - joint[:, :1]) + self.static) / self.denom[:, None]
        if not n_perm:
            return

        t_apart, full_apart = t[apart], full[apart]
        at = np.cumsum(n * ~self._tally) - n
        for i in np.flatnonzero(~self._tally):
            rows = slice(at[i], at[i] + n[i])
            codes, clogc_i = int(m[i]), _clogc(int(n[i]))[0]
            # Without conditioning, H(T, S) = H(T) in every permutation: its
            # sum joins the static part, and only the candidates are counted.
            static = self.static[i] - (0 if conditioned else joint[i, 0])
            if tables[i]:
                width = int(states[i])
                table = np.bincount(t_apart[rows] * width + full_apart[rows]
                                    - first_full[i], minlength=codes * width)
                blocks = _table_sums(rngs[i], table.reshape(codes, width), n_perm,
                                     clogc_i)
            else:
                local = np.stack([code[rows] - first[i]
                                  for first, _, _, _, code in groups])
                width = int(local.max()) + 1
                counted = local if conditioned else local[1:]
                regime, row_elements = _counting_regime(codes, width, counted)
                blocks = _clogc_blocks(
                    _permutation_blocks(rngs[i], t_apart[rows] * width, n_perm,
                                        row_elements),
                    counted, codes, width, clogc_i, regime)
                if conditioned:
                    blocks = (sums[:, 1:] - sums[:, :1] for sums in blocks)
            self._streams[i] = _cmi_rows(blocks, static, self.denom[i])
        tests = np.flatnonzero(self._tally)
        if tests.size:
            sizes = np.bincount(full)
            ones = np.add.reduceat(t == 1, starts, dtype=np.intp)
            for i in tests:
                self._streams[i] = _state_count_draws(
                    rngs[i], sizes[first_full[i]:first_full[i] + states[i]],
                    int(ones[i]), n_perm)
            self._clogc = clogc
            self._chunks = _tally_chunks(tests, n_perm, [g[:4] for g in groups],
                                         first_full, states, offsets)

    @classmethod
    def single(cls, target, cond, cands, n_perm=0, rng=None):
        """One test: `cond` a list of columns, `cands` a list of candidates,
        each a tuple of columns."""
        def matrix(columns):
            return np.column_stack(columns) if len(columns) else np.zeros(
                (target.size, 0), dtype=np.int64)
        return cls([target.size], target, matrix(cond),
                   [matrix(cols) for cols in cands], n_perm, [rng])

    def draw(self, is_open):
        """One round of the open tests, `is_open` the caller's mask of them,
        which the caller updates as it counts each block: yields (tests,
        cmis) pairs, `cmis` the CMIs of each test's next block of
        surrogates, shape (len(tests), rows, candidates). A test counted
        alone yields its blocks one after another while it stays open, and
        then drops its stream, so one such test at a time holds its arrays;
        then each chunk of two-code tests yields one block of every open
        test it holds."""
        for i in np.flatnonzero(is_open & ~self._tally):
            stream = self._streams.pop(i)
            while is_open[i]:
                yield np.array([i]), next(stream)[None]
        for chunk in self._chunks:
            sel = np.flatnonzero(is_open[chunk.tests])
            if not sel.size:
                continue
            tests = chunk.tests[sel]
            joint = chunk.joint([next(self._streams[i]) for i in tests], sel,
                                self._clogc)
            yield tests, (((joint[..., 1:] - joint[..., :1]) + self.static[tests, None])
                          / self.denom[tests, None, None])


def _cmi_rows(blocks, static, denom):
    """The CMIs (sums + static) / denom of int64 blocks of sums."""
    for sums in blocks:
        yield (sums + static) / denom


# ---------------------------------------------------------------------------
# row-wise estimates
# ---------------------------------------------------------------------------

def _entropy_terms(folded, starts, clogc, offsets=None):
    """(sums, occupied): per trial, the int64 sum of c log2 c over the
    counts of its cells (`_clogc`) and the number of cells it occupies.

    `folded` is `_fold`'s (codes, space) of columns whose most significant
    is the trial of each row, and trial i's rows begin at starts[i]. So one
    bincount counts every trial's cells, and each trial's cells lie between
    its least code and the next trial's, where one `reduceat` sums them. A
    trial reads count c at clogc[offsets[i] + c] (`_clogc_tables`), or at
    clogc[c] without `offsets`. A space past 4 codes per row is ranked
    first, so memory follows the rows."""
    codes, space = folded
    if space > 4 * codes.size:
        codes = _ranks(codes)
    firsts = np.minimum.reduceat(codes, starts)
    counts = np.bincount(codes)[firsts[0]:]
    firsts -= firsts[0]
    index = counts
    if offsets is not None:
        index = counts + np.repeat(offsets, np.diff(firsts, append=counts.size))
    return (np.add.reduceat(clogc[index], firsts),
            np.add.reduceat(counts > 0, firsts, dtype=np.intp))


def _signed_rows(kind: str, n: int, *terms):
    """Per trial, the `InfoEstimate` of the sum of sign * H over
    `(entropy terms, sign)` pairs (`_entropy_terms`) of n rows each,
    with the same signed sum of Miller-Madow corrections (R - 1) / (2 n ln 2)
    for R occupied cells, added in the order of the terms.

    H is (clogc[n] - the sum of clogc over its counts) / (scale * n), so
    the plug-in value is one exact integer over scale * n, as
    the rows of `_CmiTests` are."""
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
    per trial the entropy terms (`_entropy_terms`) of the targets, the
    past states and their joint states; past and joint are None without
    lags."""
    lags, offset, n = _embedding(symbols.shape[1], lags, k_max_offset)
    trials, length = symbols.shape
    trial = np.repeat(np.arange(trials), n)
    starts, clogc = np.arange(0, trials * n, n), _clogc(n)[0]
    t = symbols[:, offset:].ravel()
    target = _entropy_terms(_fold(trial, t), starts, clogc)
    if not lags:
        return n, target, None, None
    past = _fold(trial, *(symbols[:, offset - lag:length - lag].ravel()
                          for lag in lags))
    return (n, target, _entropy_terms(past, starts, clogc),
            _entropy_terms(_fold(past[0], t), starts, clogc))


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
