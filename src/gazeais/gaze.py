"""Raw gaze recordings to AOI symbol sequences.

Pipeline: confidence filter -> dispersion-threshold (IDT) fixation
detection -> maximum-duration filter -> AOI mapping on fixation centroids.
Each trial's samples are one numpy structured array of `GAZE_DTYPE`, and
its fixations one of `FIXATION_DTYPE`.
Conventions (documented because every one of them is a boundary call):
a sample whose x, y or confidence is not finite is invalid, dropped and
counted; confidence >= threshold is retained, dispersion <= threshold is
accepted, duration strictly above the maximum is excluded (samples below
the confidence threshold and excluded fixations are counted too), AOI
rectangles are half-open ([x_min, x_max) x [y_min, y_max)) so adjacent regions
partition cleanly, and overlaps are resolved by explicit priority.
"""

import codecs
import csv
import json
import logging
import math
import warnings
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from numbers import Real
from operator import itemgetter
from typing import List

import numpy as np

from .sequences import SymbolSequence

log = logging.getLogger(__name__)


# One gaze sample: timestamp in seconds, x and y in pixels, confidence in [0, 1].
GAZE_DTYPE = np.dtype([("timestamp", "f8"), ("x", "f8"), ("y", "f8"),
                       ("confidence", "f8")])

# One fixation: start in seconds, duration in milliseconds, centroid in
# pixels, and the number of samples it spans.
FIXATION_DTYPE = np.dtype([("start_time", "f8"), ("duration", "f8"),
                           ("centroid_x", "f8"), ("centroid_y", "f8"),
                           ("sample_count", "i8")])


def _is_whole(value) -> bool:
    """True for an int that is not a bool, or a float with no fraction."""
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            or isinstance(value, float) and value.is_integer())


def _field(doc, key: str, owner: str):
    """`doc[key]`; a missing key, or a `doc` that is not a JSON object, is
    an error that names `owner` and the field."""
    if not isinstance(doc, dict):
        raise ValueError(f"{owner}: expected a JSON object, got "
                         f"{type(doc).__name__}")
    if key not in doc:
        raise ValueError(f"{owner}: missing field {key!r}")
    return doc[key]


def _json_list(value, what: str) -> list:
    """`value`, which must be a JSON array; `what` names it in the error."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {type(value).__name__}")
    return value


def _trial_owner(doc) -> str:
    """Names a trial entry by the ids it holds, for error messages."""
    ids = [f"{word} {str(doc[key])!r}" for word, key in
           (("participant", "participant_id"), ("trial", "trial_id"))
           if isinstance(doc, dict) and key in doc]
    return " ".join(ids) or "trial entry"


def _load_json(path, parse=lambda doc: doc):
    """`parse` of the JSON document in the file `path`; malformed JSON, or
    a ValueError from `parse`, is an error that names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse(json.load(fh))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _whole_number(value, what: str) -> int:
    """`value` as an int; a bool, a fraction or a non-number is an error."""
    if not _is_whole(value):
        raise ValueError(f"{what} must be a whole number, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class AOIRegion:
    id: int
    rect: tuple  # (x_min, y_min, x_max, y_max), pixels
    priority: int = 0
    name: str = ""

    def __post_init__(self):
        try:
            x_min, y_min, x_max, y_max = self.rect
            four_numbers = all(isinstance(v, Real) for v in self.rect)
        except (TypeError, ValueError):
            four_numbers = False
        if not four_numbers:
            raise ValueError(f"AOI {self.id}: rect must hold four numbers "
                             f"(x_min, y_min, x_max, y_max), got {self.rect!r}")
        if not (x_min < x_max and y_min < y_max):
            raise ValueError(f"AOI {self.id}: degenerate rect {self.rect}")

    def contains(self, x: float, y: float) -> bool:
        x_min, y_min, x_max, y_max = self.rect
        return x_min <= x < x_max and y_min <= y < y_max


@dataclass
class Trial:
    participant_id: str
    condition: str
    trial_id: str
    samples: np.ndarray  # GAZE_DTYPE, one record per sample

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=GAZE_DTYPE)
        ts = self.samples["timestamp"]
        if not (np.isfinite(ts).all() and np.all(np.diff(ts) > 0)):
            raise ValueError(f"trial {self.trial_id!r}: timestamps must be "
                             f"finite and strictly increasing")


@dataclass(frozen=True)
class PipelineParams:
    min_confidence: float = 0.9
    dispersion_threshold: float = 50.0   # pixels
    min_duration_ms: float = 100.0
    max_duration_ms: float = 1500.0
    collapse_repeats: bool = False

    def __post_init__(self):
        # Every comparison with NaN is false, so a NaN threshold would
        # silently drop every sample or fixation, or shrink every window
        # to one sample.
        for name in ("min_confidence", "dispersion_threshold",
                     "min_duration_ms", "max_duration_ms"):
            if math.isnan(getattr(self, name)):
                raise ValueError(f"pipeline parameter {name} is NaN; "
                                 f"give a number")


@dataclass
class ScanpathRecord:
    """One trial's symbol sequence plus bookkeeping for reports."""

    trial_id: str
    participant_id: str
    condition: str
    symbols: np.ndarray
    alphabet_size: int
    dropped_fixations: int = 0
    invalid_samples: int = 0
    low_confidence_samples: int = 0
    long_fixations: int = 0

    @property
    def sequence(self) -> SymbolSequence:
        return SymbolSequence(self.symbols, self.alphabet_size)

    def to_dict(self) -> dict:
        return {
            "trial_id": self.trial_id,
            "participant_id": self.participant_id,
            "condition": self.condition,
            "symbols": np.asarray(self.symbols, dtype=np.int64).tolist(),
            "alphabet_size": int(self.alphabet_size),
            "dropped_fixations": int(self.dropped_fixations),
            "invalid_samples": int(self.invalid_samples),
            "low_confidence_samples": int(self.low_confidence_samples),
            "long_fixations": int(self.long_fixations),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ScanpathRecord":
        owner = _trial_owner(doc)
        trial_id, participant_id, condition, symbols = (
            _field(doc, key, owner)
            for key in ("trial_id", "participant_id", "condition", "symbols"))
        if not isinstance(symbols, (list, tuple, np.ndarray)):
            raise ValueError(f"{owner}: symbols must be a list, got {symbols!r}")
        # JSON symbols are plain ints, which one pass over their types
        # accepts; anything else is checked one by one, to name the first
        # that is not whole (a bool's type is not int, so it is checked).
        if not set(map(type, symbols)) <= {int}:
            bad = next((i for i, s in enumerate(symbols) if not _is_whole(s)), None)
            if bad is not None:
                raise ValueError(f"{owner}: symbols[{bad}] must be a whole number, "
                                 f"got {symbols[bad]!r}")
        alphabet_size = _whole_number(_field(doc, "alphabet_size", owner),
                                      f"{owner}: alphabet_size")
        try:  # an alphabet_size below 1, or a symbol outside the alphabet
            seq = SymbolSequence(symbols, alphabet_size)
        except ValueError as exc:
            raise ValueError(f"{owner}: {exc}") from None
        counts = {key: _whole_number(doc.get(key, 0), f"{owner}: {key}")
                  for key in ("dropped_fixations", "invalid_samples",
                              "low_confidence_samples", "long_fixations")}
        return cls(trial_id=str(trial_id), participant_id=str(participant_id),
                   condition=str(condition), symbols=seq.symbols,
                   alphabet_size=seq.alphabet_size, **counts)


# ---------------------------------------------------------------------------
# pipeline stages
# ---------------------------------------------------------------------------

def _finite(samples) -> np.ndarray:
    """Mask of the samples whose x, y and confidence are all finite."""
    return (np.isfinite(samples["x"]) & np.isfinite(samples["y"])
            & np.isfinite(samples["confidence"]))


def _retained(samples, finite: np.ndarray, min_confidence: float) -> np.ndarray:
    """Mask of the samples in `finite` with confidence >= the threshold."""
    return finite & (samples["confidence"] >= min_confidence)


def filter_gaze(samples,
                min_confidence=PipelineParams.min_confidence) -> np.ndarray:
    """Keep the finite samples with confidence >= the threshold."""
    return samples[_retained(samples, _finite(samples), min_confidence)]


def _window_ends(ts, min_duration: float) -> np.ndarray:
    """Per start i, the first j >= i with (ts[j] - ts[i]) * 1000 >= min_duration.

    n where no sample covers the minimum duration. `searchsorted` on
    ts + min_duration / 1000 rounds differently from that comparison, so
    each estimate is stepped to the exact end; the comparison is monotone
    in j, so the steps settle within a sample or two. The ends never
    decrease with i.
    """
    n = len(ts)
    first = np.arange(n)
    if not min_duration > 0:
        return first  # the one-sample window already covers it
    ends = np.maximum(np.searchsorted(ts, ts + min_duration / 1000.0), first)

    def short(at, j):
        return (ts[j] - ts[at]) * 1000.0 < min_duration

    at = np.flatnonzero(ends < n)
    while at.size:
        at = at[short(at, ends[at])]
        ends[at] += 1
        at = at[ends[at] < n]
    at = np.flatnonzero(ends > first)
    while at.size:
        at = at[~short(at, ends[at] - 1)]
        ends[at] -= 1
        at = at[ends[at] > at]
    return ends


def _window_extremes(rows: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Maxima of x, -x, y and -y over samples i..ends[i], as (4, starts).

    `rows` holds x, -x, y and -y, so a maximum gives every extreme. A
    sparse table answers each window from two overlapping blocks of 2**k
    samples, k = floor(log2(length)). Levels are built one at a time and
    only up to the longest window, so memory stays linear in n.
    """
    levels = np.frexp(ends - np.arange(len(ends)) + 1)[1] - 1
    extremes = np.empty((4, len(ends)))
    table = rows
    for k in range(int(levels.max(initial=-1)) + 1):
        if k:
            half = 1 << (k - 1)
            table = np.maximum(table[:, :-half], table[:, half:])
        at = np.flatnonzero(levels == k)
        top = table.take(at, axis=1)
        np.maximum(top, table.take(ends[at] - (1 << k) + 1, axis=1), out=top)
        extremes[:, at] = top
    return extremes


def _dispersion(top: np.ndarray) -> np.ndarray:
    """The dispersion from maxima of x, -x, y and -y along the first axis.

    max - min == max + (-min) bit for bit.
    """
    return (top[0] + top[1]) + (top[2] + top[3])


# Float elements of one gathered block in `_fixation_ends`. It bounds the
# memory of growing many fixations at once, whatever their number.
GROWTH_BLOCK_ELEMENTS = 1 << 16


def _fixation_ends(rows: np.ndarray, top: np.ndarray, window_ends: np.ndarray,
                   dispersion_threshold: float) -> np.ndarray:
    """Last sample of each fixation, given its window's end and maxima.

    `top` holds the maxima of x, -x, y and -y over each window, whose
    dispersion is within the threshold. The running dispersion from a
    start never decreases, so its fixation ends before the first later
    sample that takes it over, or on the last sample.

    All fixations grow at once, in blocks of (4, starts, span + 1) gathered
    samples. Column 0 is the last sample already taken, the window's at
    first, and holds the running maxima up to it. Running maxima along the
    block give each sample's dispersion. The first span is 64 samples. A
    start still within the threshold at the end of its block takes a span
    twice as long next, up to GROWTH_BLOCK_ELEMENTS / 4, and a block holds
    as many starts as that bound allows.
    """
    n = rows.shape[1]
    last = np.empty(len(window_ends), dtype=np.intp)
    at, head, top = np.arange(len(window_ends)), window_ends.copy(), top.copy()
    size = 64
    while True:
        per = max(GROWTH_BLOCK_ELEMENTS // (4 * (size + 1)), 1)
        offsets = np.arange(size + 1)
        within = np.empty(at.size, dtype=np.intp)
        for lo in range(0, at.size, per):
            span = slice(lo, lo + per)
            # Past the last sample the clipped index repeats it, which
            # leaves the running maxima as they are.
            block = rows.take(head[span, None] + offsets, axis=1, mode="clip")
            block[:, :, 0] = top[:, span]
            np.maximum.accumulate(block, axis=2, out=block)
            # The dispersion never decreases, so the columns within the
            # threshold come first.
            within[span] = np.add.reduce(
                _dispersion(block) <= dispersion_threshold, axis=1)
            top[:, span] = block[:, :, -1]
        head += within - 1
        last[at] = head
        more = ((within > size) & (head < n - 1)).nonzero()[0]
        if not more.size:
            return np.minimum(last, n - 1)
        at, head, top = at[more], head[more], top[:, more]
        if 8 * size <= GROWTH_BLOCK_ELEMENTS:
            size *= 2


def detect_fixations_idt(
        samples, dispersion_threshold=PipelineParams.dispersion_threshold,
        min_duration=PipelineParams.min_duration_ms) -> np.ndarray:
    """Classic dispersion-threshold fixation detection, as a `FIXATION_DTYPE`
    array in time order.

    Grow a window from the earliest unconsumed sample until it covers
    min_duration (ms). If its dispersion (max x - min x) + (max y - min y)
    is within the threshold, extend the window while the next sample keeps
    it within, emit a fixation at the centroid of the window, and consume
    it; otherwise slide forward by one sample. Fixations never overlap.
    `samples` is a `GAZE_DTYPE` array with finite x, y and timestamps, the
    timestamps strictly increasing; anything else raises ValueError.

    Every start's window and its maxima are computed at once (a
    `searchsorted` on the timestamps, a sparse table of running maxima),
    which gives the candidate starts, those whose window is within the
    threshold. A fixation's end depends only on its start, and the first
    candidate after a fixation is either the next sample or a head: a
    candidate whose previous sample is not one. So one batched
    `_fixation_ends` call grows every head's fixation from its window's
    maxima before the walk along the chain of fixations, which runs on
    Python ints. The walk grows a start on its own only where the
    previous fixation ended on the sample before it, inside a run of
    candidates, as under steady drift.
    """
    n = len(samples)
    if n == 0:
        return np.zeros(0, dtype=FIXATION_DTYPE)
    ts, xs, ys = samples["timestamp"], samples["x"], samples["y"]
    if not (np.isfinite(ts).all() and np.isfinite(xs).all()
            and np.isfinite(ys).all()):
        raise ValueError("IDT needs finite timestamps, x and y")
    if not np.all(np.diff(ts) > 0):
        raise ValueError("IDT needs strictly increasing timestamps")
    ends = _window_ends(ts, min_duration)
    # Ends never decrease: from the first start whose window runs past the
    # last sample on, no window covers min_duration.
    starts = int(np.searchsorted(ends, n))
    rows = np.stack([xs, -xs, ys, -ys])
    extremes = _window_extremes(rows, ends[:starts])
    candidate = _dispersion(extremes) <= dispersion_threshold
    # A head is a candidate start whose previous sample is not one.
    heads = np.flatnonzero(candidate & ~np.r_[False, candidate[:-1]])
    grown = _fixation_ends(rows, extremes[:, heads], ends[heads],
                           dispersion_threshold)
    heads, grown = heads.tolist(), grown.tolist()
    first, last = [], []
    at = 0
    while at < len(heads):
        i, j = heads[at], grown[at]
        first.append(i)
        last.append(j)
        # The first candidate after j is j + 1, grown here on its own,
        # or else the first head after j.
        while j + 1 < starts and candidate[j + 1]:
            i = j + 1
            j = int(_fixation_ends(rows, extremes[:, i:i + 1], ends[i:i + 1],
                                   dispersion_threshold)[0])
            first.append(i)
            last.append(j)
        at = bisect_right(heads, j, at)
    begin, end = np.array(first, dtype=np.intp), np.array(last, dtype=np.intp)
    count = end - begin + 1
    # Each row of a slice of x and y is summed pairwise, as its own sum
    # would be, so a centroid is bit for bit the per-sample loop's mean.
    xy = rows[0::2]
    sums = np.array([np.add.reduce(xy[:, i:j + 1], axis=1)
                     for i, j in zip(first, last)]).reshape(-1, 2)
    fixations = np.empty(len(count), dtype=FIXATION_DTYPE)
    fixations["start_time"] = ts[begin]
    fixations["duration"] = (ts[end] - ts[begin]) * 1000.0
    fixations["centroid_x"] = sums[:, 0] / count
    fixations["centroid_y"] = sums[:, 1] / count
    fixations["sample_count"] = count
    return fixations


def filter_fixations(
        fixations, max_duration=PipelineParams.max_duration_ms) -> np.ndarray:
    """Exclude fixations strictly above max_duration (ms); order preserved."""
    return fixations[fixations["duration"] <= max_duration]


def _trial_stages(samples, params: PipelineParams):
    """`trial_fixations`, plus what each stage discarded.

    The counts are keyed by their `ScanpathRecord` field names: invalid
    (non-finite) samples, finite samples below the confidence threshold,
    and fixations over the maximum duration.
    """
    finite = _finite(samples)
    kept = samples[_retained(samples, finite, params.min_confidence)]
    detected = detect_fixations_idt(kept, params.dispersion_threshold,
                                    params.min_duration_ms)
    fixations = filter_fixations(detected, params.max_duration_ms)
    valid = int(np.count_nonzero(finite))
    return fixations, {
        "invalid_samples": len(samples) - valid,
        "low_confidence_samples": valid - len(kept),
        "long_fixations": len(detected) - len(fixations),
    }


def trial_fixations(samples, params: PipelineParams = PipelineParams()
                    ) -> np.ndarray:
    """Confidence filter, IDT detection and maximum-duration filter."""
    return _trial_stages(samples, params)[0]


def map_to_aoi(fixations, aois) -> np.ndarray:
    """Per fixation, the position in `aois` of the AOI holding its centroid.

    -1 marks a centroid outside every AOI (the fixation is dropped). Among
    containing regions the highest priority wins; an unresolved tie is an
    error, raised for the first tied centroid, because the symbol would be
    ambiguous.
    """
    ids = [a.id for a in aois]
    if len(set(ids)) != len(ids):
        raise ValueError("AOI ids must be distinct")
    xs, ys = fixations["centroid_x"], fixations["centroid_y"]
    x_min, y_min, x_max, y_max = (
        np.array([a.rect for a in aois], dtype=float).reshape(-1, 4, 1)
        .transpose(1, 0, 2))
    inside = (x_min <= xs) & (xs < x_max) & (y_min <= ys) & (ys < y_max)
    priority = np.array([a.priority for a in aois], dtype=np.int64)[:, None]
    lowest = np.iinfo(np.int64).min
    top = np.where(inside, priority, lowest).max(axis=0, initial=lowest)
    winners = inside & (priority == top)
    tied = np.flatnonzero(winners.sum(axis=0) > 1)
    if tied.size:
        raise ValueError(
            "overlapping AOIs "
            + ", ".join(str(ids[k]) for k in np.flatnonzero(winners[:, tied[0]]))
            + " share priority; assign distinct priorities"
        )
    positions = np.full(len(xs), -1)
    at, centroid = np.nonzero(winners)
    positions[centroid] = at
    return positions


def build_scanpath(trial: Trial, aois, params: PipelineParams = PipelineParams()
                   ) -> ScanpathRecord:
    """Full pipeline for one trial: gaze samples to an AOI symbol sequence.

    AOI ids must be exactly 0..len(aois)-1 so they double as symbol ids.
    Invalid and low-confidence samples, fixations over the maximum
    duration and fixations whose centroid falls outside every AOI are
    dropped and counted.
    """
    ids = sorted(a.id for a in aois)
    if ids != list(range(len(aois))):
        raise ValueError("AOI ids must be exactly 0..n-1 to serve as symbols")
    fixations, counts = _trial_stages(trial.samples, params)
    at = map_to_aoi(fixations, aois)
    symbols = np.array([a.id for a in aois], dtype=np.int64)[at[at >= 0]]
    dropped = len(at) - len(symbols)
    if dropped or any(counts.values()):
        log.info("trial %s: dropped %d invalid and %d low-confidence "
                 "sample(s), %d long fixation(s) and %d fixation(s) outside "
                 "all AOIs", trial.trial_id, counts["invalid_samples"],
                 counts["low_confidence_samples"], counts["long_fixations"],
                 dropped)
    if params.collapse_repeats and len(symbols):
        symbols = symbols[np.r_[True, symbols[1:] != symbols[:-1]]]
    return ScanpathRecord(
        trial_id=trial.trial_id,
        participant_id=trial.participant_id,
        condition=trial.condition,
        symbols=symbols,
        alphabet_size=len(aois),
        dropped_fixations=dropped,
        **counts,
    )


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

GAZE_CSV_COLUMNS = ("trial_id", "participant_id", "condition",
                    "timestamp", "x", "y", "confidence")


# Bytes per id at the start of `read_gaze_csv`. Each id column is read as
# bytes of one fixed width, a multiple of 8, which doubles while an id of
# the column fills it.
ID_BYTES = 8

# Rows per `np.loadtxt` call in `read_gaze_csv` while every id column is
# ID_BYTES wide. The rows shrink as the columns widen, so a chunk's id
# fields stay within CHUNK_ROWS * 3 * ID_BYTES bytes.
CHUNK_ROWS = 1 << 14

# Bytes per block of the UTF-8 check in `_read_gaze_chunks`.
CHECK_BLOCK = 1 << 16


def read_gaze_csv(path) -> List[Trial]:
    """Parse a gaze CSV (one row per sample) into trials.

    Rows are grouped by (participant_id, trial_id); the returned list is
    sorted by those keys. Columns are found by header name, which must
    name each once; blank lines and a UTF-8 byte order mark are skipped.
    Malformed rows, including a non-finite timestamp, a timestamp not
    above the previous one of its trial and a row too short for its
    columns, raise with their physical line number.

    The rows are tokenized by `np.loadtxt`, in chunks of rows, and
    grouped with array operations. Where a check fails, the file is read
    again by the row reader, which words the error.
    """
    try:
        return _read_gaze_chunks(path)
    except ValueError:
        pass
    # Outside the handler, so the row reader's error carries no context
    # and the fast path's arrays are freed before the second read.
    return _read_gaze_rows(path)


def _check_utf8(path):
    """Raise ValueError unless the file `path` is UTF-8 with no NUL byte."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(CHECK_BLOCK), b""):
            if b"\0" in block:
                raise ValueError("NUL byte")
            # An ASCII block needs decoding only to end a character that
            # the previous block began.
            if not block.isascii() or decoder.getstate()[0]:
                decoder.decode(block)
        decoder.decode(b"", final=True)


def _read_gaze_chunks(path) -> List[Trial]:
    """`read_gaze_csv` through numpy's C tokenizer, in chunks of rows.

    Raises an unworded ValueError where the file holds anything the row
    reader would reject. A missing or repeated column and conflicting
    condition labels are checked here; `np.loadtxt` raises on a malformed
    row, and `Trial` on a non-finite or non-increasing timestamp.

    The ids stay bytes until the trials are built. The file is opened as
    latin-1, which maps each byte to one character, so each id column loads
    as the raw UTF-8 bytes of its ids, in fixed-width fields (`S<width>`).
    A row's three ids are then compared as whole uint64 words, and each
    trial's ids are decoded once. Fixed-width fields drop trailing NULs, so
    a file that holds a NUL, or is not UTF-8, is left to the row reader.
    An id that fills its column's width may have been cut short: the file
    is then read again with that width doubled.
    """
    _check_utf8(path)
    widths = (ID_BYTES,) * 3
    while True:
        groups, filled = _chunk_groups(path, widths)
        if not any(filled):
            break
        widths = tuple(2 * w if f else w for w, f in zip(widths, filled))
    # A trial within one chunk keeps its slice: no copy, so memory stays
    # near one set of samples. UTF-8 bytes sort as their text does.
    return [
        Trial(participant_id=p.decode(), condition=c.decode(),
              trial_id=t.decode(),
              samples=blocks[0] if len(blocks) == 1 else np.concatenate(blocks))
        for (p, t), (c, blocks) in sorted(groups.items())
    ]


def _chunk_groups(path, widths):
    """The file's rows grouped as (participant, trial) -> (condition, sample
    blocks), the ids as bytes, read with id columns `widths` bytes wide;
    and for each id column, whether an id fills it. A filled column stops
    the read, and the groups are then None.
    """
    ends = list(accumulate(widths))  # of each id field, in a row's bytes
    dtype = np.dtype([(name, f"S{w}") for name, w in
                      zip(GAZE_CSV_COLUMNS, widths)] + [("sample", GAZE_DTYPE)])
    full = max(CHUNK_ROWS * 3 * ID_BYTES // ends[-1], 1)
    # Chunks start short and double, so that an id too wide for its column
    # shows before much of the file is parsed.
    rows = max(full // 64, 1)
    groups = {}  # (participant, trial) -> (condition, sample blocks)
    with open(path, "r", newline="", encoding="latin-1") as fh:
        if fh.read(3) != "\xef\xbb\xbf":  # the UTF-8 byte order mark
            fh.seek(0)
        header = next(csv.reader(fh), [])
        if any(header.count(c) != 1 for c in GAZE_CSV_COLUMNS):
            raise ValueError("missing or repeated column")
        col = {name: i for i, name in enumerate(header)}
        usecols = [col[c] for c in GAZE_CSV_COLUMNS]
        with warnings.catch_warnings():
            # loadtxt warns on blank lines and on an input without rows
            warnings.simplefilter("ignore", UserWarning)
            while True:
                chunk = np.loadtxt(fh, dtype=dtype, delimiter=",",
                                   quotechar='"', comments=None, ndmin=1,
                                   usecols=usecols, max_rows=rows)
                if not len(chunk):
                    break
                rows = min(2 * rows, full)
                # An id that fills its field ends in a byte that is not NUL.
                row_bytes = chunk.view(np.uint8).reshape(len(chunk), -1)
                filled = [bool(row_bytes[:, end - 1].any()) for end in ends]
                if any(filled):
                    return None, filled
                # The ids as uint64 words, transposed so that each word
                # compares down the rows in contiguous memory; the samples,
                # copied out as plain floats.
                words = np.ascontiguousarray(
                    row_bytes[:, :ends[-1]].view(np.uint64).T)
                samples = row_bytes[:, ends[-1]:].view(np.float64).copy().view(
                    GAZE_DTYPE)[:, 0]
                # Runs of rows with one trial, participant and condition.
                starts = np.flatnonzero(
                    np.r_[True, (words[:, 1:] != words[:, :-1]).any(axis=0)])
                bounds = [*starts.tolist(), len(chunk)]
                for start, stop, tid, pid, cond in zip(
                        bounds[:-1], bounds[1:],
                        *(chunk[c][starts].tolist()
                          for c in GAZE_CSV_COLUMNS[:3])):
                    condition, blocks = groups.setdefault(
                        (pid, tid), (cond, []))
                    if condition != cond:
                        raise ValueError("conflicting condition labels")
                    blocks.append(samples[start:stop])
    return groups, [False] * 3


def _read_gaze_rows(path) -> List[Trial]:
    """`read_gaze_csv` one row at a time, wording each error with its line.

    `read_gaze_csv` calls it to word an error, and for the rare input
    that `float` parses but numpy does not (such as `1_0`).
    """
    groups = {}
    with open(path, "r", newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in GAZE_CSV_COLUMNS if c not in header]
        if missing:
            raise ValueError(f"gaze CSV missing column(s): {', '.join(missing)}")
        for c in GAZE_CSV_COLUMNS:
            if header.count(c) > 1:
                raise ValueError(f"gaze CSV header names column {c!r} twice")
        col = {name: i for i, name in enumerate(header)}
        tid, pid, cond = (col[c] for c in GAZE_CSV_COLUMNS[:3])
        values = itemgetter(*(col[c] for c in GAZE_DTYPE.names))
        width = max(col[c] for c in GAZE_CSV_COLUMNS) + 1
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) < width:
                raise ValueError(f"gaze CSV line {line}: {len(row)} field(s) "
                                 f"where the header has {len(header)} columns")
            try:
                sample = tuple(map(float, values(row)))
            except ValueError as exc:
                raise ValueError(f"gaze CSV line {line}: {exc}") from None
            if not math.isfinite(sample[0]):
                raise ValueError(f"gaze CSV line {line}: non-finite "
                                 f"timestamp {row[col['timestamp']]!r}")
            key = (row[pid], row[tid])
            entry = groups.get(key)
            if entry is None:
                entry = groups[key] = (row[cond], array("d"))
            elif entry[0] != row[cond]:
                raise ValueError(
                    f"gaze CSV line {line}: participant {key[0]!r} trial "
                    f"{key[1]!r} has conflicting condition labels"
                )
            elif sample[0] <= entry[1][-len(sample)]:  # trial's last timestamp
                raise ValueError(
                    f"gaze CSV line {line}: participant {key[0]!r} trial "
                    f"{key[1]!r}: timestamp {row[col['timestamp']]!r} is not "
                    f"above the trial's previous timestamp")
            entry[1].extend(sample)
    return [
        Trial(participant_id=p, condition=c, trial_id=t,
              samples=np.frombuffer(buf, dtype=GAZE_DTYPE))
        for (p, t), (c, buf) in sorted(groups.items())
    ]


def load_aois(path) -> List[AOIRegion]:
    """Load AOI definitions from JSON: a list of {id, name, rect, priority}.

    Ids and priorities must be whole numbers, the file must define at least
    one AOI, and geometrically overlapping AOIs must carry distinct
    priorities, else the mapping would be ambiguous. Every error names the
    file.
    """
    return _load_json(path, _aois_from_json)


def _aois_from_json(doc) -> List[AOIRegion]:
    entries = _json_list(_field(doc, "aois", "AOI file") if isinstance(doc, dict)
                         else doc, "AOIs")
    aois = []
    for i, entry in enumerate(entries):
        owner = (f"AOI {entry['id']!r}" if isinstance(entry, dict) and "id" in entry
                 else f"AOI entry {i}")
        rect = _field(entry, "rect", owner)
        try:
            rect = tuple(float(v) for v in rect)
        except (TypeError, ValueError):
            pass  # AOIRegion rejects it with a message that names the AOI
        aoi_id = _whole_number(_field(entry, "id", owner), f"{owner}: id")
        aois.append(AOIRegion(
            id=aoi_id,
            rect=rect,
            priority=_whole_number(entry.get("priority", 0),
                                   f"AOI {aoi_id}: priority"),
            name=str(entry.get("name", "")),
        ))
    if not aois:
        raise ValueError("defines no AOIs")
    ids = [a.id for a in aois]
    if len(set(ids)) != len(ids):
        raise ValueError("AOI ids must be distinct")
    for i, a in enumerate(aois):
        for b in aois[i + 1:]:
            overlap = (a.rect[0] < b.rect[2] and b.rect[0] < a.rect[2]
                       and a.rect[1] < b.rect[3] and b.rect[1] < a.rect[3])
            if overlap and a.priority == b.priority:
                raise ValueError(
                    f"AOIs {a.id} and {b.id} overlap but share priority "
                    f"{a.priority}; assign distinct priorities"
                )
    return aois
