"""Raw gaze recordings to AOI symbol sequences.

Pipeline: confidence filter -> dispersion-threshold (IDT) fixation
detection -> maximum-duration filter -> AOI mapping on fixation centroids.
Conventions (documented because every one of them is a boundary call):
confidence >= threshold is retained, dispersion <= threshold is accepted,
duration strictly above the maximum is excluded, AOI rectangles are
half-open ([x_min, x_max) x [y_min, y_max)) so adjacent regions partition
cleanly, and overlaps are resolved by explicit priority.
"""

import csv
import json
import logging
import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .sequences import SymbolSequence

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class GazeSample:
    timestamp: float   # seconds
    x: float           # pixels
    y: float           # pixels
    confidence: float  # in [0, 1]


@dataclass(frozen=True)
class Fixation:
    start_time: float   # seconds
    duration: float     # milliseconds
    centroid_x: float
    centroid_y: float
    sample_count: int


@dataclass(frozen=True)
class AOIRegion:
    id: int
    rect: tuple  # (x_min, y_min, x_max, y_max), pixels
    priority: int = 0
    name: str = ""

    def __post_init__(self):
        x_min, y_min, x_max, y_max = self.rect
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
    samples: List[GazeSample]

    def __post_init__(self):
        ts = [s.timestamp for s in self.samples]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError(
                f"trial {self.trial_id!r}: timestamps must be strictly increasing"
            )


@dataclass(frozen=True)
class PipelineParams:
    min_confidence: float = 0.9
    dispersion_threshold: float = 50.0   # pixels
    min_duration_ms: float = 100.0
    max_duration_ms: float = 1500.0
    collapse_repeats: bool = False


@dataclass
class ScanpathRecord:
    """One trial's symbol sequence plus bookkeeping for reports."""

    trial_id: str
    participant_id: str
    condition: str
    symbols: np.ndarray
    alphabet_size: int
    dropped_fixations: int = 0

    @property
    def sequence(self) -> SymbolSequence:
        return SymbolSequence(self.symbols, self.alphabet_size)

    def to_dict(self) -> dict:
        return {
            "trial_id": self.trial_id,
            "participant_id": self.participant_id,
            "condition": self.condition,
            "symbols": [int(s) for s in self.symbols],
            "alphabet_size": int(self.alphabet_size),
            "dropped_fixations": int(self.dropped_fixations),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ScanpathRecord":
        return cls(
            trial_id=str(doc["trial_id"]),
            participant_id=str(doc["participant_id"]),
            condition=str(doc["condition"]),
            symbols=np.asarray(doc["symbols"], dtype=np.int64),
            alphabet_size=int(doc["alphabet_size"]),
            dropped_fixations=int(doc.get("dropped_fixations", 0)),
        )


# ---------------------------------------------------------------------------
# pipeline stages
# ---------------------------------------------------------------------------

def filter_gaze(samples, min_confidence: float = 0.9) -> List[GazeSample]:
    """Drop samples with confidence below the threshold (>= is retained)."""
    return [s for s in samples if s.confidence >= min_confidence]


def detect_fixations_idt(samples, dispersion_threshold: float = 50.0,
                         min_duration: float = 100.0) -> List[Fixation]:
    """Classic dispersion-threshold fixation detection.

    Grow a window from the earliest unconsumed sample until it covers
    min_duration (ms). If its dispersion (max x - min x) + (max y - min y)
    is within the threshold, extend the window while the next sample keeps
    it within, emit a fixation at the centroid of the window, and consume
    it; otherwise slide forward by one sample. Fixations never overlap.
    """
    n = len(samples)
    if n == 0:
        return []
    ts = np.array([s.timestamp for s in samples])
    xs = np.array([s.x for s in samples])
    ys = np.array([s.y for s in samples])
    fixations = []
    i = 0
    while i < n:
        j = i
        while j < n and (ts[j] - ts[i]) * 1000.0 < min_duration:
            j += 1
        if j >= n:
            break  # remaining samples cannot cover the minimum duration
        min_x, max_x = xs[i:j + 1].min(), xs[i:j + 1].max()
        min_y, max_y = ys[i:j + 1].min(), ys[i:j + 1].max()
        if (max_x - min_x) + (max_y - min_y) <= dispersion_threshold:
            while j + 1 < n:
                nx_min = min(min_x, xs[j + 1])
                nx_max = max(max_x, xs[j + 1])
                ny_min = min(min_y, ys[j + 1])
                ny_max = max(max_y, ys[j + 1])
                if (nx_max - nx_min) + (ny_max - ny_min) > dispersion_threshold:
                    break
                min_x, max_x, min_y, max_y = nx_min, nx_max, ny_min, ny_max
                j += 1
            fixations.append(Fixation(
                start_time=float(ts[i]),
                duration=float((ts[j] - ts[i]) * 1000.0),
                centroid_x=float(xs[i:j + 1].mean()),
                centroid_y=float(ys[i:j + 1].mean()),
                sample_count=int(j - i + 1),
            ))
            i = j + 1
        else:
            i += 1
    return fixations


def filter_fixations(fixations, max_duration: float = 1500.0) -> List[Fixation]:
    """Exclude fixations strictly above max_duration (ms); order preserved."""
    return [f for f in fixations if f.duration <= max_duration]


def trial_fixations(samples, params: PipelineParams = PipelineParams()
                    ) -> List[Fixation]:
    """Confidence filter, IDT detection and maximum-duration filter."""
    kept = filter_gaze(samples, params.min_confidence)
    fixations = detect_fixations_idt(kept, params.dispersion_threshold,
                                     params.min_duration_ms)
    return filter_fixations(fixations, params.max_duration_ms)


def map_to_aoi(fix: Fixation, aois) -> Optional[int]:
    """AOI id containing the fixation centroid, or None (fixation dropped).

    Among containing regions the highest priority wins; an unresolved tie
    is an error because the symbol would be ambiguous.
    """
    ids = [a.id for a in aois]
    if len(set(ids)) != len(ids):
        raise ValueError("AOI ids must be distinct")
    containing = [a for a in aois if a.contains(fix.centroid_x, fix.centroid_y)]
    if not containing:
        return None
    top = max(a.priority for a in containing)
    winners = [a for a in containing if a.priority == top]
    if len(winners) > 1:
        raise ValueError(
            "overlapping AOIs "
            + ", ".join(str(a.id) for a in winners)
            + " share priority; assign distinct priorities"
        )
    return winners[0].id


def build_scanpath(trial: Trial, aois, params: PipelineParams = PipelineParams()
                   ) -> ScanpathRecord:
    """Full pipeline for one trial: gaze samples to an AOI symbol sequence.

    AOI ids must be exactly 0..len(aois)-1 so they double as symbol ids.
    Fixations whose centroid falls outside every AOI are dropped and
    counted.
    """
    ids = sorted(a.id for a in aois)
    if ids != list(range(len(aois))):
        raise ValueError("AOI ids must be exactly 0..n-1 to serve as symbols")
    symbols = []
    dropped = 0
    for fix in trial_fixations(trial.samples, params):
        sym = map_to_aoi(fix, aois)
        if sym is None:
            dropped += 1
        else:
            symbols.append(sym)
    if dropped:
        log.info("trial %s: dropped %d fixation(s) outside all AOIs",
                 trial.trial_id, dropped)
    if params.collapse_repeats:
        symbols = [s for i, s in enumerate(symbols)
                   if i == 0 or s != symbols[i - 1]]
    return ScanpathRecord(
        trial_id=trial.trial_id,
        participant_id=trial.participant_id,
        condition=trial.condition,
        symbols=np.asarray(symbols, dtype=np.int64),
        alphabet_size=len(aois),
        dropped_fixations=dropped,
    )


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

GAZE_CSV_COLUMNS = ("trial_id", "participant_id", "condition",
                    "timestamp", "x", "y", "confidence")


def read_gaze_csv(path) -> List[Trial]:
    """Parse a gaze CSV (one row per sample) into trials.

    Rows are grouped by (participant_id, trial_id); the returned list is
    sorted by those keys. Malformed rows, including a non-finite
    timestamp, raise with their line number.
    """
    groups = {}
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in GAZE_CSV_COLUMNS if c not in header]
        if missing:
            raise ValueError(f"gaze CSV missing column(s): {', '.join(missing)}")
        for line_no, row in enumerate(reader, start=2):
            try:
                sample = GazeSample(
                    timestamp=float(row["timestamp"]),
                    x=float(row["x"]),
                    y=float(row["y"]),
                    confidence=float(row["confidence"]),
                )
            except (TypeError, ValueError) as exc:
                raise ValueError(f"gaze CSV line {line_no}: {exc}") from None
            if not math.isfinite(sample.timestamp):
                raise ValueError(f"gaze CSV line {line_no}: non-finite "
                                 f"timestamp {row['timestamp']!r}")
            key = (str(row["participant_id"]), str(row["trial_id"]))
            entry = groups.setdefault(key, {"condition": str(row["condition"]),
                                            "samples": []})
            if entry["condition"] != str(row["condition"]):
                raise ValueError(
                    f"gaze CSV line {line_no}: trial {key[1]!r} has "
                    f"conflicting condition labels"
                )
            entry["samples"].append(sample)
    trials = [
        Trial(participant_id=pid, condition=entry["condition"],
              trial_id=tid, samples=entry["samples"])
        for (pid, tid), entry in sorted(groups.items())
    ]
    return trials


def load_aois(path) -> List[AOIRegion]:
    """Load AOI definitions from JSON: a list of {id, name, rect, priority}.

    Geometrically overlapping AOIs must carry distinct priorities, else the
    mapping would be ambiguous.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    entries = doc["aois"] if isinstance(doc, dict) else doc
    aois = []
    for entry in entries:
        aois.append(AOIRegion(
            id=int(entry["id"]),
            rect=tuple(float(v) for v in entry["rect"]),
            priority=int(entry.get("priority", 0)),
            name=str(entry.get("name", "")),
        ))
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
