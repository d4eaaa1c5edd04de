import csv
import io
import tracemalloc
import warnings

import numpy as np
import pytest

from gazeais import gaze as gaze_module
from gazeais import (FIXATION_DTYPE, GAZE_DTYPE, AOIRegion, PipelineParams,
                     ScanpathRecord, Trial, build_scanpath,
                     detect_fixations_idt, filter_fixations, filter_gaze,
                     load_aois, map_to_aoi, read_gaze_csv, trial_fixations)


def gaze(rows):
    """Samples from (timestamp, x, y, confidence) rows."""
    return np.array(rows, dtype=GAZE_DTYPE)


def fixations_of(rows):
    """Fixations from (start_time, duration, centroid_x, centroid_y,
    sample_count) rows."""
    return np.array(rows, dtype=FIXATION_DTYPE)


def stationary_samples(x, y, t0, duration_s, rate_hz=120.0, confidence=1.0):
    n = int(round(duration_s * rate_hz)) + 1
    return gaze([(t0 + i / rate_hz, x, y, confidence) for i in range(n)])


# The four-AOI layout: two screen halves with higher-priority target boxes
# nested inside them.
SEARCH_TASK_AOIS = [
    AOIRegion(0, (0, 0, 960, 1080), priority=0, name="left-half"),
    AOIRegion(1, (960, 0, 1920, 1080), priority=0, name="right-half"),
    AOIRegion(2, (300, 400, 500, 600), priority=1, name="target-left"),
    AOIRegion(3, (1260, 400, 1460, 600), priority=1, name="target-right"),
]


class TestFilterGaze:
    def test_all_confident_unchanged(self):
        samples = stationary_samples(10, 10, 0.0, 0.1)
        assert np.array_equal(filter_gaze(samples), samples)

    def test_all_rejected(self):
        samples = stationary_samples(10, 10, 0.0, 0.1, confidence=0.0)
        assert len(filter_gaze(samples)) == 0

    def test_boundary_inclusive(self):
        sample = gaze([(0.0, 1.0, 1.0, 0.9)])
        assert np.array_equal(filter_gaze(sample, min_confidence=0.9), sample)

    def test_non_finite_dropped(self):
        nan, inf = float("nan"), float("inf")
        samples = gaze([(0.0, nan, 1.0, 1.0), (0.1, 1.0, -inf, 1.0),
                        (0.2, 1.0, 1.0, inf), (0.3, 1.0, 1.0, nan),
                        (0.4, 1.0, 1.0, 1.0)])
        assert np.array_equal(filter_gaze(samples), samples[4:])


class TestIdt:
    def test_single_stationary_fixation(self):
        samples = gaze([(i * 0.25 / 29, 400.0, 300.0, 1.0) for i in range(30)])
        fixations = detect_fixations_idt(samples)
        assert len(fixations) == 1
        fix = fixations[0]
        assert fix["centroid_x"] == pytest.approx(400.0)
        assert fix["centroid_y"] == pytest.approx(300.0)
        assert fix["sample_count"] == 30
        assert fix["duration"] == pytest.approx(250.0)

    def test_two_clusters_with_transit(self):
        first = stationary_samples(100, 100, 0.0, 0.2)
        t = first["timestamp"][-1]
        transit = gaze([(t + (i + 1) / 120.0, x, 100.0, 1.0)
                        for i, x in enumerate((220.0, 380.0, 520.0))])
        t = transit["timestamp"][-1]
        samples = np.concatenate(
            [first, transit, stationary_samples(600, 100, t + 1 / 120.0, 0.2)])
        fixations = detect_fixations_idt(samples)
        assert len(fixations) == 2
        assert fixations["centroid_x"] == pytest.approx([100.0, 600.0], abs=1.0)

    def test_dispersion_boundary_inclusive(self):
        # Points spanning exactly 50 px stay one fixation.
        samples = gaze([(i / 120.0, 100.0 + 50.0 * (i % 2), 200.0, 1.0)
                        for i in range(30)])
        fixations = detect_fixations_idt(samples, dispersion_threshold=50.0)
        assert len(fixations) == 1
        assert fixations[0]["centroid_x"] == pytest.approx(125.0)

    def test_dispersion_just_over_splits(self):
        samples = gaze([(i / 120.0, 100.0 + 50.5 * (i % 2), 200.0, 1.0)
                        for i in range(30)])
        assert len(detect_fixations_idt(samples, dispersion_threshold=50.0)) == 0

    def test_min_duration_boundary(self):
        # A window spanning exactly 100 ms qualifies.
        samples = gaze([(t, 0.0, 0.0, 1.0) for t in (0.0, 0.05, 0.1)])
        fixations = detect_fixations_idt(samples, min_duration=100.0)
        assert len(fixations) == 1
        assert fixations[0]["duration"] == pytest.approx(100.0)

    def test_under_min_duration_yields_nothing(self):
        samples = gaze([(t, 0.0, 0.0, 1.0) for t in (0.0, 0.04, 0.099)])
        assert len(detect_fixations_idt(samples, min_duration=100.0)) == 0

    def test_empty_input(self):
        for samples in ([], gaze([])):
            fixations = detect_fixations_idt(samples)
            assert fixations.dtype == FIXATION_DTYPE and len(fixations) == 0

    def test_no_overlap_and_internal_dispersion(self):
        rng = np.random.default_rng(12)
        rows = []
        t = 0.0
        for _ in range(5):
            cx, cy = rng.uniform(0, 1000, size=2)
            for _ in range(rng.integers(15, 40)):
                rows.append((t, cx + rng.uniform(-5, 5), cy + rng.uniform(-5, 5), 1.0))
                t += 1 / 120.0
            t += rng.uniform(0.05, 0.2)
        fixations = detect_fixations_idt(gaze(rows))
        ends = fixations["start_time"] + fixations["duration"] / 1000.0
        assert np.all(ends[:-1] <= fixations["start_time"][1:])
        assert np.all(fixations["duration"] >= 100.0)

    def test_translation_invariance(self):
        rng = np.random.default_rng(13)
        samples = gaze([(i / 120.0, float(rng.uniform(0, 500)),
                         float(rng.uniform(0, 500)), 1.0) for i in range(200)])
        shifted = samples.copy()
        shifted["x"] += 123.0
        shifted["y"] -= 45.0
        base = detect_fixations_idt(samples)
        moved = detect_fixations_idt(shifted)
        assert len(base) == len(moved)
        assert moved["centroid_x"] == pytest.approx(base["centroid_x"] + 123.0)
        assert moved["centroid_y"] == pytest.approx(base["centroid_y"] - 45.0)
        assert moved["duration"].tolist() == base["duration"].tolist()
        assert moved["sample_count"].tolist() == base["sample_count"].tolist()


def _reference_idt(samples, dispersion_threshold=50.0, min_duration=100.0):
    """The per-sample IDT loop that `detect_fixations_idt` replaced, as an
    oracle: one (start_time, duration, centroid_x, centroid_y, sample_count)
    tuple per fixation."""
    n = len(samples)
    if n == 0:
        return []
    ts, xs, ys = samples["timestamp"], samples["x"], samples["y"]
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
            fixations.append((
                float(ts[i]),
                float((ts[j] - ts[i]) * 1000.0),
                float(xs[i:j + 1].mean()),
                float(ys[i:j + 1].mean()),
                int(j - i + 1),
            ))
            i = j + 1
        else:
            i += 1
    return fixations


def random_trial(rng):
    """A random-walk gaze trace with saccade jumps and irregular sampling.

    Returns the samples, a dispersion threshold and a minimum duration.
    Lengths are log-uniform in 1..5000; some traces sit on whole pixels,
    so dispersions tie with integer thresholds.
    """
    n = int(np.exp(rng.uniform(0.0, np.log(5000.0)))) or 1
    period = 1.0 / rng.choice([60.0, 120.0, 250.0, 1000.0])
    gaps = np.full(n, period)
    if rng.random() < 0.5:
        gaps *= rng.uniform(0.5, 1.5, n)
    dropout = rng.random(n) < 0.01
    gaps[dropout] *= rng.uniform(2.0, 50.0, dropout.sum())
    steps = rng.normal(0.0, rng.uniform(0.2, 8.0), (n, 2))
    jumps = rng.random(n) < rng.uniform(0.0, 0.05)
    steps[jumps] += rng.normal(0.0, 200.0, (jumps.sum(), 2))
    xy = np.cumsum(steps, axis=0) + rng.uniform(0, 1000, 2)
    if rng.random() < 0.3:
        xy = np.round(xy)
    samples = np.zeros(n, dtype=GAZE_DTYPE)
    if rng.random() < 0.3:
        # A regular grid from 0, where (ts[j] - ts[i]) * 1000 and
        # ts[i] + min_duration / 1000 round to opposite sides of a boundary.
        samples["timestamp"] = np.arange(n) * period
    else:
        samples["timestamp"] = rng.uniform(0, 100) + np.cumsum(gaps)
    samples["x"], samples["y"] = xy[:, 0], xy[:, 1]
    samples["confidence"] = 1.0
    threshold = float(rng.choice([rng.uniform(0.0, 120.0), 50.0, 20.0, 0.0]))
    min_duration = float(rng.choice([rng.uniform(0.0, 300.0), 50.0, 100.0,
                                     250.0, 0.0]))
    return samples, threshold, min_duration


class TestIdtMatchesReference:
    """The vectorised IDT returns the old loop's fixations bit for bit."""

    @pytest.mark.parametrize("block", range(10))
    def test_random_trials(self, block):
        rng = np.random.default_rng([2024, block])
        for _ in range(50):
            samples, threshold, min_duration = random_trial(rng)
            assert (detect_fixations_idt(samples, threshold, min_duration)
                    .tolist() == _reference_idt(samples, threshold, min_duration))

    @staticmethod
    def check(samples, threshold=50.0, min_duration=100.0):
        fixations = detect_fixations_idt(samples, threshold, min_duration)
        assert fixations.tolist() == _reference_idt(samples, threshold,
                                                    min_duration)
        return fixations

    @pytest.mark.parametrize("min_duration", [0.0, -5.0])
    def test_non_positive_min_duration(self, min_duration):
        # Every one-sample window qualifies, so fixations cover the trace.
        samples = gaze([(i * 0.01, x, 0.0, 1.0)
                        for i, x in enumerate((0, 0, 100, 100, 300))])
        fixations = self.check(samples, 50.0, min_duration)
        assert fixations["sample_count"].tolist() == [2, 2, 1]

    def test_negative_threshold(self):
        assert len(self.check(stationary_samples(5, 5, 0.0, 0.5), -1.0)) == 0
        assert len(self.check(stationary_samples(5, 5, 0.0, 0.5), -1.0, 0.0)) == 0

    def test_single_sample(self):
        sample = gaze([(3.0, 1.0, 2.0, 1.0)])
        assert len(self.check(sample)) == 0
        assert self.check(sample, 50.0, 0.0).tolist() == [(3.0, 0.0, 1.0, 2.0, 1)]

    def test_window_ends_on_last_sample(self):
        # Start 0 fails the dispersion test; start 1's window covers
        # exactly 250 ms and ends on the last sample.
        samples = gaze([(t, x, 0.0, 1.0) for t, x in
                        ((0.0, 500.0), (0.125, 0.0), (0.25, 0.0), (0.375, 0.0))])
        assert self.check(samples, 50.0, 250.0).tolist() == [
            (0.125, 250.0, 0.0, 0.0, 3)]

    def test_window_end_below_searchsorted(self):
        # On a 1 ms grid from 0, (ts[108] - ts[8]) * 1000 is exactly 100,
        # though ts[8] + 0.1 rounds above ts[108]: the window from sample
        # 8 ends at 108, just before the gaze jumps away.
        samples = np.zeros(200, dtype=GAZE_DTYPE)
        samples["timestamp"] = np.arange(200) * 0.001
        samples["x"][:8] = 500.0
        samples["x"][109:] = 1000.0
        assert self.check(samples).tolist() == [(0.008, 100.0, 0.0, 0.0, 101)]

    def test_dispersion_exactly_at_threshold(self):
        # x spans 20 px and y 30 px: 50 px in all, within the threshold.
        rows = [(i / 120.0, 100.0 + 20.0 * (i % 2), 200.0 + 30.0 * (i % 3 == 0),
                 1.0) for i in range(40)]
        assert self.check(gaze(rows))["sample_count"].tolist() == [40]
        # Half a pixel more at sample 17 ends the fixation before it, and
        # the window starting there fails; the next one starts at 18.
        rows[17] = (rows[17][0], 120.5, 200.0, 1.0)
        assert self.check(gaze(rows))["sample_count"].tolist() == [17, 22]

    @pytest.mark.parametrize("jump_at", [165, 166, 7000, None])
    def test_fixation_spans_long_trial(self, jump_at):
        # 10 000 samples at 1000 Hz within 10 px: the fixation grows over
        # doubling blocks (the first ends at sample 165) until a jump.
        rng = np.random.default_rng(31)
        n = 10_000
        samples = np.zeros(n, dtype=GAZE_DTYPE)
        samples["timestamp"] = np.arange(n) / 1000.0
        samples["x"] = 300.0 + rng.uniform(-5, 5, n)
        samples["y"] = 400.0 + rng.uniform(-5, 5, n)
        if jump_at is not None:
            samples["x"][jump_at:] += 200.0
        fixations = self.check(samples)
        assert fixations[0]["sample_count"] == (jump_at or n)


def record_growth(monkeypatch):
    """Record how many starts each `_fixation_ends` call grows."""
    calls = []
    grow = gaze_module._fixation_ends

    def recorded(rows, top, window_ends, dispersion_threshold):
        calls.append(len(window_ends))
        return grow(rows, top, window_ends, dispersion_threshold)

    monkeypatch.setattr(gaze_module, "_fixation_ends", recorded)
    return calls


def cluster_trace(dwells, rng=None):
    """Stationary clusters at 120 Hz, 300 px apart along x, joined by
    three saccade samples 75 px apart; `rng` adds up to 4 px of jitter."""
    xs = []
    for k, dwell in enumerate(dwells):
        if k:
            xs.extend(300.0 * k - 300.0 + step for step in (75.0, 150.0, 225.0))
        xs.extend([300.0 * k] * dwell)
    samples = np.zeros(len(xs), dtype=GAZE_DTYPE)
    samples["timestamp"] = np.arange(len(xs)) / 120.0
    samples["x"] = xs
    samples["y"] = 200.0
    if rng is not None:
        samples["x"] += rng.uniform(-4, 4, len(xs))
        samples["y"] += rng.uniform(-4, 4, len(xs))
    samples["confidence"] = 1.0
    return samples


class TestIdtGrowth:
    """Each head's fixation grows in one batched call; only a start that
    follows a fixation within a run of candidates grows alone."""

    check = staticmethod(TestIdtMatchesReference.check)

    def test_drift_grows_each_chain_start_alone(self, monkeypatch):
        # 1 px per sample: a fixation stops at 51 samples, 50 px, and the
        # window from the next sample is within the threshold again.
        samples = np.zeros(600, dtype=GAZE_DTYPE)
        samples["timestamp"] = np.arange(600) / 120.0
        samples["x"] = np.arange(600.0)
        calls = record_growth(monkeypatch)
        fixations = self.check(samples)
        assert fixations["sample_count"].tolist() == [51] * 11 + [39]
        assert calls == [1] * len(fixations)

    @pytest.mark.parametrize("dwell", [30, 200])
    def test_last_fixation_ends_on_last_sample(self, monkeypatch, dwell):
        # The last cluster runs to the end of the trial, inside the first
        # gathered block (30 samples) or a doubled one (200).
        calls = record_growth(monkeypatch)
        fixations = self.check(cluster_trace([40, dwell]))
        assert fixations["sample_count"].tolist() == [40, dwell]
        assert calls == [2]

    @pytest.mark.parametrize("budget", [gaze_module.GROWTH_BLOCK_ELEMENTS, 600])
    def test_batch_resolves_and_doubles(self, monkeypatch, budget):
        # At 95 ms every window holds 13 samples, and with the 64 after it
        # the first block covers a dwell of 77: a dwell of 76 ends there, on
        # its saccade sample, and longer ones double their block. A budget
        # of 600 elements puts two starts in a block and stops doubling at
        # 128 samples.
        monkeypatch.setattr(gaze_module, "GROWTH_BLOCK_ELEMENTS", budget)
        dwells = [20, 300, 40, 150, 25, 700, 76, 77, 30]
        calls = record_growth(monkeypatch)
        fixations = self.check(cluster_trace(dwells, np.random.default_rng(3)),
                               50.0, 95.0)
        assert fixations["sample_count"].tolist() == dwells
        assert calls == [len(dwells)]

    def test_planted_clusters_grow_in_one_call(self, monkeypatch):
        # Clusters joined by saccades start every fixation at a head, so
        # no start grows alone: per-fixation growth would call once each.
        rng = np.random.default_rng(17)
        dwells = rng.integers(24, 72, 120).tolist()
        calls = record_growth(monkeypatch)
        fixations = self.check(cluster_trace(dwells, rng))
        assert fixations["sample_count"].tolist() == dwells
        assert calls == [len(dwells)]


class TestIdtInputContract:
    @pytest.mark.parametrize("field", ["timestamp", "x", "y"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, field, value):
        samples = stationary_samples(10, 10, 0.0, 0.2)
        samples[field][-1] = value
        with pytest.raises(ValueError, match="finite"):
            detect_fixations_idt(samples)

    @pytest.mark.parametrize("order", [[0, 2, 1, 3], [0, 1, 1, 2]])
    def test_timestamps_must_increase(self, order):
        samples = gaze([(i * 0.05, 0.0, 0.0, 1.0) for i in order])
        with pytest.raises(ValueError, match="strictly increasing"):
            detect_fixations_idt(samples)

    def test_non_finite_confidence_ignored(self):
        samples = stationary_samples(10, 10, 0.0, 0.2, confidence=np.nan)
        assert len(detect_fixations_idt(samples)) == 1


class TestIdtMemory:
    def test_peak_and_pinned_result(self):
        # A 500 s random walk at 1000 Hz: mostly sliding windows.
        n = 500_000
        rng = np.random.default_rng(5)
        samples = np.zeros(n, dtype=GAZE_DTYPE)
        samples["timestamp"] = np.arange(n) / 1000.0
        samples["x"] = np.cumsum(rng.normal(0.0, 2.0, n))
        samples["y"] = np.cumsum(rng.normal(0.0, 2.0, n))
        samples["confidence"] = 1.0
        tracemalloc.start()
        try:
            fixations = detect_fixations_idt(samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * samples.nbytes
        assert len(fixations) == 2442
        pinned = fixations_of([
            (0.075, 138.0, -35.73473305315066, -1.2107551439751485, 139),
            (499.891, 108.00000000000409, 842.2604232494833,
             2064.7949283183143, 109)])
        for name in ("start_time", "duration", "sample_count"):
            assert fixations[name][[0, -1]].tolist() == pinned[name].tolist()
        for name in ("centroid_x", "centroid_y"):
            assert fixations[name][[0, -1]] == pytest.approx(pinned[name],
                                                             rel=1e-12)


class TestFilterFixations:
    def test_boundary_retained(self):
        fixations = fixations_of([(0.0, 1500.0, 0.0, 0.0, 10)])
        assert filter_fixations(fixations).tolist() == fixations.tolist()

    def test_above_removed(self):
        fixations = fixations_of([(0.0, 1501.0, 0.0, 0.0, 10)])
        assert filter_fixations(fixations).tolist() == []

    def test_empty(self):
        fixations = filter_fixations(fixations_of([]))
        assert fixations.dtype == FIXATION_DTYPE and len(fixations) == 0


def fixations_at(xs, ys):
    """Fixations with centroids (xs[i], ys[i]) and every other field 0."""
    fixations = np.zeros(len(xs), dtype=FIXATION_DTYPE)
    fixations["centroid_x"], fixations["centroid_y"] = xs, ys
    return fixations


class TestMapToAoi:
    def test_target_priority_wins(self):
        # Inside the left target box.
        assert map_to_aoi(fixations_at([400.0], [500.0]),
                          SEARCH_TASK_AOIS).tolist() == [2]

    def test_half_outside_targets(self):
        assert map_to_aoi(fixations_at([700.0], [200.0]),
                          SEARCH_TASK_AOIS).tolist() == [0]

    def test_outside_screen_is_minus_one(self):
        assert map_to_aoi(fixations_at([2500.0], [500.0]),
                          SEARCH_TASK_AOIS).tolist() == [-1]

    def test_duplicate_ids_rejected(self):
        aois = [AOIRegion(0, (0, 0, 10, 10)), AOIRegion(0, (20, 20, 30, 30))]
        with pytest.raises(ValueError, match="distinct"):
            map_to_aoi(fixations_at([5.0], [5.0]), aois)

    def test_priority_tie_rejected(self):
        aois = [AOIRegion(0, (0, 0, 10, 10)), AOIRegion(1, (5, 0, 15, 10))]
        with pytest.raises(ValueError, match="priorit"):
            map_to_aoi(fixations_at([7.0], [5.0]), aois)


class TestAoiPositions:
    """`map_to_aoi` maps every centroid of a trial at once, to positions in
    the AOI list."""

    # Nested and overlapping regions with ids out of list order.
    AOIS = [AOIRegion(2, (0, 0, 10, 10), priority=0),
            AOIRegion(0, (5, 5, 15, 15), priority=1),
            AOIRegion(1, (10, 0, 20, 10), priority=2),
            AOIRegion(3, (12, 2, 14, 4), priority=3)]

    def test_matches_contains(self):
        # Centroids on a 0.5 px grid hit every edge of every rectangle.
        xs, ys = (v.ravel() for v in np.meshgrid(np.arange(-1, 22, 0.5),
                                                 np.arange(-1, 17, 0.5)))
        want = []
        for x, y in zip(xs, ys):
            containing = [a for a in self.AOIS if a.contains(x, y)]
            top = max(containing, key=lambda a: a.priority, default=None)
            want.append(-1 if top is None else self.AOIS.index(top))
        assert map_to_aoi(fixations_at(xs, ys), self.AOIS).tolist() == want

    def test_first_tied_centroid_named(self):
        aois = [AOIRegion(0, (0, 0, 10, 10)), AOIRegion(1, (5, 0, 15, 10)),
                AOIRegion(2, (20, 0, 30, 10)), AOIRegion(3, (25, 0, 35, 10))]
        # The first centroid is unambiguous, the second ties 2 and 3.
        with pytest.raises(ValueError, match="overlapping AOIs 2, 3 share"):
            map_to_aoi(fixations_at([1.0, 27.0, 7.0], [5.0] * 3), aois)

    def test_no_centroids_or_no_aois(self):
        assert map_to_aoi(fixations_at([], []), self.AOIS).tolist() == []
        assert map_to_aoi(fixations_at([1.0], [1.0]), []).tolist() == [-1]


def planted_trial(centers, trial_id="t0", condition="TC", dwell_s=0.2):
    """Gaze dwelling on each center in turn, joined by 2-sample saccades."""
    rows = []
    t = 0.0
    for i, (x, y) in enumerate(centers):
        rows += stationary_samples(x, y, t, dwell_s).tolist()
        t = rows[-1][0]
        if i + 1 < len(centers):
            nx, ny = centers[i + 1]
            for frac in (0.4, 0.8):
                t += 1 / 120.0
                rows.append((t, x + frac * (nx - x), y + frac * (ny - y), 1.0))
            t += 1 / 120.0
    return Trial("p0", condition, trial_id, gaze(rows))


class TestBuildScanpath:
    def test_planted_end_to_end(self):
        # Dwell centers inside AOIs 2, 0, 2, 1 in order.
        trial = planted_trial([(400, 500), (200, 900), (400, 500), (1700, 300)])
        record = build_scanpath(trial, SEARCH_TASK_AOIS)
        assert record.symbols.tolist() == [2, 0, 2, 1]
        assert record.alphabet_size == 4
        assert record.dropped_fixations == 0

    def test_all_low_confidence(self):
        samples = planted_trial([(400, 500)]).samples.copy()
        samples["confidence"] = 0.2
        record = build_scanpath(Trial("p0", "TC", "t0", samples), SEARCH_TASK_AOIS)
        assert record.symbols.tolist() == []

    def test_collapse_repeats(self):
        # Same-AOI dwells placed > 50 px apart so IDT keeps them distinct.
        trial = planted_trial([(350, 450), (450, 550), (150, 800),
                               (250, 950), (1700, 300)])
        plain = build_scanpath(trial, SEARCH_TASK_AOIS)
        assert plain.symbols.tolist() == [2, 2, 0, 0, 1]
        collapsed = build_scanpath(trial, SEARCH_TASK_AOIS,
                                   PipelineParams(collapse_repeats=True))
        assert collapsed.symbols.tolist() == [2, 0, 1]

    def test_dropped_fixations_counted(self):
        aois = [AOIRegion(0, (0, 0, 100, 100)), AOIRegion(1, (100, 0, 200, 100))]
        trial = planted_trial([(50, 50), (500, 500), (150, 50)])
        record = build_scanpath(trial, aois)
        assert record.symbols.tolist() == [0, 1]
        assert record.dropped_fixations == 1

    def test_noncontiguous_ids_rejected(self):
        aois = [AOIRegion(1, (0, 0, 10, 10)), AOIRegion(2, (10, 0, 20, 10))]
        with pytest.raises(ValueError, match="0..n-1"):
            build_scanpath(planted_trial([(5, 5)]), aois)

    def test_deterministic(self):
        trial = planted_trial([(400, 500), (200, 900)])
        a = build_scanpath(trial, SEARCH_TASK_AOIS)
        b = build_scanpath(trial, SEARCH_TASK_AOIS)
        assert np.array_equal(a.symbols, b.symbols)


class TestInvalidSamples:
    """Non-finite x, y or confidence: dropped before IDT and counted."""

    @staticmethod
    def dirty_and_clean():
        # One planted 200 ms dwell; an interior x = nan row and an
        # inf-confidence row, and the same samples with those rows deleted.
        dirty = planted_trial([(400, 500)]).samples.copy()
        dirty["x"][5] = np.nan
        dirty["confidence"][12] = np.inf
        clean = np.delete(dirty, [5, 12])
        return Trial("p0", "TC", "t0", dirty), Trial("p0", "TC", "t0", clean)

    def test_same_fixation_as_rows_deleted(self):
        dirty, clean = self.dirty_and_clean()
        fixations = trial_fixations(dirty.samples)
        assert len(fixations) == 1
        assert fixations.tolist() == trial_fixations(clean.samples).tolist()
        record = build_scanpath(dirty, SEARCH_TASK_AOIS)
        assert record.symbols.tolist() == [2]
        assert record.invalid_samples == 2
        assert build_scanpath(clean, SEARCH_TASK_AOIS).invalid_samples == 0

    def test_count_round_trips(self):
        doc = build_scanpath(self.dirty_and_clean()[0], SEARCH_TASK_AOIS).to_dict()
        assert doc["invalid_samples"] == 2
        assert ScanpathRecord.from_dict(doc).invalid_samples == 2
        del doc["invalid_samples"]
        assert ScanpathRecord.from_dict(doc).invalid_samples == 0


class TestStageCounters:
    """Samples below the confidence threshold and over-long fixations."""

    @staticmethod
    def record():
        # A 2000 ms dwell in the left target box, a saccade, then a 200 ms
        # dwell in the right half with two low-confidence samples and one
        # x = nan sample inside it.
        long_dwell = stationary_samples(400, 500, 0.0, 2.0)
        t = long_dwell["timestamp"][-1] + 1 / 120.0
        saccade = gaze([(t, 1000.0, 400.0, 1.0)])
        short_dwell = stationary_samples(1700, 300, t + 1 / 120.0, 0.2)
        short_dwell["confidence"][[5, 9]] = 0.5
        short_dwell["x"][12] = np.nan
        samples = np.concatenate([long_dwell, saccade, short_dwell])
        return build_scanpath(Trial("p0", "TC", "t0", samples), SEARCH_TASK_AOIS)

    def test_counts(self):
        record = self.record()
        assert record.symbols.tolist() == [1]
        assert record.low_confidence_samples == 2
        assert record.long_fixations == 1
        assert record.invalid_samples == 1
        assert record.dropped_fixations == 0

    def test_counts_round_trip(self):
        doc = self.record().to_dict()
        assert (doc["low_confidence_samples"], doc["long_fixations"]) == (2, 1)
        again = ScanpathRecord.from_dict(doc)
        assert (again.low_confidence_samples, again.long_fixations) == (2, 1)
        del doc["low_confidence_samples"], doc["long_fixations"]
        again = ScanpathRecord.from_dict(doc)
        assert (again.low_confidence_samples, again.long_fixations) == (0, 0)


class TestTrialValidation:
    def test_timestamps_must_increase(self):
        samples = gaze([(0.1, 0, 0, 1.0), (0.1, 1, 1, 1.0)])
        with pytest.raises(ValueError, match="strictly increasing"):
            Trial("p", "c", "t", samples)

    def test_nan_timestamp_rejected(self):
        samples = gaze([(0.0, 0, 0, 1.0), (np.nan, 1, 1, 1.0), (0.2, 1, 1, 1.0)])
        with pytest.raises(ValueError, match="strictly increasing"):
            Trial("p", "c", "t", samples)


class TestGazeCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "gaze.csv"
        path.write_text(
            "trial_id,participant_id,condition,timestamp,x,y,confidence\n"
            "t1,p1,TC,0.0,10,20,1.0\n"
            "t1,p1,TC,0.008,11,21,1.0\n"
            "t0,p1,TC,0.0,5,6,0.4\n"
        )
        trials = read_gaze_csv(path)
        assert [t.trial_id for t in trials] == ["t0", "t1"]  # canonical order
        assert trials[1].samples.dtype == GAZE_DTYPE
        assert np.array_equal(trials[1].samples,
                              gaze([(0.0, 10, 20, 1.0), (0.008, 11, 21, 1.0)]))

    def test_quoted_field_extra_column_reordered_header(self, tmp_path):
        path = tmp_path / "gaze.csv"
        path.write_text(
            "x,confidence,timestamp,condition,participant_id,trial_id,y,note\n"
            '10,1.0,0.0,TC,p1,"t,1",20,"left, top"\n'
            '11,0.5,0.008,TC,p1,"t,1",21,\n'
            "5,0.4,0.0,TC,p0,t0,6,,extra\n"
        )
        trials = read_gaze_csv(path)
        assert [(t.participant_id, t.trial_id, t.condition) for t in trials] == [
            ("p0", "t0", "TC"), ("p1", "t,1", "TC")]
        assert np.array_equal(trials[0].samples, gaze([(0.0, 5, 6, 0.4)]))
        assert np.array_equal(trials[1].samples,
                              gaze([(0.0, 10, 20, 1.0), (0.008, 11, 21, 0.5)]))

    def test_errors_name_the_physical_line(self, tmp_path):
        path = tmp_path / "gaze.csv"
        path.write_text(
            "trial_id,participant_id,condition,timestamp,x,y,confidence\n"
            "t1,p1,TC,0.0,10,20,1.0\n"
            "\n"
            "\n"
            "t1,p1,TC,oops,10,20,1.0\n"
        )
        with pytest.raises(ValueError, match="line 5: "):
            read_gaze_csv(path)

    def test_short_row_names_column_count(self, tmp_path):
        path = tmp_path / "gaze.csv"
        path.write_text(
            "trial_id,participant_id,condition,timestamp,x,y,confidence\n"
            "t1,p1,TC,0.0,10,20,1.0\n"
            "t1,p1,TC,0.008,10\n"
        )
        with pytest.raises(ValueError,
                           match=r"line 3: 5 field\(s\) where the header has 7 columns"):
            read_gaze_csv(path)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "gaze.csv"
        path.write_text("trial_id,participant_id,condition,timestamp,x,y\n")
        with pytest.raises(ValueError, match="confidence"):
            read_gaze_csv(path)

    def test_column_named_twice(self, tmp_path, monkeypatch):
        # Each reader would silently take the second `x`; both refuse the
        # header, and the fast one leaves the wording to the row reader. An
        # unused column may repeat.
        header = "trial_id,participant_id,condition,timestamp,x,y,confidence"
        path = tmp_path / "gaze.csv"
        path.write_text(f"{header},x\nt1,p1,TC,0.0,10,20,1.0,999\n")
        fallbacks = count_fallbacks(monkeypatch)
        with pytest.raises(ValueError,
                           match="gaze CSV header names column 'x' twice"):
            read_gaze_csv(path)
        assert fallbacks == [path]
        path.write_text(f"{header},note,note\nt1,p1,TC,0.0,10,20,1.0,a,b\n")
        [trial] = read_gaze_csv(path)
        assert np.array_equal(trial.samples, gaze([(0.0, 10, 20, 1.0)]))

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_timestamp_reports_line(self, tmp_path, value):
        path = tmp_path / "gaze.csv"
        path.write_text(
            "trial_id,participant_id,condition,timestamp,x,y,confidence\n"
            "t1,p1,TC,0.0,10,20,1.0\n"
            f"t1,p1,TC,{value},10,20,1.0\n"
        )
        with pytest.raises(ValueError, match="line 3: non-finite timestamp"):
            read_gaze_csv(path)

    def test_repeated_timestamp_names_line_participant_and_trial(self, tmp_path):
        # Trial ids repeat across participants, so the error names both.
        path = tmp_path / "gaze.csv"
        path.write_text(
            "trial_id,participant_id,condition,timestamp,x,y,confidence\n"
            "t0,p0,TC,0.0,10,20,1.0\n"
            "t0,p0,TC,0.008,10,20,1.0\n"
            "t0,p1,TC,0.0,10,20,1.0\n"
            "t0,p1,TC,0.008,10,20,1.0\n"
            "t0,p1,TC,0.008,11,21,1.0\n"
        )
        with pytest.raises(ValueError, match=r"line 6: participant 'p1' "
                                             r"trial 't0': timestamp '0.008'"):
            read_gaze_csv(path)

    def test_utf8_bom_header(self, tmp_path):
        # Spreadsheet exports often start with a byte order mark.
        text = ("trial_id,participant_id,condition,timestamp,x,y,confidence\n"
                "t1,p1,TC,0.0,10,20,1.0\n"
                "t1,p1,TC,0.008,11,21,1.0\n")
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        bom.write_text(text, encoding="utf-8-sig")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        assert trial_tuples(read_gaze_csv(bom)) == trial_tuples(
            read_gaze_csv(plain))

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "gaze.csv"
        path.write_text(
            "trial_id,participant_id,condition,timestamp,x,y,confidence\n"
            "t1,p1,TC,0.0,10,20,1.0\n"
            "t1,p1,TC,oops,10,20,1.0\n"
        )
        with pytest.raises(ValueError, match="line 3"):
            read_gaze_csv(path)


def trial_tuples(trials):
    return [(t.participant_id, t.trial_id, t.condition, t.samples.tobytes())
            for t in trials]


def read_outcome(read, path):
    """What a reader gives: its trials, or its exception's type and message."""
    try:
        return trial_tuples(read(path))
    except Exception as exc:  # compared, never swallowed: see the callers
        return type(exc), str(exc)


FAULTS = (None, "non-finite", "repeated", "condition", "short", "oops")


def random_gaze_csv(rng, fault=None):
    """A gaze CSV that mixes every awkward feature the reader must handle.

    Trials interleave across participants and share ids between them; ids
    hold commas, quotes, newlines and other awkward text; there are blank
    lines, LF or CRLF line ends, sometimes a byte order mark, extra and
    reordered columns, whitespace around numbers and non-finite x, y or
    confidence. Sometimes a `1_0` value, which Python's
    `float` accepts and numpy does not. `fault` injects one error the
    reader must word. Returns the text and whether it holds `1_0`.
    """
    columns = list(gaze_module.GAZE_CSV_COLUMNS) + ["note", "extra"][
        :int(rng.integers(0, 3))]
    rng.shuffle(columns)
    pids = ["p0", "p,1", 'p"2']
    tids = ["t0", "t#1", "t\n2", " t3 ", "t,\"4\"", "é5"]
    trials = [(p, t, "AB"[int(rng.integers(2))])
              for p in pids for t in tids if rng.random() < 0.5]
    # Each trial's rows in time order; the trials interleave at random.
    queues = []
    for key in trials:
        t, rows = 0.0, []
        for _ in range(int(rng.integers(1, 8))):
            t += float(rng.uniform(0.001, 0.01))
            rows.append((key, f"{t:.6f}"))
        queues.append(rows)
    if rng.random() < 0.1:
        queues = []  # a header-only file
    merged = []
    while queues:
        merged.append(queues[int(rng.integers(len(queues)))].pop(0))
        queues = [q for q in queues if q]
    records = []
    for (pid, tid, cond), ts in merged:
        values = {"trial_id": tid, "participant_id": pid, "condition": cond,
                  "timestamp": ts, "note": "n,o\"te", "extra": ""}
        for name in ("x", "y", "confidence"):
            v = float(rng.uniform(0, 1000))
            values[name] = str(rng.choice(
                [repr(v), f"{v:.3f}", f" {v:.2f} ", "nan", "-inf", "-0.0"],
                p=[0.3, 0.3, 0.2, 0.1, 0.05, 0.05]))
        records.append(values)
    underscore = bool(records) and rng.random() < 0.2
    if underscore:
        records[int(rng.integers(len(records)))]["x"] = "1_0"
    short = None
    if fault is not None and records:
        at = int(rng.integers(len(records)))
        row = records[at]
        if fault == "non-finite":
            row["timestamp"] = str(rng.choice(["inf", "nan", "-inf"]))
        elif fault == "repeated":
            same = [i for i in range(at) if records[i]["trial_id"] == row[
                "trial_id"] and records[i]["participant_id"] == row[
                "participant_id"]]
            row["timestamp"] = records[same[-1]]["timestamp"] if same else "0"
        elif fault == "condition":
            row["condition"] = "C"
        elif fault == "short":
            short = at
        else:
            row[str(rng.choice(["timestamp", "x", "confidence"]))] = "oops"
    newline = str(rng.choice(["\n", "\r\n"]))
    out = io.StringIO(newline="")
    if rng.random() < 0.2:
        out.write("\ufeff")
    writer = csv.writer(out, lineterminator=newline)
    writer.writerow(columns)
    for i, values in enumerate(records):
        while rng.random() < 0.1:
            out.write(newline)
        row = [values[c] for c in columns]
        writer.writerow(row[:2] if i == short else row)
    return out.getvalue(), underscore


def count_fallbacks(monkeypatch):
    """A list that records each path `read_gaze_csv` hands to the row reader."""
    rows_reader = gaze_module._read_gaze_rows
    fallbacks = []

    def counted(path):
        fallbacks.append(path)
        return rows_reader(path)

    monkeypatch.setattr(gaze_module, "_read_gaze_rows", counted)
    return fallbacks


class TestGazeCsvChunks:
    """The chunked numpy reader against the row reader that words errors."""

    @pytest.mark.parametrize("chunk_rows", [1, 3, gaze_module.CHUNK_ROWS])
    @pytest.mark.parametrize("fault", FAULTS)
    def test_same_as_row_reader(self, tmp_path, monkeypatch, chunk_rows, fault):
        rows_reader = gaze_module._read_gaze_rows
        monkeypatch.setattr(gaze_module, "CHUNK_ROWS", chunk_rows)
        fallbacks = count_fallbacks(monkeypatch)
        rng = np.random.default_rng([FAULTS.index(fault), chunk_rows])
        path = tmp_path / "gaze.csv"
        for _ in range(12):
            text, underscore = random_gaze_csv(rng, fault)
            path.write_bytes(text.encode("utf-8"))
            fallbacks.clear()
            got = read_outcome(read_gaze_csv, path)
            assert got == read_outcome(rows_reader, path)
            # Only an error, or a value numpy does not parse, falls back.
            assert bool(fallbacks) == (isinstance(got, tuple) or underscore)

    # Ids wider than the starting width of their column, ids outside
    # latin-1, and ids that differ only by trailing NULs, which fixed-width
    # bytes would drop: (trial ids, participant ids, condition).
    ODD_IDS = {
        "wide": (["t" * 7, "t" * 8, "\u00e9" * 9 + "t", "x" * 70],
                 ["p", "p" * 33], "condition-" * 4),
        "non-latin-1": (["\u53c2\u52a0\u8005", "\u20ac1", "t"],
                        ["\u20ac1", "\u53c2\u52a0\u8005"], "\u6761\u4ef6"),
        "nul": (["t", "t\0"], ["p\0\0", "p"], "c"),
    }

    # Small chunks and check blocks split the wide ids from the first
    # rows, and split multi-byte characters between blocks.
    @pytest.mark.parametrize("chunk_rows, block", [
        (2, 3), (gaze_module.CHUNK_ROWS, gaze_module.CHECK_BLOCK)])
    @pytest.mark.parametrize("case", ODD_IDS)
    def test_odd_ids(self, tmp_path, monkeypatch, chunk_rows, block, case):
        tids, pids, condition = self.ODD_IDS[case]
        rows_reader = gaze_module._read_gaze_rows
        monkeypatch.setattr(gaze_module, "CHUNK_ROWS", chunk_rows)
        monkeypatch.setattr(gaze_module, "CHECK_BLOCK", block)
        fallbacks = count_fallbacks(monkeypatch)
        out = io.StringIO(newline="")
        out.write("\ufeff")
        writer = csv.writer(out)
        writer.writerow(gaze_module.GAZE_CSV_COLUMNS)
        # One condition, and timestamps that increase down the file, so
        # that merged trials would read without an error.
        keys = [(p, t) for p in pids for t in tids]
        for i in range(3):
            for k, (pid, tid) in enumerate(keys):
                writer.writerow([tid, pid, condition, i + k / 100, k, i, 1.0])
        path = tmp_path / "gaze.csv"
        path.write_bytes(out.getvalue().encode("utf-8"))
        got = read_outcome(read_gaze_csv, path)
        assert got == read_outcome(rows_reader, path)
        assert [(p, t) for p, t, _, _ in got] == sorted(keys)
        # Only the file with NULs goes to the row reader.
        assert len(fallbacks) == (case == "nul")

    @pytest.mark.parametrize("column", ["trial_id", "note"])
    @pytest.mark.parametrize("bad", [b"\xff", b"\xc3(", b"\xe2\x82"])
    def test_invalid_utf8_raises_as_row_reader(self, tmp_path, column, bad):
        # Even in a column that is not read, as the text reader raises
        # wherever it meets such bytes.
        path = tmp_path / "gaze.csv"
        fields = {"trial_id": b"t", "note": b""}
        fields[column] += bad
        path.write_bytes(
            b"trial_id,participant_id,condition,timestamp,x,y,confidence,note\n"
            b"t,p,c,0.0,1,2,1,\n"
            + b"%s,p,c,0.1,1,2,1,%s\n" % (fields["trial_id"], fields["note"]))
        got = read_outcome(read_gaze_csv, path)
        assert got[0] is UnicodeDecodeError
        assert got == read_outcome(gaze_module._read_gaze_rows, path)

    def test_character_split_by_an_ascii_block(self, tmp_path, monkeypatch):
        # The check reads 3-byte blocks: a lead byte ends one, an ASCII
        # block follows, and the continuation bytes start the next. Joined
        # without the ASCII block they would read as a valid character. It
        # is in a column that is not read, so no id decoding meets it.
        monkeypatch.setattr(gaze_module, "CHECK_BLOCK", 3)
        head = (b"trial_id,participant_id,condition,timestamp,x,y,confidence,"
                b"note\nt,p,c,0.0,1,2,1,")
        pad = b"n" * ((2 - len(head)) % 3)
        path = tmp_path / "gaze.csv"
        path.write_bytes(head + pad + b"\xe2abc\x82\xac\n")
        got = read_outcome(read_gaze_csv, path)
        assert got[0] is UnicodeDecodeError
        assert got == read_outcome(gaze_module._read_gaze_rows, path)

    def test_wide_id_memory(self, tmp_path):
        # A 100 000-byte trial id widens its column to 2**17 bytes, and the
        # chunks shrink to one row, so a few ids' bytes are alive at once.
        wide = "t" * 100_000
        path = tmp_path / "gaze.csv"
        path.write_text(
            "trial_id,participant_id,condition,timestamp,x,y,confidence\n"
            + "".join(f"{tid},p0,TC,{i / 120:.6f},1,2,1\n"
                      for i in range(20) for tid in ("t1", wide)))
        tracemalloc.start()
        try:
            trials = read_gaze_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [(t.trial_id, len(t.samples)) for t in trials] == [
            ("t1", 20), (wide, 20)]
        assert peak < 20 * len(wide)

    def test_interleaved_trials_across_chunks(self, tmp_path, monkeypatch):
        path = tmp_path / "gaze.csv"
        path.write_text(
            "trial_id,participant_id,condition,timestamp,x,y,confidence\n"
            + "".join(f"t{i % 2},p{i % 3},TC,{i},{i},0,1\n" for i in range(30)))
        monkeypatch.setattr(gaze_module, "CHUNK_ROWS", 4)
        trials = read_gaze_csv(path)
        assert [(t.participant_id, t.trial_id) for t in trials] == [
            ("p0", "t0"), ("p0", "t1"), ("p1", "t0"), ("p1", "t1"),
            ("p2", "t0"), ("p2", "t1")]
        for t in trials:
            assert t.samples["x"].tolist() == [
                i for i in range(30)
                if f"p{i % 3}" == t.participant_id and f"t{i % 2}" == t.trial_id]

    def test_error_hides_the_fast_path(self, tmp_path):
        # The row reader's error is not chained to the fast path's.
        path = tmp_path / "gaze.csv"
        path.write_text("trial_id,participant_id,condition,timestamp,x,y\n")
        with pytest.raises(ValueError, match="missing column") as info:
            read_gaze_csv(path)
        assert info.value.__context__ is None

    @pytest.mark.parametrize("body", ["", "\nt1,p1,TC,0.0,10,20,1.0\n\n\n"
                                          "t1,p1,TC,0.1,10,20,1.0\n\n"])
    def test_no_warnings(self, tmp_path, body):
        path = tmp_path / "gaze.csv"
        path.write_text(
            "trial_id,participant_id,condition,timestamp,x,y,confidence\n"
            + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trials = read_gaze_csv(path)
        assert sum(len(t.samples) for t in trials) == body.count("t1")

    def test_peak_memory(self, tmp_path):
        # 200 k samples in 20 trials: the ids of the rows must not all be
        # alive at once.
        n = 200_000
        rng = np.random.default_rng(11)
        xs, ys = rng.uniform(0, 1920, n), rng.uniform(0, 1080, n)
        path = tmp_path / "gaze.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("trial_id,participant_id,condition,timestamp,x,y,"
                     "confidence\n")
            fh.writelines(f"t{i // 20_000:02d},p0,TC,{i % 20_000 / 120:.6f},"
                          f"{x:.3f},{y:.3f},0.998\n"
                          for i, (x, y) in enumerate(zip(xs, ys)))
        tracemalloc.start()
        try:
            trials = read_gaze_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        nbytes = sum(t.samples.nbytes for t in trials)
        assert nbytes == n * GAZE_DTYPE.itemsize
        assert peak < 3 * nbytes


class TestAoiJson:
    def test_load(self, tmp_path):
        path = tmp_path / "aois.json"
        path.write_text(
            '[{"id": 0, "name": "left", "rect": [0, 0, 960, 1080], "priority": 0},'
            ' {"id": 2, "name": "target", "rect": [300, 400, 500, 600], "priority": 1}]'
        )
        aois = load_aois(path)
        assert [a.id for a in aois] == [0, 2]
        assert aois[1].priority == 1

    @pytest.mark.parametrize("rect", ["[0, 0, 10]", '[0, 0, "x", 10]',
                                      "null"])
    def test_rect_must_hold_four_numbers(self, tmp_path, rect):
        path = tmp_path / "aois.json"
        path.write_text('[{"id": 0, "rect": [0, 0, 10, 10]},'
                        f' {{"id": 7, "rect": {rect}}}]')
        with pytest.raises(ValueError, match=r"AOI 7: rect must hold four"):
            load_aois(path)
        with pytest.raises(ValueError, match=r"AOI 3: rect must hold four"):
            AOIRegion(3, ("0", "0", "1", "1"))

    def test_overlap_without_priorities_rejected(self, tmp_path):
        path = tmp_path / "aois.json"
        path.write_text(
            '[{"id": 0, "rect": [0, 0, 100, 100]},'
            ' {"id": 1, "rect": [50, 0, 150, 100]}]'
        )
        with pytest.raises(ValueError, match="priorit"):
            load_aois(path)

    @pytest.mark.parametrize("field, value, message", [
        ("id", "1.9", r"AOI 1\.9: id must be a whole number, got 1\.9"),
        ("id", "true", r"AOI True: id must be a whole number, got True"),
        ("id", '"1"', r"AOI '1': id must be a whole number, got '1'"),
        ("priority", "0.7", r"AOI 1: priority must be a whole number, got 0\.7"),
        ("priority", "false",
         r"AOI 1: priority must be a whole number, got False"),
    ], ids=["id-fraction", "id-bool", "id-string", "priority-fraction",
            "priority-bool"])
    def test_non_integer_fields_rejected(self, tmp_path, field, value, message):
        entry = {"id": "1", "rect": "[50, 0, 150, 100]", "priority": "0",
                 field: value}
        path = tmp_path / "aois.json"
        path.write_text('[{"id": 0, "rect": [0, 0, 10, 10]}, {'
                        + ", ".join(f'"{k}": {v}' for k, v in entry.items())
                        + "}]")
        with pytest.raises(ValueError, match=message):
            load_aois(path)

    def test_whole_floats_accepted(self, tmp_path):
        path = tmp_path / "aois.json"
        path.write_text('[{"id": 3.0, "rect": [0, 0, 10, 10], "priority": 1.0}]')
        (aoi,) = load_aois(path)
        assert (aoi.id, aoi.priority) == (3, 1)
        assert type(aoi.id) is int and type(aoi.priority) is int

    @pytest.mark.parametrize("text", ["[]", '{"aois": []}'])
    def test_no_aois_rejected(self, tmp_path, text):
        path = tmp_path / "aois.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="defines no AOIs"):
            load_aois(path)


class TestScanpathRecordJson:
    DOC = {"trial_id": "t7", "participant_id": "p1", "condition": "TC",
           "symbols": [0, 1, 1, 0], "alphabet_size": 2}

    @pytest.mark.parametrize("field, value, message", [
        ("symbols", [0, 1.5, 1, 0.2], r"symbols\[1\] must be a whole number, got 1\.5"),
        ("symbols", [0, True, 1, 0], r"symbols\[1\] must be a whole number, got True"),
        ("symbols", [0, 1, "1", 0], r"symbols\[2\] must be a whole number, got '1'"),
        ("symbols", 5, r"symbols must be a list, got 5"),
        ("alphabet_size", 2.9, r"alphabet_size must be a whole number, got 2\.9"),
        ("alphabet_size", True, r"alphabet_size must be a whole number, got True"),
        ("dropped_fixations", 0.5, r"dropped_fixations must be a whole number"),
        ("invalid_samples", 1.5, r"invalid_samples must be a whole number"),
        ("low_confidence_samples", False,
         r"low_confidence_samples must be a whole number"),
        ("long_fixations", 2.25, r"long_fixations must be a whole number"),
    ], ids=["symbols-fraction", "symbols-bool", "symbols-string", "symbols-int",
            "alphabet_size-fraction", "alphabet_size-bool",
            "dropped_fixations", "invalid_samples", "low_confidence_samples",
            "long_fixations"])
    def test_non_integer_fields_rejected(self, field, value, message):
        doc = dict(self.DOC, **{field: value})
        with pytest.raises(ValueError,
                           match=r"participant 'p1' trial 't7': " + message):
            ScanpathRecord.from_dict(doc)

    def test_whole_floats_accepted(self):
        record = ScanpathRecord.from_dict(
            dict(self.DOC, symbols=[0.0, 1.0, 1, 0], alphabet_size=2.0))
        assert record.symbols.tolist() == [0, 1, 1, 0]
        assert record.symbols.dtype == np.int64
        assert type(record.alphabet_size) is int

    def test_symbols_round_trip_as_plain_ints(self):
        for symbols in ([0, 1, 1, 0], np.array([0, 1, 1, 0], dtype=np.int32),
                        [np.int64(0), 1, 1.0, 0]):
            record = ScanpathRecord.from_dict(dict(self.DOC, symbols=symbols))
            doc = record.to_dict()
            assert doc["symbols"] == [0, 1, 1, 0]
            assert {type(s) for s in doc["symbols"]} == {int}
            assert ScanpathRecord.from_dict(doc).to_dict() == doc
