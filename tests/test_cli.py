import csv
import io
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import gazeais.cli
import gazeais.experiment
from gazeais import (RunConfig, ScanpathRecord, analyze_trial,
                     compare_conditions, derive_seed, detect_fixations_idt,
                     filter_fixations, filter_gaze, generate, lagged_copy_spec,
                     persistence_spec, read_gaze_csv)
from gazeais.cli import main

GAZE_HEADER = "trial_id,participant_id,condition,timestamp,x,y,confidence\n"

AOIS_JSON = [
    {"id": 0, "name": "left-half", "rect": [0, 0, 960, 1080], "priority": 0},
    {"id": 1, "name": "right-half", "rect": [960, 0, 1920, 1080], "priority": 0},
    {"id": 2, "name": "target-left", "rect": [300, 400, 500, 600], "priority": 1},
    {"id": 3, "name": "target-right", "rect": [1260, 400, 1460, 600], "priority": 1},
]


def write_planted_gaze(path, centers, trial_id="t0", participant="p0",
                       condition="TC", dwells=None):
    rows = [GAZE_HEADER]
    t = 0.0
    for i, (x, y) in enumerate(centers):
        for _ in range(dwells[i] if dwells else 25):
            rows.append(f"{trial_id},{participant},{condition},{t:.6f},{x},{y},1.0\n")
            t += 1 / 120.0
        if i + 1 < len(centers):
            nx, ny = centers[i + 1]
            for frac in (0.4, 0.8):
                rows.append(
                    f"{trial_id},{participant},{condition},{t:.6f},"
                    f"{x + frac * (nx - x)},{y + frac * (ny - y)},1.0\n")
                t += 1 / 120.0
    path.write_text("".join(rows))


def write_spec(path, p_stay=0.9, m=4):
    off = (1 - p_stay) / (m - 1)
    spec = {"order": 1, "alphabet_size": m,
            "transition": {str(s): [p_stay if t == s else off for t in range(m)]
                           for s in range(m)}}
    path.write_text(json.dumps(spec))


class TestFixationsCommand:
    def test_planted_trace(self, tmp_path):
        gaze = tmp_path / "gaze.csv"
        write_planted_gaze(gaze, [(400, 500), (1700, 300)])
        out = tmp_path / "fix.csv"
        assert main(["fixations", str(gaze), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ("trial_id,start_time,duration_ms,centroid_x,"
                            "centroid_y,participant_id")
        assert len(lines) == 3
        fields = lines[1].split(",")
        assert float(fields[3]) == pytest.approx(400.0, abs=1.0)
        assert fields[5] == "p0"

    def test_participants_sharing_a_trial_id(self, tmp_path):
        # Two people recorded trial t0; each row must say whose it is, in
        # the input's order.
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_planted_gaze(first, [(400, 500)], participant="p1")
        write_planted_gaze(second, [(1700, 300), (200, 900)], participant="p2")
        gaze = tmp_path / "gaze.csv"
        gaze.write_text(first.read_text()
                        + "".join(second.read_text().splitlines(True)[1:]))
        out = tmp_path / "fix.csv"
        assert main(["fixations", str(gaze), "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        assert [(r[0], r[5]) for r in rows] == [("t0", "p1"), ("t0", "p2"), ("t0", "p2")]
        assert [round(float(r[3])) for r in rows] == [400, 1700, 200]

    def test_empty_input(self, tmp_path):
        gaze = tmp_path / "gaze.csv"
        gaze.write_text(GAZE_HEADER)
        out = tmp_path / "fix.csv"
        assert main(["fixations", str(gaze), "--out", str(out)]) == 0
        assert out.read_text().strip() == \
            "trial_id,start_time,duration_ms,centroid_x,centroid_y,participant_id"

    def test_missing_column(self, tmp_path, capsys):
        gaze = tmp_path / "gaze.csv"
        gaze.write_text("trial_id,participant_id,condition,timestamp,x,y\n")
        out = tmp_path / "fix.csv"
        assert main(["fixations", str(gaze), "--out", str(out)]) != 0
        assert "confidence" in capsys.readouterr().err

    def test_malformed_row_line_number(self, tmp_path, capsys):
        gaze = tmp_path / "gaze.csv"
        gaze.write_text(GAZE_HEADER + "t0,p0,TC,zero,1,1,1.0\n")
        assert main(["fixations", str(gaze), "--out", str(tmp_path / "f.csv")]) != 0
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_timestamp_exit_2(self, tmp_path, capsys, value):
        gaze = tmp_path / "gaze.csv"
        gaze.write_text(GAZE_HEADER + "t0,p0,TC,0.0,1,1,1.0\n"
                        f"t0,p0,TC,{value},1,1,1.0\n")
        assert main(["fixations", str(gaze), "--out", str(tmp_path / "f.csv")]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_max_duration_matches_scanpath(self, tmp_path):
        # A 2000 ms dwell in the left target box, then a 200 ms one in the
        # right half: both commands drop the first and keep the second.
        gaze = tmp_path / "gaze.csv"
        write_planted_gaze(gaze, [(400, 500), (1700, 300)], dwells=(241, 25))
        aois = tmp_path / "aois.json"
        aois.write_text(json.dumps(AOIS_JSON))
        fix, scan = tmp_path / "fix.csv", tmp_path / "scan.json"
        assert main(["fixations", str(gaze), "--out", str(fix)]) == 0
        assert main(["scanpath", str(gaze), "--aois", str(aois),
                     "--out", str(scan)]) == 0
        rows = fix.read_text().strip().splitlines()[1:]
        assert len(rows) == 1
        assert float(rows[0].split(",")[3]) == pytest.approx(1700.0, abs=1.0)
        trial = json.loads(scan.read_text())["trials"][0]
        assert trial["symbols"] == [1]
        assert trial["long_fixations"] == 1
        assert main(["fixations", str(gaze), "--max-duration", "2500",
                     "--out", str(fix)]) == 0
        assert len(fix.read_text().strip().splitlines()) == 3

    def test_rows_as_csv_writer_formats_them(self, tmp_path):
        # Ids that csv quotes, or that a %-template would read as its own,
        # a trial without fixations, and a trial whose one fixation lasts
        # exactly the maximum duration, which is kept.
        odd = ['t%s,"1"\n%', "p%d \u00e9\u53c2 100%%"]
        rows = []
        for x, dwell in ((400.0, 40), (1700.0, 131), (700.5, 25)):
            rows += [(x + i % 3, 500.0 - i % 2) for i in range(dwell)]
            rows.append((x + 600.0, 900.0))
        trials = {
            tuple(odd): [(i / 120, x, y) for i, (x, y) in enumerate(rows)],
            ("sweep", odd[1]): [(i / 120, 300.0 * i, 0.0) for i in range(40)],
            ("edge", "p"): [(i / 8, 5.0, 6.0) for i in range(9)],
        }
        text = io.StringIO(newline="")
        writer = csv.writer(text)
        writer.writerow(GAZE_HEADER.strip().split(","))
        for (tid, pid), samples in trials.items():
            writer.writerows([tid, pid, "TC", repr(t), x, y, 1.0]
                             for t, x, y in samples)
        gaze = tmp_path / "gaze.csv"
        gaze.write_bytes(text.getvalue().encode("utf-8"))
        out = tmp_path / "fix.csv"
        assert main(["fixations", str(gaze), "--max-duration", "1000",
                     "--out", str(out)]) == 0

        # The rows as csv.writer writes them, through the public stages.
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["trial_id", "start_time", "duration_ms", "centroid_x",
                         "centroid_y", "participant_id"])
        counts = {}
        for trial in read_gaze_csv(gaze):
            fixations = filter_fixations(detect_fixations_idt(
                filter_gaze(trial.samples)), max_duration=1000.0)
            counts[trial.trial_id] = len(fixations)
            writer.writerows(
                [trial.trial_id, *(f"{v:.12g}" for v in (
                    f["start_time"], f["duration"], f["centroid_x"],
                    f["centroid_y"])), trial.participant_id]
                for f in fixations)
        assert counts == {odd[0]: 2, "sweep": 0, "edge": 1}
        assert out.read_bytes() == expected.getvalue().encode("utf-8")


class TestPublicStages:
    """`fixations` and `scanpath` run IDT through the public
    `gaze.detect_fixations_idt`, once per trial."""

    @pytest.mark.parametrize("command", ["fixations", "scanpath"])
    def test_detect_fixations_idt_once_per_trial(self, tmp_path, monkeypatch,
                                                 command):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_planted_gaze(first, [(400, 500), (1700, 300)], trial_id="t0")
        write_planted_gaze(second, [(200, 900)], trial_id="t1")
        gaze = tmp_path / "gaze.csv"
        gaze.write_text(first.read_text()
                        + "".join(second.read_text().splitlines(True)[1:]))
        aois = tmp_path / "aois.json"
        aois.write_text(json.dumps(AOIS_JSON))
        detected = []
        detect = gazeais.gaze.detect_fixations_idt

        def counted(*args, **kwargs):
            fixations = detect(*args, **kwargs)
            detected.append(len(fixations))
            return fixations

        monkeypatch.setattr(gazeais.gaze, "detect_fixations_idt", counted)
        flags = ["--aois", str(aois)] if command == "scanpath" else []
        assert main([command, str(gaze), *flags,
                     "--out", str(tmp_path / "out")]) == 0
        assert detected == [2, 1]


class TestScanpathCommand:
    def test_four_aoi_layout(self, tmp_path):
        gaze = tmp_path / "gaze.csv"
        write_planted_gaze(gaze, [(400, 500), (200, 900), (1700, 300), (1350, 500)])
        aois = tmp_path / "aois.json"
        aois.write_text(json.dumps(AOIS_JSON))
        out = tmp_path / "scan.json"
        assert main(["scanpath", str(gaze), "--aois", str(aois),
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 1
        assert doc["trials"][0]["symbols"] == [2, 0, 1, 3]
        assert doc["trials"][0]["alphabet_size"] == 4

    def test_invalid_samples_counted(self, tmp_path):
        gaze = tmp_path / "gaze.csv"
        write_planted_gaze(gaze, [(400, 500), (1700, 300)])
        lines = gaze.read_text().splitlines(keepends=True)
        lines[5] = lines[5].replace(",400,500,", ",nan,500,")
        lines[9] = lines[9].rsplit(",", 1)[0] + ",inf\n"
        gaze.write_text("".join(lines))
        aois = tmp_path / "aois.json"
        aois.write_text(json.dumps(AOIS_JSON))
        out = tmp_path / "scan.json"
        assert main(["scanpath", str(gaze), "--aois", str(aois),
                     "--out", str(out)]) == 0
        trial = json.loads(out.read_text())["trials"][0]
        assert trial["symbols"] == [2, 1]
        assert trial["invalid_samples"] == 2

    def test_collapse_flag(self, tmp_path):
        # Both leading dwells sit in the target box but far enough apart
        # that IDT keeps them as separate fixations.
        gaze = tmp_path / "gaze.csv"
        write_planted_gaze(gaze, [(350, 450), (450, 550), (200, 900)])
        aois = tmp_path / "aois.json"
        aois.write_text(json.dumps(AOIS_JSON))
        out_plain = tmp_path / "plain.json"
        out_collapsed = tmp_path / "collapsed.json"
        main(["scanpath", str(gaze), "--aois", str(aois), "--out", str(out_plain)])
        main(["scanpath", str(gaze), "--aois", str(aois),
              "--out", str(out_collapsed), "--collapse-repeats"])
        assert json.loads(out_plain.read_text())["trials"][0]["symbols"] == [2, 2, 0]
        assert json.loads(out_collapsed.read_text())["trials"][0]["symbols"] == [2, 0]

    def test_overlapping_aois_need_priorities(self, tmp_path, capsys):
        gaze = tmp_path / "gaze.csv"
        write_planted_gaze(gaze, [(400, 500)])
        aois = tmp_path / "aois.json"
        aois.write_text(json.dumps([
            {"id": 0, "rect": [0, 0, 960, 1080]},
            {"id": 1, "rect": [300, 400, 500, 600]},
        ]))
        assert main(["scanpath", str(gaze), "--aois", str(aois),
                     "--out", str(tmp_path / "s.json")]) != 0
        assert "priorit" in capsys.readouterr().err

    def test_collapse_from_config(self, tmp_path):
        gaze = tmp_path / "gaze.csv"
        write_planted_gaze(gaze, [(350, 450), (450, 550), (200, 900)])
        aois = tmp_path / "aois.json"
        aois.write_text(json.dumps(AOIS_JSON))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("collapse_repeats = true\n")
        out = tmp_path / "scan.json"
        assert main(["scanpath", str(gaze), "--aois", str(aois),
                     "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["trials"][0]["symbols"] == [2, 0]

    def test_no_aois_exit_2(self, tmp_path, capsys):
        gaze = tmp_path / "gaze.csv"
        write_planted_gaze(gaze, [(400, 500)])
        aois = tmp_path / "aois.json"
        aois.write_text("[]")
        out = tmp_path / "scan.json"
        assert main(["scanpath", str(gaze), "--aois", str(aois),
                     "--out", str(out)]) == 2
        assert "defines no AOIs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, message", [
        ("id", "AOI entry 1: missing field 'id'"),
        ("rect", "AOI 1: missing field 'rect'"),
        (None, "AOIs must be a list, got int"),
    ])
    def test_malformed_aoi_file_exit_2(self, tmp_path, capsys, field, message):
        gaze = tmp_path / "gaze.csv"
        write_planted_gaze(gaze, [(400, 500)])
        entries = [dict(entry) for entry in AOIS_JSON]
        if field is None:
            entries = 5
        else:
            del entries[1][field]
        aois = tmp_path / "aois.json"
        aois.write_text(json.dumps(entries))
        assert main(["scanpath", str(gaze), "--aois", str(aois),
                     "--out", str(tmp_path / "s.json")]) == 2
        assert f"error: {aois}: {message}" in capsys.readouterr().err


class TestPipelineFlags:
    @pytest.mark.parametrize("command", ["fixations", "scanpath"])
    @pytest.mark.parametrize("flag, field", [
        ("--min-confidence", "min_confidence"),
        ("--dispersion", "dispersion_threshold"),
        ("--min-duration", "min_duration_ms"),
        ("--max-duration", "max_duration_ms"),
    ])
    def test_nan_exit_2(self, tmp_path, capsys, command, flag, field):
        # A NaN threshold compares false with everything, so it used to
        # drop every fixation, or keep every one-window fixation.
        gaze = tmp_path / "gaze.csv"
        write_planted_gaze(gaze, [(400, 500), (1700, 300)])
        aois = tmp_path / "aois.json"
        aois.write_text(json.dumps(AOIS_JSON))
        out = tmp_path / "out"
        argv = [command, str(gaze), flag, "nan", "--out", str(out)]
        if command == "scanpath":
            argv += ["--aois", str(aois)]
        assert main(argv) == 2
        assert f"{field} is NaN" in capsys.readouterr().err
        assert not out.exists()


class TestSimulateAndAis:
    def test_simulate_emits_oracle(self, tmp_path):
        spec = tmp_path / "spec.json"
        write_spec(spec)
        out = tmp_path / "sims.json"
        assert main(["simulate", str(spec), "--length", "150", "--trials", "3",
                     "--seed", "5", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["trials"]) == 3
        assert doc["oracle"]["analytic_entropy"] == pytest.approx(2.0)
        assert doc["oracle"]["analytic_ais_lag1"] > 0.5

    def test_simulate_reproducible(self, tmp_path):
        spec = tmp_path / "spec.json"
        write_spec(spec)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["simulate", str(spec), "--length", "100", "--trials", "2",
              "--seed", "5", "--out", str(out1)])
        main(["simulate", str(spec), "--length", "100", "--trials", "2",
              "--seed", "5", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_simulate_needs_a_trial(self, tmp_path, capsys, trials):
        spec = tmp_path / "spec.json"
        write_spec(spec)
        out = tmp_path / "sims.json"
        assert main(["simulate", str(spec), "--length", "50", "--trials",
                     trials, "--out", str(out)]) == 2
        assert f"--trials must be >= 1, got {trials}" in capsys.readouterr().err
        assert not out.exists()

    def test_ais_on_cycle(self, tmp_path):
        doc = {"schema_version": 1, "trials": [{
            "trial_id": "t0", "participant_id": "p0", "condition": "TC",
            "symbols": [int(v) for v in np.arange(160) % 4],
            "alphabet_size": 4, "dropped_fixations": 0}]}
        src = tmp_path / "scan.json"
        src.write_text(json.dumps(doc))
        out = tmp_path / "results.json"
        assert main(["ais", str(src), "--seed", "3", "--nperm", "100",
                     "--out", str(out)]) == 0
        result = json.loads(out.read_text())["results"][0]
        assert result["selected_lags"] == [1]
        assert result["normalized_ais"] == pytest.approx(1.0, abs=1e-6)
        assert result["symbols"][:4] == [0, 1, 2, 3]

    def test_ais_near_oracle(self, tmp_path):
        spec = tmp_path / "spec.json"
        write_spec(spec, p_stay=0.9, m=4)
        sims = tmp_path / "sims.json"
        main(["simulate", str(spec), "--length", "3000", "--trials", "1",
              "--seed", "11", "--out", str(sims)])
        oracle = json.loads(sims.read_text())["oracle"]["analytic_ais_lag1"]
        out = tmp_path / "results.json"
        main(["ais", str(sims), "--seed", "11", "--nperm", "100",
              "--out", str(out)])
        result = json.loads(out.read_text())["results"][0]
        assert result["ais"]["corrected_value"] == pytest.approx(oracle, abs=0.05)

    def test_constant_trial_writes_no_negative_zero(self, tmp_path):
        doc = {"schema_version": 1, "trials": [{
            "trial_id": "t0", "participant_id": "p0", "condition": "TC",
            "symbols": [0] * 40, "alphabet_size": 2, "dropped_fixations": 0}]}
        src = tmp_path / "scan.json"
        src.write_text(json.dumps(doc))
        out = tmp_path / "results.json"
        assert main(["ais", str(src), "--seed", "3", "--nperm", "100",
                     "--out", str(out)]) == 0
        text = out.read_text()
        h = json.loads(text)["results"][0]["entropy_next"]["plugin_value"]
        assert h == 0.0 and math.copysign(1.0, h) == 1.0
        assert "-0.0" not in text

    def test_ais_rejects_duplicate_trials(self, tmp_path, capsys):
        trial = {"trial_id": "t0", "participant_id": "p0", "condition": "TC",
                 "symbols": [int(v) for v in np.arange(60) % 2],
                 "alphabet_size": 2, "dropped_fixations": 0}
        src = tmp_path / "scan.json"
        src.write_text(json.dumps({"schema_version": 1,
                                   "trials": [trial, dict(trial)]}))
        out = tmp_path / "results.json"
        assert main(["ais", str(src), "--seed", "3", "--out", str(out)]) == 2
        assert (f"{src}: duplicate trial (participant, condition, trial) = "
                f"('p0', 'TC', 't0'), first read from {src}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_short_trial_skip_record_exit_zero(self, tmp_path):
        doc = {"schema_version": 1, "trials": [{
            "trial_id": "t0", "participant_id": "p0", "condition": "TC",
            "symbols": [0, 1, 0, 1], "alphabet_size": 2,
            "dropped_fixations": 0}]}
        src = tmp_path / "scan.json"
        src.write_text(json.dumps(doc))
        out = tmp_path / "results.json"
        assert main(["ais", str(src), "--seed", "3", "--out", str(out)]) == 0
        result = json.loads(out.read_text())["results"][0]
        assert result["skipped"] is True

    def test_library_reproduces_each_trial(self, tmp_path):
        # `analyze_trial(record, cfg)` is the trial's entry of `ais --seed
        # cfg.seed`, less the echoed symbols: binary and 4-AOI trials whose
        # selections depend on their seeds, and a skipped trial.
        records = [ScanpathRecord("short", "p0", "A", np.array([0, 1] * 4), 2)]
        for i in range(2):
            for name, spec in (("bin", persistence_spec(0.58)),
                               ("aoi4", lagged_copy_spec(2, 0.35, m=4))):
                seq = generate(spec, 300, seed=derive_seed(9, name, i))
                records.append(ScanpathRecord(f"{name}{i}", f"p{i}", name,
                                              seq.symbols, seq.alphabet_size))
        scan, out = tmp_path / "scan.json", tmp_path / "results.json"
        scan.write_text(json.dumps(
            {"schema_version": 1, "trials": [r.to_dict() for r in records]}))
        assert main(["ais", str(scan), "--seed", "9", "--kmax", "3",
                     "--nperm", "50", "--out", str(out)]) == 0
        entries = {e["trial_id"]: e for e in json.loads(out.read_text())["results"]}
        cfg = RunConfig(k_max=3, n_perm_selection=50, seed=9)
        moved = 0
        for rec in records:
            entry = {k: v for k, v in entries[rec.trial_id].items()
                     if k not in ("symbols", "alphabet_size")}
            assert gazeais.cli._round12(analyze_trial(rec, cfg).to_dict()) == entry
            other = analyze_trial(rec, replace(cfg, seed=10)).to_dict()
            moved += gazeais.cli._round12(other) != entry
        assert entries["short"]["skipped"] and moved > 0


class TestMalformedSpec:
    """`simulate` on a malformed Markov spec exits 2 with a worded error."""

    @pytest.mark.parametrize("doc, message", [
        ({"order": 1, "alphabet_size": 2}, "missing field 'transition'"),
        ({"order": 1.7, "alphabet_size": 2,
          "transition": {"0": [0.5, 0.5], "1": [0.5, 0.5]}},
         "order must be a whole number, got 1.7"),
        ({"order": 1, "alphabet_size": 2,
          "transition": {"x": [0.5, 0.5], "1": [0.5, 0.5]}},
         "history key 'x' must be comma-separated symbol ids"),
        ([{"order": 1}], "expected a JSON object, got list"),
        ({"order": 1, "alphabet_size": 2, "transition":
          {"0": [0.5, 0.5], "1": [0.5, 0.5], "01": [0.1, 0.9]}},
         "history keys '1' and '01' both name history (1,)"),
    ], ids=["no_transition", "fractional_order", "history_key", "array",
            "duplicate_history"])
    def test_exit_2(self, tmp_path, capsys, doc, message):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        out = tmp_path / "sims.json"
        assert main(["simulate", str(spec), "--length", "50",
                     "--out", str(out)]) == 2
        assert f"error: {spec}: Markov spec: {message}" in capsys.readouterr().err
        assert not out.exists()


    def test_non_numeric_probability_names_history(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"order": 1, "alphabet_size": 2, "transition":
                                    {"0": ["a", 1], "1": [0.5, 0.5]}}))
        out = tmp_path / "sims.json"
        assert main(["simulate", str(spec), "--length", "50",
                     "--out", str(out)]) == 2
        assert (f"error: {spec}: history (0,): probabilities must be numbers, "
                f"got ['a', 1]") in capsys.readouterr().err
        assert not out.exists()


class TestMissingFields:
    """A missing JSON key names the file, the trial and the field."""

    @staticmethod
    def scanpaths(tmp_path):
        spec = tmp_path / "spec.json"
        write_spec(spec)
        sims = tmp_path / "sims.json"
        assert main(["simulate", str(spec), "--length", "60", "--trials", "2",
                     "--participant", "p0", "--out", str(sims)]) == 0
        return sims

    @pytest.mark.parametrize("field, owner", [
        ("condition", "participant 'p0' trial 't001'"),
        ("symbols", "participant 'p0' trial 't001'"),
        ("alphabet_size", "participant 'p0' trial 't001'"),
        ("trial_id", "participant 'p0'"),
        ("participant_id", "trial 't001'"),
    ])
    def test_scanpath_entry(self, tmp_path, capsys, field, owner):
        sims = self.scanpaths(tmp_path)
        doc = json.loads(sims.read_text())
        del doc["trials"][1][field]
        sims.write_text(json.dumps(doc))
        assert main(["ais", str(sims), "--nperm", "20",
                     "--out", str(tmp_path / "r.json")]) == 2
        assert (f"error: {sims}: {owner}: missing field {field!r}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("text, message", [
        ('{"schema_version": 1}', "scanpath file: missing field 'trials'"),
        ('{"trials": 3}', "trials must be a list, got int"),
        ("[1]", "trial entry: expected a JSON object, got int"),
    ])
    def test_malformed_scanpath_file(self, tmp_path, capsys, text, message):
        sims = tmp_path / "sims.json"
        sims.write_text(text)
        assert main(["ais", str(sims), "--out", str(tmp_path / "r.json")]) == 2
        assert f"error: {sims}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["results"][1].pop("sample_count"),
         "participant 'p0' trial 't001': missing field 'sample_count'"),
        (lambda doc: doc["results"][0]["entropy_next"].pop("corrected_value"),
         "participant 'p0' trial 't000': entropy_next: missing field "
         "'corrected_value'"),
        (lambda doc: doc["config"].pop("alpha"), "config: missing field 'alpha'"),
        (lambda doc: doc["results"].append("oops"),
         "trial entry: expected a JSON object, got str"),
        (lambda doc: doc.update(results=3), "results must be a list, got int"),
    ], ids=["sample_count", "estimate", "config", "entry", "results"])
    def test_results_entry(self, tmp_path, capsys, edit, message):
        sims = self.scanpaths(tmp_path)
        results = tmp_path / "results.json"
        assert main(["ais", str(sims), "--nperm", "20", "--out", str(results)]) == 0
        doc = json.loads(results.read_text())
        edit(doc)
        results.write_text(json.dumps(doc))
        assert main(["compare", str(results), "--nperm-comparison", "20",
                     "--out", str(tmp_path / "cmp")]) == 2
        assert f"error: {results}: {message}" in capsys.readouterr().err


class TestMalformedInputs:
    """JSON that does not parse, and symbols outside the alphabet, name the
    file (and the trial) in the error."""

    @staticmethod
    def results(tmp_path):
        results = tmp_path / "results.json"
        assert main(["ais", str(TestMissingFields.scanpaths(tmp_path)), "--nperm", "20",
                     "--out", str(results)]) == 0
        return results

    @pytest.mark.parametrize("command", ["ais", "compare", "simulate", "scanpath"])
    def test_truncated_json_exit_2(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.json"
        bad.write_text('{"trials": [')
        gaze = tmp_path / "gaze.csv"
        write_planted_gaze(gaze, [(400, 500)])
        argv = {"ais": ["ais", str(bad)],
                # The broken file comes second, after one that parses.
                "compare": ["compare", str(self.results(tmp_path)), str(bad)],
                "simulate": ["simulate", str(bad), "--length", "10"],
                "scanpath": ["scanpath", str(gaze), "--aois", str(bad)]}[command]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert (f"error: {bad}: Expecting value: line 1 column 13 (char 12)"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("symbols, alphabet_size, message", [
        ([0, 1, 5], 4, "symbol ids must lie in [0, 4), found range [0, 5]"),
        ([-1, 0, 1], 4, "symbol ids must lie in [0, 4), found range [-1, 1]"),
        ([0, 0], 0, "alphabet_size must be >= 1"),
    ], ids=["above", "negative", "no-alphabet"])
    @pytest.mark.parametrize("command", ["ais", "compare"])
    def test_symbols_outside_the_alphabet_exit_2(self, tmp_path, capsys, command,
                                                 symbols, alphabet_size, message):
        path = (TestMissingFields.scanpaths(tmp_path) if command == "ais"
                else self.results(tmp_path))
        doc = json.loads(path.read_text())
        entry = doc["trials" if command == "ais" else "results"][1]
        entry.update(symbols=symbols, alphabet_size=alphabet_size)
        path.write_text(json.dumps(doc))
        assert main([command, str(path), "--out", str(tmp_path / "out")]) == 2
        assert (f"error: {path}: participant 'p0' trial 't001': {message}"
                in capsys.readouterr().err)


class TestCompareCommand:
    def _make_results(self, tmp_path, n_trials=4, length=150):
        spec_a = tmp_path / "spec_a.json"
        spec_b = tmp_path / "spec_b.json"
        write_spec(spec_a, p_stay=0.9)
        write_spec(spec_b, p_stay=0.3)
        sims_a = tmp_path / "sims_a.json"
        sims_b = tmp_path / "sims_b.json"
        main(["simulate", str(spec_a), "--length", str(length), "--trials",
              str(n_trials), "--seed", "5", "--condition", "TC",
              "--participant", "p0", "--out", str(sims_a)])
        main(["simulate", str(spec_b), "--length", str(length), "--trials",
              str(n_trials), "--seed", "6", "--condition", "TUC",
              "--participant", "p0", "--out", str(sims_b)])
        merged = {"schema_version": 1, "trials":
                  json.loads(sims_a.read_text())["trials"]
                  + json.loads(sims_b.read_text())["trials"]}
        scan = tmp_path / "scan.json"
        scan.write_text(json.dumps(merged))
        results = tmp_path / "results.json"
        main(["ais", str(scan), "--seed", "7", "--nperm", "100",
              "--out", str(results)])
        return results

    def test_end_to_end(self, tmp_path):
        results = self._make_results(tmp_path)
        out = tmp_path / "cmp"
        assert main(["compare", str(results), "--seed", "7",
                     "--nperm-comparison", "400", "--out", str(out)]) == 0
        doc = json.loads((out / "comparison.json").read_text())
        participant = doc["participants"][0]
        assert participant["conditions"] == ["TC", "TUC"]
        assert participant["contrasts"]["ais"]["direction"] == "TC>TUC"
        summary = (out / "condition_summary.csv").read_text().splitlines()
        assert len(summary) == 3  # header + one row per condition
        hist = (out / "lag_histogram.csv").read_text().splitlines()
        assert hist[0] == "lag,count"

    def test_library_matches_cli(self, tmp_path):
        # `compare_conditions` at cfg.seed is `ais` + `compare` at --seed.
        results = self._make_results(tmp_path)
        out = tmp_path / "cmp"
        assert main(["compare", str(results), "--seed", "7",
                     "--nperm-comparison", "400", "--out", str(out)]) == 0
        doc = json.loads((out / "comparison.json").read_text())
        scans = json.loads((tmp_path / "scan.json").read_text())["trials"]
        records = sorted((ScanpathRecord.from_dict(t) for t in scans),
                         key=lambda r: (r.condition, r.trial_id))
        cfg = RunConfig(k_max=5, alpha=0.05, n_perm_selection=100, seed=7)
        comp = compare_conditions(
            records, replace(cfg, n_perm_comparison=400, tail="two_sided"))
        assert doc["participants"] == [gazeais.cli._round12(comp.to_dict())]

    def test_library_matches_cli_in_any_order(self, tmp_path):
        # `contrast_conditions` fixes the trial order itself, so shuffled
        # records give the CLI's entry too.
        results = self._make_results(tmp_path)
        out = tmp_path / "cmp"
        assert main(["compare", str(results), "--seed", "7",
                     "--nperm-comparison", "400", "--out", str(out)]) == 0
        entry = json.loads((out / "comparison.json").read_text())["participants"][0]
        scans = json.loads((tmp_path / "scan.json").read_text())["trials"]
        records = [ScanpathRecord.from_dict(t) for t in scans]
        shuffled = [records[i] for i in
                    np.random.default_rng(3).permutation(len(records))]
        assert [r.trial_id for r in shuffled] != [r.trial_id for r in records]
        cfg = RunConfig(k_max=5, alpha=0.05, n_perm_selection=100, seed=7)
        comp = compare_conditions(shuffled, replace(cfg, n_perm_comparison=400))
        assert comp.to_dict() == compare_conditions(
            records, replace(cfg, n_perm_comparison=400)).to_dict()
        assert gazeais.cli._round12(comp.to_dict()) == entry
        assert [(t.record.condition, t.record.trial_id)
                for t in comp.trial_results] == \
            sorted((r.condition, r.trial_id) for r in records)

    @pytest.mark.parametrize("producer", ["simulate", "scanpath"])
    def test_input_not_from_ais(self, tmp_path, capsys, producer):
        path = tmp_path / f"{producer}.json"
        if producer == "simulate":
            spec = tmp_path / "spec.json"
            write_spec(spec)
            assert main(["simulate", str(spec), "--length", "50",
                         "--out", str(path)]) == 0
        else:
            gaze = tmp_path / "gaze.csv"
            write_planted_gaze(gaze, [(400, 500), (1700, 300)])
            aois = tmp_path / "aois.json"
            aois.write_text(json.dumps(AOIS_JSON))
            assert main(["scanpath", str(gaze), "--aois", str(aois),
                         "--out", str(path)]) == 0
        assert main(["compare", str(path), "--out", str(tmp_path / "cmp")]) == 2
        err = capsys.readouterr().err
        assert f"{path}: not a results file written by `gazeais ais`" in err

    FLAGS = ["--kmax", "5", "--nperm", "200", "--seed", "7"]

    def _persistence_results(self, tmp_path):
        # 2 x 20 weak-memory trials, whose selections depend on the seeds
        # they are selected with.
        trials = []
        for cond in ("A", "B"):
            for i in range(20):
                seq = generate(persistence_spec(0.56), 300,
                               seed=derive_seed(11, cond, i))
                trials.append({"trial_id": f"t{i:03d}", "participant_id": "p0",
                               "condition": cond,
                               "symbols": seq.symbols.tolist(),
                               "alphabet_size": 2})
        scan = tmp_path / "scan.json"
        scan.write_text(json.dumps({"schema_version": 1, "trials": trials}))
        results = tmp_path / "results.json"
        assert main(["ais", str(scan), *self.FLAGS, "--out", str(results)]) == 0
        return results

    def test_contrasts_recorded_selections(self, tmp_path):
        results = self._persistence_results(tmp_path)
        out = tmp_path / "cmp"
        assert main(["compare", str(results), *self.FLAGS,
                     "--nperm-comparison", "1000", "--out", str(out)]) == 0
        recorded = json.loads(results.read_text())["results"]
        doc = json.loads((out / "comparison.json").read_text())
        for participant in doc["participants"]:
            mine = [r for r in recorded
                    if r["participant_id"] == participant["participant_id"]]
            assert participant["union_lags"] == sorted(
                {lag for r in mine for lag in r["selected_lags"] or ()})
            expected = {
                (r["condition"], r["trial_id"]):
                    {k: v for k, v in r.items()
                     if k not in ("symbols", "alphabet_size")}
                for r in mine}
            assert {(t["condition"], t["trial_id"]): t
                    for t in participant["trials"]} == expected

    def test_compare_never_selects(self, tmp_path, monkeypatch):
        results = self._make_results(tmp_path, n_trials=3, length=120)

        def refuse(*args, **kwargs):
            raise AssertionError("compare must not select past states")

        for module, name in ((gazeais.cli, "analyze_trial"),
                             (gazeais.cli, "analyze_trials"),
                             (gazeais.experiment, "analyze_trial"),
                             (gazeais.experiment, "analyze_trials"),
                             (gazeais.experiment, "_select_past_states")):
            monkeypatch.setattr(module, name, refuse)
        assert main(["compare", str(results), "--seed", "7",
                     "--nperm-comparison", "200",
                     "--out", str(tmp_path / "cmp")]) == 0

    def test_flags_must_match_recorded_config(self, tmp_path, capsys):
        results = self._make_results(tmp_path, n_trials=3, length=120)
        out = str(tmp_path / "cmp")
        common = ["compare", str(results), "--seed", "7",
                  "--nperm-comparison", "200", "--out", out]
        for flag, value in (("--kmax", "4"), ("--alpha", "0.01"),
                            ("--nperm", "200")):
            assert main(common + [flag, value]) == 2
            assert "recorded by `ais`" in capsys.readouterr().err
        assert main(common + ["--kmax", "5", "--alpha", "0.05",
                              "--nperm", "100"]) == 0

    def test_config_file_must_match_recorded_config(self, tmp_path, capsys):
        # The file's selection keys are checked as the flags are; equal
        # values give the output of a run without the file.
        results = self._make_results(tmp_path, n_trials=3, length=120)
        cfg = tmp_path / "run.cfg"
        common = ["compare", str(results), "--seed", "7",
                  "--nperm-comparison", "200", "--config", str(cfg)]
        for line in ("k_max = 4", "alpha = 0.01", "n_perm_selection = 200"):
            cfg.write_text(line + "\n")
            assert main(common + ["--out", str(tmp_path / "bad")]) == 2
            key = line.split()[0]
            err = capsys.readouterr().err
            assert f"{line} from {cfg} conflicts with {key} = " in err
            assert "recorded by `ais`" in err
        cfg.write_text("k_max = 5\nalpha = 0.05\nn_perm_selection = 100\n")
        assert main(common + ["--out", str(tmp_path / "same")]) == 0
        assert main(common[:-2] + ["--out", str(tmp_path / "plain")]) == 0
        for name in ("comparison.json", "condition_summary.csv"):
            assert ((tmp_path / "same" / name).read_bytes()
                    == (tmp_path / "plain" / name).read_bytes())

    @pytest.mark.parametrize("line, message", [
        ("tail = both", "tail must be one of ('greater', 'less', 'two_sided'), "
                        "got 'both'"),
        ("n_perm_comparison = 0", "n_perm_comparison must be >= 1, got 0"),
    ])
    def test_config_checked_when_read(self, tmp_path, capsys, line, message):
        # The file is checked before any result is loaded: the input here
        # does not exist, and the error names the config file's line.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 7\n" + line + "\n")
        assert main(["compare", str(tmp_path / "missing.json"), "--config",
                     str(cfg), "--out", str(tmp_path / "cmp")]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}: config line 2: {message}\n")

    @pytest.mark.parametrize("edit, message", [
        ({"k_max": 0}, "{path}: config: k_max must be >= 1, got 0"),
        ({"k_max": "5"}, "{path}: config: k_max must be a whole number, "
                         "got '5'"),
        ({"alpha": 0.01, "n_perm_selection": 20},
         "{path} (recorded by ais): n_perm_selection = 20 cannot reach "
         "alpha = 0.01; need at least 99"),
    ], ids=["k_max-0", "k_max-text", "alpha-nperm"])
    def test_recorded_config_checked_when_read(self, tmp_path, capsys, edit,
                                               message):
        results = self._make_results(tmp_path, n_trials=3, length=120)
        doc = json.loads(results.read_text())
        doc["config"].update(edit)
        results.write_text(json.dumps(doc))
        assert main(["compare", str(results), "--seed", "7",
                     "--out", str(tmp_path / "cmp")]) == 2
        assert capsys.readouterr().err == (
            "error: " + message.format(path=results) + "\n")

    @pytest.mark.parametrize("lags", [[1, 7], [1]], ids=["lag-7", "lag-1"])
    def test_entry_k_max_must_equal_recorded_config(self, tmp_path, capsys,
                                                    lags):
        results = self._make_results(tmp_path, n_trials=3, length=120)
        doc = json.loads(results.read_text())
        entry = next(e for e in doc["results"] if not e["skipped"])
        entry.update(k_max=7, selected_lags=lags)
        results.write_text(json.dumps(doc))
        out = tmp_path / "cmp"
        assert main(["compare", str(results), "--seed", "7",
                     "--out", str(out)]) == 2
        key = (entry["participant_id"], entry["condition"], entry["trial_id"])
        assert capsys.readouterr().err == (
            f"error: {results}: trial (participant, condition, trial) = "
            f"{key}: k_max = 7 differs from k_max = 5 recorded in {results}\n")
        assert not (out / "comparison.json").exists()

    def test_contrast_error_names_the_participant(self, tmp_path, capsys):
        # p0 has both conditions; p1 has only A.
        trials = []
        for pid, cond, i in (("p0", "A", 0), ("p0", "A", 1), ("p0", "B", 2),
                             ("p0", "B", 3), ("p1", "A", 4), ("p1", "A", 5)):
            seq = generate(persistence_spec(0.8), 60, seed=derive_seed(12, i))
            trials.append({"trial_id": f"t{i}", "participant_id": pid,
                           "condition": cond, "symbols": seq.symbols.tolist(),
                           "alphabet_size": 2})
        scan, results = tmp_path / "scan.json", tmp_path / "results.json"
        scan.write_text(json.dumps({"schema_version": 1, "trials": trials}))
        assert main(["ais", str(scan), "--seed", "7", "--nperm", "20",
                     "--out", str(results)]) == 0
        assert main(["compare", str(results), "--seed", "7",
                     "--nperm-comparison", "50",
                     "--out", str(tmp_path / "cmp")]) == 2
        assert capsys.readouterr().err == (
            "error: participant 'p1': expected exactly 2 conditions, "
            "found ['A']\n")

    def test_conflicting_input_configs(self, tmp_path, capsys):
        results = self._make_results(tmp_path, n_trials=3, length=120)
        other = tmp_path / "results_seed8.json"
        assert main(["ais", str(tmp_path / "scan.json"), "--seed", "8",
                     "--nperm", "100", "--out", str(other)]) == 0
        assert main(["compare", str(results), str(other), "--seed", "7",
                     "--out", str(tmp_path / "cmp")]) == 2
        assert "differs" in capsys.readouterr().err

    def test_duplicate_trials_rejected(self, tmp_path, capsys):
        results = self._make_results(tmp_path, n_trials=3, length=120)
        out = tmp_path / "cmp"
        assert main(["compare", str(results), str(results), "--seed", "7",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "duplicate trial (participant, condition, trial) = ('p0', 'TC', " in err
        assert not (out / "comparison.json").exists()

    def test_rerun_byte_identical(self, tmp_path):
        results = self._make_results(tmp_path, n_trials=3, length=120)
        out1, out2 = tmp_path / "c1", tmp_path / "c2"
        main(["compare", str(results), "--seed", "7",
              "--nperm-comparison", "200", "--out", str(out1)])
        main(["compare", str(results), "--seed", "7",
              "--nperm-comparison", "200", "--out", str(out2)])
        assert (out1 / "comparison.json").read_bytes() == \
            (out2 / "comparison.json").read_bytes()


class TestJsonWriter:
    """`_write_json` writes the bytes of `json.dump(..., indent=2,
    sort_keys=True)` and a newline."""

    @staticmethod
    def json_dump_bytes(doc):
        text = io.StringIO()
        json.dump(gazeais.cli._round12(doc), text, indent=2, sort_keys=True)
        return (text.getvalue() + "\n").encode("utf-8")

    def test_golden_documents(self, tmp_path, monkeypatch):
        from test_golden import golden_outputs
        written, write = [], gazeais.cli._write_json

        def record(path, doc):
            write(path, doc)
            written.append((path, doc))
        monkeypatch.setattr(gazeais.cli, "_write_json", record)
        golden_outputs(tmp_path)
        # results.json and comparison.json of three designs, scanpaths.json
        assert len(written) == 7
        for path, doc in written:
            assert Path(path).read_bytes() == self.json_dump_bytes(doc), path

    def test_edge_document(self, tmp_path):
        doc = {
            "empty": [[], {}, (), ""],
            "nested": {"b": [1, [2, [3, {}]], (4, 5), {"z": None, "a": True}],
                       "a": [[], {"deep": {"er": [{"est": []}]}}]},
            "text": ["ascii", "\u00e9 \u00fc", "\u2603", "\U0001f600",
                     "quote \" backslash \\ tab \t newline \n", "\x00\x1f\x7f"],
            "non-ascii key \u00e9": "value",
            "": "empty key",
            "floats": [float("nan"), float("inf"), -float("inf"), 0.0, -0.0,
                       0.1, 1e-310, 1e300, 1 / 3, -2.5, 123456789.123456789],
            "ints": [0, -1, 2 ** 70, 7],
            "mixed": [1, 2.0, True, False, None, "s", (1, "two")],
            "bools": [True, False],
            "tuple": ("a", 1.5, None),
            "numpy": [np.int64(3), np.float64(0.25), np.float32(1.5)],
            "scalars": {"t": True, "f": False, "n": None, "i": -3, "x": 2.0},
        }
        path = tmp_path / "edge.json"
        gazeais.cli._write_json(path, doc)
        assert path.read_bytes() == self.json_dump_bytes(doc)

    @pytest.mark.parametrize("doc", [
        {1: "an int key"}, {"a": {1, 2}}, {"a": np.bool_(True)},
        {"a": b"bytes"}, [object()]],
        ids=["int-key", "set", "numpy-bool", "bytes", "object"])
    def test_other_types_raise(self, tmp_path, doc):
        with pytest.raises(TypeError):
            gazeais.cli._write_json(tmp_path / "out.json", doc)


class TestConfigFile:
    """Defaults, then the `--config` file, then flags."""

    @staticmethod
    def seed_config(tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 99\n")
        return ["--config", str(cfg)]

    def test_seed_key_equals_flag(self, tmp_path):
        spec = tmp_path / "spec.json"
        write_spec(spec, p_stay=0.9)
        outputs = {}
        for name, seed_args in (("flag", ["--seed", "99"]),
                                ("config", self.seed_config(tmp_path))):
            sims = tmp_path / f"sims_{name}.json"
            results = tmp_path / f"results_{name}.json"
            cmp = tmp_path / f"cmp_{name}"
            assert main(["simulate", str(spec), "--length", "120", "--trials",
                         "4", *seed_args, "--out", str(sims)]) == 0
            doc = json.loads(sims.read_text())
            for i, trial in enumerate(doc["trials"]):
                trial["condition"] = "AB"[i % 2]
            sims.write_text(json.dumps(doc))
            assert main(["ais", str(sims), "--nperm", "50", *seed_args,
                         "--out", str(results)]) == 0
            assert main(["compare", str(results), "--nperm-comparison", "100",
                         *seed_args, "--out", str(cmp)]) == 0
            outputs[name] = [sims.read_bytes(), results.read_bytes(),
                             (cmp / "comparison.json").read_bytes()]
        assert outputs["config"] == outputs["flag"]
        assert json.loads(outputs["config"][1])["config"]["seed"] == 99
        assert json.loads(outputs["config"][2])["config"]["seed"] == 99

    def test_flag_overrides_config(self, tmp_path):
        spec = tmp_path / "spec.json"
        write_spec(spec)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["simulate", str(spec), "--length", "50",
                     *self.seed_config(tmp_path), "--seed", "5",
                     "--out", str(a)]) == 0
        assert main(["simulate", str(spec), "--length", "50", "--seed", "5",
                     "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("line, message", [
        ("k_max = 0", "k_max must be >= 1, got 0"),
        ("alpha = 2", "alpha must lie in (0, 1), got 2.0"),
        ("n_perm_selection = 0", "n_perm_selection must be >= 1, got 0"),
    ])
    def test_range_checked_when_read(self, tmp_path, capsys, line, message):
        # The input does not exist, so the file's error must come first.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 7\n" + line + "\n")
        assert main(["ais", str(tmp_path / "missing.json"), "--config",
                     str(cfg), "--out", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}: config line 2: {message}\n")

    @pytest.mark.parametrize("command, flag, value, message", [
        ("compare", "--nperm-comparison", "0",
         "n_perm_comparison must be >= 1, got 0"),
        ("compare", "--kmax", "0", "k_max must be >= 1, got 0"),
        ("ais", "--kmax", "0", "k_max must be >= 1, got 0"),
        ("ais", "--alpha", "2", "alpha must lie in (0, 1), got 2.0"),
        ("ais", "--nperm", "0", "n_perm_selection must be >= 1, got 0"),
    ])
    def test_flag_out_of_range_named(self, tmp_path, capsys, command, flag,
                                     value, message):
        # Checked before any input is opened: the input does not exist.
        assert main([command, str(tmp_path / "missing.json"), flag, value,
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {flag}: {message}\n"

    def _sims(self, tmp_path):
        spec = tmp_path / "spec.json"
        write_spec(spec)
        sims = tmp_path / "sims.json"
        assert main(["simulate", str(spec), "--length", "60", "--trials", "2",
                     "--out", str(sims)]) == 0
        return sims

    def test_alpha_and_nperm_read_together(self, tmp_path):
        # Either line alone fails against the other's default.
        sims = self._sims(tmp_path)
        cfg = tmp_path / "run.cfg"
        outputs = []
        for text in ("alpha = 0.1\nn_perm_selection = 10\n",
                     "n_perm_selection = 10\nalpha = 0.1\n"):
            cfg.write_text(text)
            results = tmp_path / f"results{len(outputs)}.json"
            assert main(["ais", str(sims), "--config", str(cfg),
                         "--out", str(results)]) == 0
            outputs.append(results.read_bytes())
        assert outputs[0] == outputs[1]
        config = json.loads(outputs[0])["config"]
        assert (config["alpha"], config["n_perm_selection"]) == (0.1, 10)

    def test_nperm_that_cannot_reach_alpha_names_its_source(self, tmp_path,
                                                             capsys):
        sims = self._sims(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_perm_selection = 10\n")
        rule = "n_perm_selection = 10 cannot reach alpha = 0.05; need at least 19"
        for given, source in ((["--config", str(cfg)], str(cfg)),
                              (["--nperm", "10"], "--nperm"),
                              (["--config", str(cfg), "--alpha", "0.05"],
                               f"--alpha, {cfg}")):
            assert main(["ais", str(sims), *given,
                         "--out", str(tmp_path / "r.json")]) == 2
            assert capsys.readouterr().err == f"error: {source}: {rule}\n"
        # A flag may supply the alpha that the file's n_perm_selection needs.
        assert main(["ais", str(sims), "--config", str(cfg), "--alpha", "0.1",
                     "--out", str(tmp_path / "r.json")]) == 0

    def test_fixations_takes_no_config(self, tmp_path):
        gaze = tmp_path / "gaze.csv"
        write_planted_gaze(gaze, [(400, 500)])
        with pytest.raises(SystemExit):
            main(["fixations", str(gaze), *self.seed_config(tmp_path),
                  "--out", str(tmp_path / "fix.csv")])


class TestValidateCommand:
    def test_quick_suite_passes(self, capsys):
        assert main(["validate", "--quick", "--seed", "12345"]) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out
        assert "FAIL" not in out
