"""Tests of the benchmark itself: small runs of each workload, and checks
fed deliberately wrong outputs, which they must reject.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import csv
import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path.insert(0, str(BENCH))

import checks      # noqa: E402
import run         # noqa: E402
import tracing     # noqa: E402
import workloads   # noqa: E402

SMALL = {
    # Six trials per condition: the smallest group for which a 5000-surrogate
    # contrast can reach p <= 0.01.
    "study": dataclasses.replace(workloads.STUDY, participants=1, trials=6),
    "aoi16": dataclasses.replace(workloads.AOI16, trials=3, k_max=3),
    "gaze": dataclasses.replace(workloads.GAZE, participants=2, trials=2,
                                fixations=12),
}
SEED = 5
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One small run per workload, made when a test first asks for it."""
    done = {}

    def get(workload):
        if workload not in done:
            workdir = tmp_path_factory.mktemp(workload)
            inputs, times = run.set_up(workload, SMALL[workload], SEED,
                                       workdir, repeats=2)
            result = run.run_stages(inputs, workdir, seconds=0, trace=False)
            done[workload] = (workload, inputs, workdir, times, result)
        return done[workload]
    return get


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_small_run_passes_every_check(runs, workload):
    workload, inputs, workdir, generate_s, result = runs(workload)
    report = run.check_outputs(inputs, workdir)
    assert report.messages == []
    attempted, failed = run.count_operations(inputs, result["rounds"], report)
    n_trials = len(inputs.truth["trials"])
    assert (attempted, failed) == (len(result["rounds"]) * 2 * n_trials, 0)
    assert all(len(r["import_s"]) == run.IMPORT_PROBES for r in result["rounds"])
    metrics = run.end_to_end(inputs, result["rounds"], generate_s,
                             result["peak_rss_kib"])
    assert all(value > 0 for value, _ in metrics.values())
    assert ({name: unit for name, (_, unit) in metrics.items()}
            == {m["name"]: m["unit"] for m in SPEC["end_to_end"]})


def test_inputs_depend_on_the_seed_only():
    a = workloads.make_inputs("study", SMALL["study"], 3)
    b = workloads.make_inputs("study", SMALL["study"], 3)
    c = workloads.make_inputs("study", SMALL["study"], 4)
    assert a.files == b.files and a.files != c.files


# ---------------------------------------------------------------------------
# the checks reject wrong outputs
# ---------------------------------------------------------------------------

def mutated(small_run, tmp_path, name, mutate):
    """Copy of the run's outputs with file `name` changed by `mutate`."""
    _, inputs, workdir, _, _ = small_run
    out = Path(tempfile.mkdtemp(dir=tmp_path))
    shutil.copytree(workdir, out, dirs_exist_ok=True)
    path = out / name
    if name.endswith(".json"):
        doc = json.loads(path.read_text())
        mutate(doc)
        path.write_text(json.dumps(doc))
    else:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        mutate(rows)
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    return run.check_outputs(inputs, out)


def first_trial(doc, condition="high"):
    return next(t for t in doc["results"] if t["condition"] == condition)


def shift(entry, field, by=1e-6):
    entry[field] += by


def swap_symbols(doc):
    symbols = first_trial(doc)["symbols"]
    i = next(i for i in range(len(symbols) - 1) if symbols[i] != symbols[i + 1])
    symbols[i], symbols[i + 1] = symbols[i + 1], symbols[i]


# label: (mutation of results.json, fragment of the expected message)
CHAIN_MUTATIONS = {
    "shifted corrected AIS": (
        lambda d: shift(first_trial(d)["ais"], "corrected_value"), "corrected AIS"),
    "shifted plug-in AIS": (
        lambda d: shift(first_trial(d)["ais"], "plugin_value"), "plug-in AIS"),
    "shifted H(X_t)": (
        lambda d: shift(first_trial(d)["entropy_next"], "corrected_value"), "corrected H"),
    "p off the grid": (
        lambda d: first_trial(d).update(ais_p_value=0.5), "grid"),
    "normalized AIS above 1": (
        lambda d: first_trial(d).update(normalized_ais=1.2), "normalized AIS"),
    "planted lag missing": (
        lambda d: first_trial(d).update(selected_lags=[2, 3]), "planted lag"),
    "swapped symbol": (swap_symbols, "echoed symbols"),
}


@pytest.mark.parametrize("workload", ["study", "aoi16"])
@pytest.mark.parametrize("label", sorted(CHAIN_MUTATIONS))
def test_ais_check_rejects(runs, tmp_path, workload, label):
    mutate, fragment = CHAIN_MUTATIONS[label]
    report = mutated(runs(workload), tmp_path, "results.json", mutate)
    assert any(stage == "ais" for stage, _, _ in report.failed), label
    assert any(fragment in m for m in report.messages), report.messages


def participant(doc):
    return doc["participants"][0]


COMPARE_MUTATIONS = {
    "shifted mean union AIS": lambda d: participant(d)["means"]["ais"].update(
        high=participant(d)["means"]["ais"]["high"] + 1e-6),
    "shifted mean entropy": lambda d: participant(d)["means"]["entropy"].update(
        low=participant(d)["means"]["entropy"]["low"] - 1e-6),
    "union differs from selections": lambda d: participant(d).update(
        union_lags=participant(d)["union_lags"][:-1] or [2]),
    "contrast p off the grid": lambda d: participant(d)["contrasts"]["entropy"].update(
        p_value=0.5),
    "trial AIS shifted": lambda d: shift(participant(d)["trials"][0]["ais"],
                                         "corrected_value"),
    "equalized length": lambda d: participant(d).update(
        equalized_length=participant(d)["equalized_length"] - 1),
}


@pytest.mark.parametrize("workload", ["study", "aoi16"])
@pytest.mark.parametrize("label", sorted(COMPARE_MUTATIONS))
def test_compare_check_rejects(runs, tmp_path, workload, label):
    report = mutated(runs(workload), tmp_path, "comparison/comparison.json",
                     COMPARE_MUTATIONS[label])
    assert any(stage == "compare" for stage, _, _ in report.failed), label


def test_study_contrast_check_rejects_wrong_direction(runs, tmp_path):
    small_run = runs("study")

    def swap(doc):
        ais = participant(doc)["contrasts"]["ais"]
        ais["observed_diff"] = -ais["observed_diff"]

    assert mutated(small_run, tmp_path, "comparison/comparison.json", swap).failed

    def weak(doc):
        participant(doc)["contrasts"]["ais"]["p_value"] = 101 / 5001

    assert mutated(small_run, tmp_path, "comparison/comparison.json", weak).failed


def test_aoi16_union_must_cover_every_planted_lag(runs, tmp_path):
    small_run = runs("aoi16")

    def drop_lag(doc):
        part = participant(doc)
        for trial in part["trials"]:
            trial["selected_lags"] = [lag for lag in trial["selected_lags"] if lag != 3]
        part["union_lags"] = [1, 2]

    report = mutated(small_run, tmp_path, "comparison/comparison.json", drop_lag)
    assert any("is not 1..3" in m for m in report.messages)


def test_closed_form_check_rejects_a_shifted_mean():
    keys = [("p00", f"high{i:03d}") for i in range(44)]
    target = 1.0 - checks.binary_entropy(0.95)
    for mean, ok in ((target - 0.05, True), (target - 0.12, False),
                     (target + 0.12, False)):
        rep = checks.Report()
        checks._check_closed_form(rep, {"high": [(k, mean) for k in keys]},
                                  {"high": 0.95})
        assert (not rep.failed) == ok


GAZE_SCANPATH_MUTATIONS = {
    "swapped symbols": lambda d: d["trials"][0]["symbols"].reverse(),
    "dropped count": lambda d: d["trials"][0].update(
        dropped_fixations=d["trials"][0]["dropped_fixations"] + 1),
    "missing trial": lambda d: d["trials"].pop(),
}


@pytest.mark.parametrize("label", sorted(GAZE_SCANPATH_MUTATIONS))
def test_scanpath_check_rejects(runs, tmp_path, label):
    report = mutated(runs("gaze"), tmp_path, "scanpaths.json",
                     GAZE_SCANPATH_MUTATIONS[label])
    assert any(stage == "scanpath" for stage, _, _ in report.failed), label


def _move_centroid(rows):
    rows[1][3] = str(float(rows[1][3]) + 5.0)


GAZE_FIXATION_MUTATIONS = {
    "missing row": lambda rows: rows.pop(),
    "centroid moved past the noise": _move_centroid,
    "start shifted": lambda rows: rows[2].__setitem__(1, str(float(rows[2][1]) + 0.01)),
}


@pytest.mark.parametrize("label", sorted(GAZE_FIXATION_MUTATIONS))
def test_fixation_check_rejects(runs, tmp_path, label):
    report = mutated(runs("gaze"), tmp_path, "fixations.csv",
                     GAZE_FIXATION_MUTATIONS[label])
    assert any(stage == "fixations" for stage, _, _ in report.failed), label


# ---------------------------------------------------------------------------
# operation counts, tracing and the run itself
# ---------------------------------------------------------------------------

def test_failed_stage_and_changed_output_fail_whole_rounds():
    inputs = workloads.make_inputs("study", SMALL["study"], 1)
    n = len(inputs.truth["trials"])
    ok = {"codes": {"ais": 0, "compare": 0}, "digest": "a"}
    crashed = {"codes": {"ais": 0, "compare": 2}, "digest": "a"}
    changed = {"codes": {"ais": 0, "compare": 0}, "digest": "b"}
    rep = checks.Report()
    assert run.count_operations(inputs, [ok, ok], rep) == (4 * n, 0)
    assert run.count_operations(inputs, [ok, crashed, ok], rep) == (6 * n, n)
    assert run.count_operations(inputs, [changed, ok], rep) == (4 * n, 2 * n)


def test_tracer_wraps_every_binding_and_restores_them():
    sys.path.insert(0, str(BENCH.parent / "src"))
    import gazeais.cli
    import gazeais.embedding
    import gazeais.experiment
    import gazeais.rng
    import gazeais.stats

    originals = (gazeais.rng.derive_rng, gazeais.experiment.analyze_trial)
    tracer = tracing.Tracer()
    wrapped = tracer.install()
    try:
        assert "gazeais.rng.derive_rng" in wrapped
        assert "gazeais.rng.indexed_map" not in wrapped
        for module in (gazeais.rng, gazeais.embedding, gazeais.stats):
            assert module.derive_rng.__wrapped__ is originals[0]
        for module in (gazeais.experiment, gazeais.cli):
            assert module.analyze_trial.__wrapped__ is originals[1]
    finally:
        tracer.uninstall()
    assert gazeais.embedding.derive_rng is originals[0]
    assert gazeais.cli.analyze_trial is originals[1]


def test_traced_run_reports_every_layer_metric(tmp_path):
    inputs, _ = run.set_up("study", SMALL["study"], SEED, tmp_path, repeats=1)
    result = run.run_stages(inputs, tmp_path, seconds=0, trace=True)
    assert [r["traced"] for r in result["rounds"]] == [False, True]
    metrics = run.per_layer(result["rounds"])
    assert ({name: unit for name, (_, unit) in metrics.items()}
            == tracing.metric_units()
            == {m["name"]: m["unit"] for m in SPEC["per_layer"]})
    value = {name: v for name, (v, _) in metrics.items()}
    n_trials = len(inputs.truth["trials"])
    # ais analyses every trial, and compare analyses every trial again.
    assert value["experiment.analyze_trial_calls"] == 2 * n_trials
    assert value["embedding.surrogates"] == 200 * value["embedding.max_statistic_test_calls"]
    assert value["stats.contrast_surrogates"] == 3 * 5000
    assert value["gaze.samples"] == 0 and value["infocore.table_cells"] > 0
    assert value["embedding.max_statistic_test_s"] > 0 and value["cli.self_s"] > 0


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
