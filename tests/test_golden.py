"""Golden outputs: the CLI's files on small seeded inputs, pinned by sha256.

The inputs are built here from numpy's seeded generator, so that every way
`infocore` draws surrogates and every way it counts them runs:

- "binary": two codes, so selection and the final test draw tallies per
  joint state.
- "aoi4": four AOIs, so blocks are counted as one matrix product, and a
  final test on one lag of a long trial draws contingency tables.
- "aoi16": sixteen AOIs with dependence at lags 1 to 5, so tables are
  counted densely, and one long trial reaches the sort-and-run count.
- "gaze": a gaze CSV through `scanpath` and `fixations`.

Each design runs `ais`, then `compare` on its results, through `cli.main`;
`compare` gets no flag that only repeats the config `ais` recorded. The
digests in `golden.json` hold for the Python and numpy versions pinned
next to them. After a deliberate output change, rerun
`python tests/repin_golden.py` and say in the change's notes why the
outputs moved.
"""

import hashlib
import json
import platform
from pathlib import Path

import numpy as np

from gazeais.cli import main

GOLDEN = Path(__file__).with_name("golden.json")

AOIS = [
    {"id": 0, "name": "top-left", "rect": [0, 0, 960, 540], "priority": 0},
    {"id": 1, "name": "top-right", "rect": [960, 0, 1920, 540], "priority": 0},
    {"id": 2, "name": "bottom-left", "rect": [0, 540, 960, 1080], "priority": 0},
    {"id": 3, "name": "bottom-right", "rect": [960, 540, 1920, 1080],
     "priority": 0},
    {"id": 4, "name": "target", "rect": [860, 440, 1060, 640], "priority": 1},
]

# (design, alphabet size, {condition: (copy lags, copy probability)},
#  trial lengths per condition, ais flags, compare flags). A symbol copies
# the one a random lag of "copy lags" back with the copy probability, and
# is uniform otherwise.
DESIGNS = [
    ("binary", 2, {"A": ((1,), 0.3), "B": ((2,), 0.2)}, (150, 150, 180),
     ["--kmax", "4", "--nperm", "60"],
     ["--nperm-comparison", "300", "--tail", "greater"]),
    ("aoi4", 4, {"A": ((1,), 0.3), "B": ((1, 3), 0.2)}, (200, 250, 600),
     ["--kmax", "3", "--nperm", "40", "--alpha", "0.1"],
     ["--nperm-comparison", "200"]),
    ("aoi16", 16, {"A": ((1, 2, 3, 4, 5), 0.6), "B": ((1,), 0.2)},
     (300, 300, 3000),
     ["--kmax", "5", "--nperm", "20"],
     ["--nperm-comparison", "200"]),
]


def _sequence(rng, m, lags, p_copy, length):
    symbols = rng.integers(0, m, size=length)
    for t in range(max(lags), length):
        if rng.random() < p_copy:
            symbols[t] = symbols[t - lags[rng.integers(len(lags))]]
    return symbols.tolist()


def _scanpaths(seed, m, conditions, lengths):
    rng = np.random.default_rng(seed)
    trials = []
    for participant in ("p0", "p1"):
        for condition, (lags, p_copy) in conditions.items():
            for i, length in enumerate(lengths):
                trials.append({
                    "trial_id": f"{condition}{i}", "participant_id": participant,
                    "condition": condition, "alphabet_size": m,
                    "symbols": _sequence(rng, m, lags, p_copy, length)})
    return {"schema_version": 1, "trials": trials}


def _gaze_csv(seed):
    """Dwells of 15 to 45 samples at 120 Hz on random AOI centres, with
    jitter, two-sample saccades and some low-confidence samples."""
    rng = np.random.default_rng(seed)
    centres = [(480, 270), (1440, 270), (480, 810), (1440, 810), (960, 540)]
    rows = ["trial_id,participant_id,condition,timestamp,x,y,confidence"]
    for participant in ("p0", "p1"):
        for condition in ("A", "B"):
            for trial in (f"{condition}0", f"{condition}1"):
                t = 0.0
                for _ in range(12):
                    x, y = centres[rng.integers(len(centres))]
                    dwell = rng.integers(15, 46)
                    for i in range(dwell + 2):
                        if i >= dwell:  # saccade
                            x, y = rng.uniform(0, 1920), rng.uniform(0, 1080)
                        conf = 0.5 if rng.random() < 0.05 else 1.0
                        rows.append(
                            f"{trial},{participant},{condition},{t:.6f},"
                            f"{x + rng.normal(0, 8):.3f},"
                            f"{y + rng.normal(0, 8):.3f},{conf}")
                        t += 1 / 120
    return "\n".join(rows) + "\n"


def golden_outputs(work: Path) -> dict:
    """sha256 of every output file of the golden runs, written under
    `work`, by its path relative to `work`."""
    for seed, (name, m, conditions, lengths, ais_flags, compare_flags) in \
            enumerate(DESIGNS, start=1):
        scan = work / name / "scan.json"
        scan.parent.mkdir(parents=True)
        scan.write_text(json.dumps(_scanpaths(seed, m, conditions, lengths)))
        results = work / name / "results.json"
        assert main(["ais", str(scan), "--seed", str(seed), *ais_flags,
                     "--out", str(results)]) == 0
        assert main(["compare", str(results), "--seed", str(seed),
                     *compare_flags, "--out", str(work / name / "comparison")]) == 0
    gaze = work / "gaze" / "gaze.csv"
    gaze.parent.mkdir()
    gaze.write_text(_gaze_csv(4))
    aois = work / "gaze" / "aois.json"
    aois.write_text(json.dumps(AOIS))
    assert main(["scanpath", str(gaze), "--aois", str(aois),
                 "--out", str(work / "gaze" / "scanpaths.json")]) == 0
    assert main(["fixations", str(gaze),
                 "--out", str(work / "gaze" / "fixations.csv")]) == 0
    inputs = {"scan.json", "gaze.csv", "aois.json"}
    return {path.relative_to(work).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(work.rglob("*"))
            if path.is_file() and path.name not in inputs}


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def test_outputs_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert versions() == golden["versions"], (
        f"the golden outputs were pinned under {golden['versions']}, this is "
        f"{versions()}; rerun tests/repin_golden.py and check what moved")
    outputs = golden_outputs(tmp_path)
    moved = sorted(name for name in outputs.keys() | golden["sha256"].keys()
                   if outputs.get(name) != golden["sha256"].get(name))
    assert not moved, f"outputs differ from golden.json: {moved}"


def test_repin_names_what_moved():
    from repin_golden import moved
    assert moved({"a": "1", "b": "2", "c": "3"}, {"a": "1", "b": "9", "d": "4"}) == [
        ("changed", "b"), ("disappeared", "c"), ("appeared", "d")]
