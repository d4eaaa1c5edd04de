"""Inputs of the benchmark workloads, made here from the workload seed.

Nothing in this file uses `gazeais`: the inputs are a pure function of the
workload parameters and `--seed`, so a change to the program's own random
streams (or to `gazeais simulate`) leaves them unchanged.

Each workload yields the files the CLI reads, the argument lists a user
would type for each stage, and the planted truth the checks compare against.
"""

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

# Keys that separate the random streams of the workloads for one seed.
_STREAM = {"study": 1, "aoi16": 2, "gaze": 3}


@dataclass(frozen=True)
class ChainParams:
    """Participants x conditions x trials of discrete sequences.

    kind "persistence": binary chains that keep their symbol with
    probability `memory[cond]`. kind "lagged_copy": a `alphabet`-symbol
    sequence that copies the symbol `lag` steps back with probability
    `memory[cond]` and otherwise draws uniformly, with `lag` cycling
    through 1..k_max across a condition's trials.

    Selection must find the planted lag in every trial whose memory is at
    least `must_select`; weaker trials may select nothing.
    """

    kind: str
    participants: int
    trials: int                     # per condition
    length: int
    alphabet: int
    memory: Tuple[Tuple[str, float], ...]
    k_max: int = 5
    n_perm: int = 200
    n_perm_comparison: int = 5000
    must_select: float = 0.0


@dataclass(frozen=True)
class GazeParams:
    """A gaze CSV with planted fixations on a grid of square AOIs."""

    participants: int
    trials: int                     # per participant
    fixations: int                  # planted fixations per trial
    rate_hz: float = 120.0
    grid: int = 4                   # grid x grid AOIs
    cell_px: float = 300.0
    noise_px: float = 4.0           # uniform jitter per axis
    min_fix_ms: float = 200.0
    max_fix_ms: float = 600.0
    saccade_samples: int = 3
    off_aoi_share: float = 0.05
    low_conf_share: float = 0.05


STUDY = ChainParams(kind="persistence", participants=2, trials=22, length=300,
                    alphabet=2, memory=(("high", 0.95), ("low", 0.60)),
                    must_select=0.95)
AOI16 = ChainParams(kind="lagged_copy", participants=1, trials=6, length=300,
                    alphabet=16, memory=(("high", 0.7), ("low", 0.5)))
GAZE = GazeParams(participants=4, trials=10, fixations=120)

DEFAULTS = {"study": STUDY, "aoi16": AOI16, "gaze": GAZE}


@dataclass
class Inputs:
    """Generated inputs: file contents by name, stage argv, planted truth."""

    files: Dict[str, str]
    stages: List[Tuple[str, List[str]]]
    outputs: List[str]
    truth: dict

    def write(self, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        for name, text in self.files.items():
            (workdir / name).write_text(text, encoding="utf-8")


def workload_rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAM[workload]])


# ---------------------------------------------------------------------------
# symbol sequences: study and aoi16
# ---------------------------------------------------------------------------

def persistence_chain(rng, length: int, p_stay: float) -> np.ndarray:
    """Binary chain started from its (uniform) stationary distribution."""
    first = rng.integers(0, 2)
    flips = rng.random(length - 1) >= p_stay
    return (first + np.concatenate(([0], np.cumsum(flips)))) % 2


def lagged_copy(rng, length: int, alphabet: int, lag: int, p_copy: float) -> np.ndarray:
    """x_t = x_{t-lag} with probability p_copy, else a uniform draw."""
    x = rng.integers(0, alphabet, size=length)
    copy = rng.random(length) < p_copy
    for t in range(lag, length):
        if copy[t]:
            x[t] = x[t - lag]
    return x


def chain_inputs(workload: str, params: ChainParams, seed: int) -> Inputs:
    rng = workload_rng(workload, seed)
    trials = []
    truth = {"params": params, "trials": {}}
    for p in range(params.participants):
        pid = f"p{p:02d}"
        for cond, memory in params.memory:
            for i in range(params.trials):
                tid = f"{cond}{i:03d}"
                if params.kind == "persistence":
                    lag = 1
                    x = persistence_chain(rng, params.length, memory)
                else:
                    lag = 1 + i % params.k_max
                    x = lagged_copy(rng, params.length, params.alphabet, lag, memory)
                symbols = [int(s) for s in x]
                trials.append({"trial_id": tid, "participant_id": pid,
                               "condition": cond, "symbols": symbols,
                               "alphabet_size": params.alphabet})
                truth["trials"][(pid, tid)] = {
                    "condition": cond, "lag": lag, "symbols": symbols,
                    "must_select": memory >= params.must_select}
    doc = json.dumps({"schema_version": 1, "trials": trials}) + "\n"
    common = ["--seed", str(seed), "--kmax", str(params.k_max),
              "--nperm", str(params.n_perm)]
    stages = [
        ("ais", ["ais", "scanpaths.json", *common, "--out", "results.json"]),
        ("compare", ["compare", "results.json", *common,
                     "--nperm-comparison", str(params.n_perm_comparison),
                     "--out", "comparison"]),
    ]
    outputs = ["results.json", "comparison/comparison.json",
               "comparison/condition_summary.csv",
               "comparison/lag_histogram.csv"]
    return Inputs({"scanpaths.json": doc}, stages, outputs, truth)


# ---------------------------------------------------------------------------
# gaze recordings
# ---------------------------------------------------------------------------

def aoi_grid(params: GazeParams) -> List[dict]:
    c = params.cell_px
    return [{"id": r * params.grid + k, "name": f"r{r}c{k}",
             "rect": [k * c, r * c, (k + 1) * c, (r + 1) * c], "priority": 0}
            for r in range(params.grid) for k in range(params.grid)]


def _plant_targets(rng, params: GazeParams):
    """Per fixation: AOI id, or None for a fixation right of the grid.

    No AOI follows itself and no two off-grid fixations are adjacent, so
    consecutive fixation centres lie at least one cell apart and IDT can
    never merge them across the saccade between.
    """
    n_aoi = params.grid * params.grid
    targets = []
    prev = None
    for f in range(params.fixations):
        if f > 0 and prev is not None and rng.random() < params.off_aoi_share:
            prev = None
            targets.append(None)
            continue
        aoi = int(rng.integers(0, n_aoi))
        while aoi == prev:
            aoi = int(rng.integers(0, n_aoi))
        prev = aoi
        targets.append(aoi)
    return targets


def _centre(params: GazeParams, target, off_row: int):
    c = params.cell_px
    if target is None:
        return (params.grid + 0.5) * c, (off_row + 0.5) * c
    r, k = divmod(target, params.grid)
    return (k + 0.5) * c, (r + 0.5) * c


def gaze_trial(rng, params: GazeParams):
    """Samples of one trial and its planted fixations.

    Values are drawn on the decimal grid the CSV is written with
    (microseconds, thousandths of a pixel and of confidence), so the
    planted truth equals what the program reads back, bit for bit.
    """
    targets = _plant_targets(rng, params)
    noise = int(round(params.noise_px * 1000))
    xs, ys, cs = [], [], []
    planted = []
    prev = None
    for target in targets:
        cx, cy = _centre(params, target, int(rng.integers(0, params.grid)))
        centre = (int(round(cx * 1000)), int(round(cy * 1000)))
        if prev is not None:
            for s in range(1, params.saccade_samples + 1):
                w = s / (params.saccade_samples + 1)
                xs.append(int(round(prev[0] + w * (centre[0] - prev[0]))))
                ys.append(int(round(prev[1] + w * (centre[1] - prev[1]))))
                cs.append(int(rng.integers(950, 1001)))
        dur_ms = rng.uniform(params.min_fix_ms, params.max_fix_ms)
        n = int(round(dur_ms * params.rate_hz / 1000.0)) + 1
        first = len(xs)
        fx = centre[0] + rng.integers(-noise, noise + 1, size=n)
        fy = centre[1] + rng.integers(-noise, noise + 1, size=n)
        conf = rng.integers(950, 1001, size=n)
        low = None
        if rng.random() < params.low_conf_share:
            # An interior sample far off the fixation: kept, it would break
            # the dispersion window; the confidence filter must drop it.
            low = first + n // 2
            fx[n // 2] += int(params.cell_px * 750)
            conf[n // 2] = 300
        xs.extend(fx.tolist())
        ys.extend(fy.tolist())
        cs.extend(conf.tolist())
        planted.append({"aoi": target, "centre": (cx, cy), "first": first,
                        "last": first + n - 1, "low": low})
        prev = centre
    step_us = 1e6 / params.rate_hz
    t_us = [int(round(i * step_us)) for i in range(len(xs))]
    return (t_us, xs, ys, cs), planted


def gaze_inputs(workload: str, params: GazeParams, seed: int) -> Inputs:
    rng = workload_rng(workload, seed)
    lines = ["trial_id,participant_id,condition,timestamp,x,y,confidence"]
    truth = {"params": params, "trials": {}}
    for p in range(params.participants):
        pid = f"p{p:02d}"
        for i in range(params.trials):
            tid = f"t{i:03d}"
            cond = "AB"[i % 2]
            (t_us, xs, ys, cs), planted = gaze_trial(rng, params)
            prefix = f"{tid},{pid},{cond},"
            lines.extend(f"{prefix}{t / 1e6:.6f},{x / 1e3:.3f},{y / 1e3:.3f},{c / 1e3:.3f}"
                         for t, x, y, c in zip(t_us, xs, ys, cs))
            x_arr = np.asarray(xs) / 1e3
            y_arr = np.asarray(ys) / 1e3
            fixations = []
            for fx in planted:
                idx = [j for j in range(fx["first"], fx["last"] + 1)
                       if j != fx["low"]]
                fixations.append({
                    "aoi": fx["aoi"], "centre": fx["centre"],
                    "start_time": t_us[fx["first"]] / 1e6,
                    "duration_ms": (t_us[fx["last"]] / 1e6 - t_us[fx["first"]] / 1e6) * 1000.0,
                    "centroid": (float(x_arr[idx].mean()), float(y_arr[idx].mean())),
                })
            truth["trials"][(pid, tid)] = {"condition": cond,
                                           "fixations": fixations}
    files = {"gaze.csv": "\n".join(lines) + "\n",
             "aois.json": json.dumps(aoi_grid(params)) + "\n"}
    stages = [
        ("scanpath", ["scanpath", "gaze.csv", "--aois", "aois.json",
                      "--seed", str(seed), "--out", "scanpaths.json"]),
        ("fixations", ["fixations", "gaze.csv", "--seed", str(seed),
                       "--out", "fixations.csv"]),
    ]
    return Inputs(files, stages, ["scanpaths.json", "fixations.csv"], truth)


def make_inputs(workload: str, params, seed: int) -> Inputs:
    if isinstance(params, GazeParams):
        return gaze_inputs(workload, params, seed)
    return chain_inputs(workload, params, seed)
