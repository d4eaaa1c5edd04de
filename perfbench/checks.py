"""Correctness checks of the CLI outputs, made apart from the program.

Information values are recomputed here with their own counting code (a
Counter over row tuples) and their own Miller-Madow term, never with
`gazeais`. Each check returns the set of operations it failed, where one
operation is one trial carried through one CLI stage, plus messages that
say why.
"""

import csv
import json
import math
from collections import Counter, defaultdict
from pathlib import Path

LN2 = math.log(2.0)
VALUE_TOL = 1e-9         # recomputed information values vs the program's
GRID_TOL = 1e-6          # p * (n + 1) - 1 must be this close to an integer
# Per-trial corrected AIS of a persistence chain at 300 symbols, k_max 5:
# (|mean - (1 - H_b(p_stay))|, standard deviation) in bits, measured and
# rounded up. The README ("Closed-form tolerance") says how.
CLOSED_FORM_BIAS_SD = {0.95: (0.047, 0.072), 0.60: (0.003, 0.019)}


class Report:
    """Failed operations as (stage, participant, trial) plus messages."""

    def __init__(self):
        self.failed = set()
        self.messages = []

    def fail(self, stage, keys, message):
        self.failed.update((stage, pid, tid) for pid, tid in keys)
        self.messages.append(f"{stage}: {message}")

    def require(self, ok, stage, keys, message):
        if not ok:
            self.fail(stage, keys, message)
        return ok


# ---------------------------------------------------------------------------
# reference estimators
# ---------------------------------------------------------------------------

def plugin_entropy(counter, n):
    """Plug-in entropy in bits and its Miller-Madow term of one marginal."""
    h = 0.0
    for c in sorted(counter.values()):
        p = c / n
        h -= p * math.log2(p)
    return h, (len(counter) - 1) / (2.0 * n * LN2)


def embedded_rows(symbols, lags, k_max):
    """(target, past tuple) per row t in [k_max, N), lags ascending."""
    return [(symbols[t], tuple(symbols[t - lag] for lag in lags))
            for t in range(k_max, len(symbols))]


def reference_ais(symbols, lags, k_max):
    """(plug-in AIS, corrected AIS, plug-in H(X_t), corrected H(X_t))."""
    rows = embedded_rows(symbols, sorted(lags), k_max)
    n = len(rows)
    h_t, mm_t = plugin_entropy(Counter(t for t, _ in rows), n)
    if not lags:
        return 0.0, 0.0, h_t, h_t + mm_t
    h_p, mm_p = plugin_entropy(Counter(p for _, p in rows), n)
    h_tp, mm_tp = plugin_entropy(Counter(rows), n)
    plugin = h_t + h_p - h_tp
    return plugin, plugin + mm_t + mm_p - mm_tp, h_t, h_t + mm_t


def binary_entropy(p):
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


def on_grid(p, n_perm):
    b = p * (n_perm + 1) - 1
    return -GRID_TOL <= b <= n_perm + GRID_TOL and abs(b - round(b)) <= GRID_TOL


def close(a, b, tol=VALUE_TOL):
    return a is not None and b is not None and abs(a - b) <= tol


# ---------------------------------------------------------------------------
# study and aoi16: `ais` then `compare`
# ---------------------------------------------------------------------------

def _check_trial_result(rep, stage, entry, truth, params):
    key = (entry["participant_id"], entry["trial_id"])
    planted = truth["trials"].get(key)
    if not rep.require(planted is not None and not entry["skipped"], stage,
                       [key], f"{key}: unknown or skipped trial"):
        return None
    symbols = planted["symbols"]
    lags = entry["selected_lags"]
    plugin, corrected, h_plugin, h_corrected = reference_ais(
        symbols, lags, params.k_max)
    ais, ent = entry["ais"], entry["entropy_next"]
    checks = [
        (entry.get("symbols", symbols) == symbols, "echoed symbols differ from the input"),
        (entry["condition"] == planted["condition"], "condition label changed"),
        (not planted["must_select"] or planted["lag"] in lags,
         f"lags {lags} miss the planted lag {planted['lag']}"),
        (close(ais["plugin_value"], plugin), f"plug-in AIS {ais['plugin_value']} != {plugin}"),
        (close(ais["corrected_value"], corrected),
         f"corrected AIS {ais['corrected_value']} != {corrected}"),
        (close(ent["plugin_value"], h_plugin), f"plug-in H {ent['plugin_value']} != {h_plugin}"),
        (close(ent["corrected_value"], h_corrected),
         f"corrected H {ent['corrected_value']} != {h_corrected}"),
        (ais["plugin_value"] <= ent["plugin_value"] + VALUE_TOL, "plug-in AIS exceeds H(X_t)"),
        (on_grid(entry["ais_p_value"], params.n_perm),
         f"p = {entry['ais_p_value']} is off the 1/{params.n_perm + 1} grid"),
    ]
    norm = entry["normalized_ais"]
    if h_plugin > 0:
        expected = min(1.0, max(0.0, corrected / h_corrected))
        checks.append((close(norm, expected) and 0.0 <= norm <= 1.0,
                       f"normalized AIS {norm} != {expected}"))
    for ok, message in checks:
        rep.require(ok, stage, [key], f"{key}: {message}")
    return corrected


def check_chain(workdir: Path, truth) -> Report:
    """Checks of `ais` (results.json) and `compare` (comparison.json)."""
    params = truth["params"]
    rep = Report()
    keys = list(truth["trials"])
    results = _load(rep, workdir / "results.json", "ais", keys)
    if results is not None:
        seen = [(e["participant_id"], e["trial_id"]) for e in results["results"]]
        rep.require(sorted(seen) == sorted(keys), "ais", keys,
                    "results.json does not hold each input trial once")
        by_cond = defaultdict(list)
        for entry in results["results"]:
            corrected = _check_trial_result(rep, "ais", entry, truth, params)
            if corrected is not None:
                by_cond[entry["condition"]].append(
                    ((entry["participant_id"], entry["trial_id"]), corrected))
        if params.kind == "persistence":
            _check_closed_form(rep, by_cond, dict(params.memory))

    comparison = _load(rep, workdir / "comparison" / "comparison.json",
                       "compare", keys)
    if comparison is not None:
        pids = sorted({pid for pid, _ in keys})
        got = [p["participant_id"] for p in comparison["participants"]]
        rep.require(got == pids, "compare", keys, f"participants {got} != {pids}")
        for part in comparison["participants"]:
            _check_participant(rep, part, truth, params)
    return rep


def closed_form_tolerance(p_stay, n_trials):
    """Known finite-sample bias plus five standard errors of the mean."""
    bias, sd = CLOSED_FORM_BIAS_SD[p_stay]
    return bias + 5.0 * sd / math.sqrt(n_trials)


def _check_closed_form(rep, by_cond, memory):
    """Mean corrected AIS per condition vs 1 - H_b(p_stay)."""
    for cond, values in by_cond.items():
        p = memory[cond]
        mean = sum(v for _, v in values) / len(values)
        target = 1.0 - binary_entropy(p)
        tol = closed_form_tolerance(p, len(values))
        rep.require(abs(mean - target) <= tol, "ais", [k for k, _ in values],
                    f"condition {cond}: mean corrected AIS {mean:.4f} is more "
                    f"than {tol:.4f} from 1 - H_b({p}) = {target:.4f}")


def _check_participant(rep, part, truth, params):
    pid = part["participant_id"]
    keys = [k for k in truth["trials"] if k[0] == pid]
    trials = {(t["participant_id"], t["trial_id"]): t for t in part["trials"]}
    if not rep.require(sorted(trials) == sorted(keys), "compare", keys,
                       f"{pid}: trials differ from the input"):
        return
    for entry in part["trials"]:
        _check_trial_result(rep, "compare", entry, truth, params)

    union = sorted({lag for t in part["trials"] for lag in t["selected_lags"]})
    rep.require(part["union_lags"] == union, "compare", keys,
                f"{pid}: union {part['union_lags']} != union of selections {union}")
    if params.kind == "lagged_copy":
        rep.require(union == list(range(1, params.k_max + 1)), "compare", keys,
                    f"{pid}: union {union} is not 1..{params.k_max}")

    length = min(len(truth["trials"][k]["symbols"]) for k in keys)
    rep.require(part["equalized_length"] == length, "compare", keys,
                f"{pid}: equalized length {part['equalized_length']} != {length}")
    means = defaultdict(list)
    for key in keys:
        symbols = truth["trials"][key]["symbols"][-length:]
        plugin, corrected, h_plugin, h_corrected = reference_ais(
            symbols, part["union_lags"], params.k_max)
        rep.require(plugin <= h_plugin + VALUE_TOL, "compare", [key],
                    f"{key}: union AIS exceeds H(X_t)")
        cond = truth["trials"][key]["condition"]
        means["ais", cond].append(corrected)
        means["entropy", cond].append(h_corrected)
    for (measure, cond), values in means.items():
        expected = sum(values) / len(values)
        got = part["means"][measure][cond]
        rep.require(close(got, expected), "compare", keys,
                    f"{pid}: mean {measure} of {cond} {got} != {expected}")
    for measure in ("ais", "entropy", "normalized_ais"):
        contrast = part["contrasts"][measure]
        rep.require(on_grid(contrast["p_value"], params.n_perm_comparison),
                    "compare", keys,
                    f"{pid}: {measure} p = {contrast['p_value']} is off the "
                    f"1/{params.n_perm_comparison + 1} grid")
    for cond, mean in part["means"]["normalized_ais"].items():
        rep.require(mean is not None and 0.0 <= mean <= 1.0, "compare", keys,
                    f"{pid}: mean normalized AIS of {cond} is {mean}")
    if params.kind == "persistence":
        high = max(dict(params.memory).items(), key=lambda kv: kv[1])[0]
        ais = part["contrasts"]["ais"]
        ahead = ais["condition_a"] if ais["observed_diff"] > 0 else ais["condition_b"]
        rep.require(ahead == high and ais["p_value"] <= 0.01, "compare", keys,
                    f"{pid}: AIS contrast has {ahead} ahead with p = "
                    f"{ais['p_value']}; expected {high} ahead with p <= 0.01")


# ---------------------------------------------------------------------------
# gaze: `scanpath` and `fixations`
# ---------------------------------------------------------------------------

def check_gaze(workdir: Path, truth) -> Report:
    params = truth["params"]
    rep = Report()
    keys = list(truth["trials"])
    doc = _load(rep, workdir / "scanpaths.json", "scanpath", keys)
    if doc is not None:
        got = {(t["participant_id"], t["trial_id"]): t for t in doc["trials"]}
        rep.require(sorted(got) == sorted(keys), "scanpath", keys,
                    "scanpaths.json does not hold each input trial once")
        for key in keys:
            fixations = truth["trials"][key]["fixations"]
            planted = [f["aoi"] for f in fixations if f["aoi"] is not None]
            off = sum(1 for f in fixations if f["aoi"] is None)
            entry = got.get(key)
            if not rep.require(entry is not None, "scanpath", [key], f"{key}: missing"):
                continue
            rep.require(entry["symbols"] == planted, "scanpath", [key],
                        f"{key}: scanpath differs from the planted AOI sequence")
            rep.require(entry["dropped_fixations"] == off, "scanpath", [key],
                        f"{key}: {entry['dropped_fixations']} dropped, planted {off}")
            rep.require(entry["alphabet_size"] == params.grid ** 2, "scanpath",
                        [key], f"{key}: alphabet {entry['alphabet_size']}")

    rows = defaultdict(list)
    try:
        with open(workdir / "fixations.csv", newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                rows[row["trial_id"]].append(row)
    except (OSError, KeyError) as exc:
        rep.fail("fixations", keys, f"fixations.csv unreadable: {exc}")
        return rep
    # The CSV names trials only by trial_id; rows follow the participant
    # order of the input, so split each trial_id's rows across participants.
    for tid in sorted({t for _, t in keys}):
        owners = sorted(k for k in keys if k[1] == tid)
        expected = [(k, f) for k in owners for f in truth["trials"][k]["fixations"]]
        got = rows.get(tid, [])
        if not rep.require(len(got) == len(expected), "fixations", owners,
                           f"{tid}: {len(got)} fixation rows, planted {len(expected)}"):
            continue
        for row, (key, fx) in zip(got, expected):
            cx, cy = float(row["centroid_x"]), float(row["centroid_y"])
            ok = (abs(float(row["start_time"]) - fx["start_time"]) <= 1e-9
                  and abs(float(row["duration_ms"]) - fx["duration_ms"]) <= 1e-6
                  and abs(cx - fx["centre"][0]) <= params.noise_px + 1e-9
                  and abs(cy - fx["centre"][1]) <= params.noise_px + 1e-9
                  and abs(cx - fx["centroid"][0]) <= 1e-6
                  and abs(cy - fx["centroid"][1]) <= 1e-6)
            rep.require(ok, "fixations", [key],
                        f"{key}: fixation at {fx['start_time']:.6f} s does not "
                        f"match its planted start, duration and centroid")
    return rep


def _load(rep, path, stage, keys):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        rep.fail(stage, keys, f"{path.name} unreadable: {exc}")
        return None
