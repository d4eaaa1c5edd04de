"""Batch command-line interface.

Subcommands: fixations, scanpath, ais, compare, simulate, validate. Every
subcommand runs on one thread and is deterministic given its inputs and
--seed; reruns produce byte-identical files (outputs carry no timestamps).
`ais` runs `analyze_trials` once over all trials at the master seed, which
gives each trial the entry `analyze_trial` gives it alone; `compare`
reads each entry back as a `TrialResult` and its `ScanpathRecord`, and
contrasts those recorded selections without selecting again.
Settings resolve in `_settings` alone: the `--config` file, then flags,
over `RunConfig` defaults, and every error names the file or the flag.
`compare` takes the selection settings that `ais` recorded, checked as
flags are, and a given one must equal them.
"""

import argparse
import csv
import io
import math
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .experiment import (MEASURES, RunConfig, TrialResult, analyze_trial,
                         analyze_trials, contrast_conditions, lag_histogram,
                         read_run_config)
from .gaze import (PipelineParams, ScanpathRecord, _field, _json_list,
                   _load_json, _whole_number, build_scanpath, load_aois,
                   read_gaze_csv, trial_fixations)
from .markov import analytic_ais, analytic_entropy, analytic_gte, generate, \
    load_markov_spec
from .rng import derive_seed
from .stats import TAILS
from .validate import run_all

SCHEMA_VERSION = 1

# (flag, key) of the selection settings, which `ais` records for `compare`.
_SELECTION_SETTINGS = (("kmax", "k_max"), ("alpha", "alpha"),
                      ("nperm", "n_perm_selection"))


def _round12(obj):
    """Round every float to 12 significant digits for stable output files."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        # Lists of plain ints, such as echoed symbols, need no rounding.
        if set(map(type, obj)) <= {int}:
            return obj
        return [_round12(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return _round12(float(obj))
    return obj


def _open_out(path):
    """Open an output file for writing, creating its directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", newline="", encoding="utf-8")


def _json_text(obj, out, pad="\n"):
    """Append to `out` the chunks of `obj` as `json.dump(obj, indent=2,
    sort_keys=True)` writes them, `pad` being the newline and indent of the
    line `obj` starts on.

    Only `str` keys and values of the types `json` writes natively are
    taken: dicts, lists, tuples, str, int, bool, None and float (NaN and
    infinities spelled as `json` spells them); anything else raises
    TypeError. A list of plain ints is joined in one step."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(float.__repr__(obj) if math.isfinite(obj) else
                   "NaN" if obj != obj else "Infinity" if obj > 0 else "-Infinity")
    elif isinstance(obj, (list, tuple, dict)):
        if not obj:
            out.append("{}" if isinstance(obj, dict) else "[]")
            return
        inner = pad + "  "
        if isinstance(obj, dict):
            out.append("{")
            for key in sorted(obj):
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                out.append(inner + encode_basestring_ascii(key) + ": ")
                _json_text(obj[key], out, inner)
                out.append(",")
            out[-1] = pad + "}"
        elif set(map(type, obj)) <= {int}:
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, obj))
                       + pad + "]")
        else:
            out.append("[")
            for value in obj:
                out.append(inner)
                _json_text(value, out, inner)
                out.append(",")
            out[-1] = pad + "]"
    else:
        raise TypeError(f"Object of type {type(obj).__name__} "
                        f"is not JSON serializable")


def _write_json(path, doc):
    """Write `_round12(doc)` as `json.dump(..., indent=2, sort_keys=True)`
    writes it, plus a newline, without `json`'s pure-Python encoder."""
    out = []
    _json_text(_round12(doc), out)
    out.append("\n")
    with _open_out(path) as fh:
        fh.write("".join(out))


def _write_csv(path, header, rows=(), runs=()):
    """Write `header`, the `rows` with each value through `_fmt`, then the
    `runs`.

    A run is (fields, columns): rows that share their text fields, with
    None in `fields` where a float column of `columns` goes. Its rows are
    formatted in one step from a %-template, one line that csv.writer
    quotes once, with each % of a text field doubled. '%.12g' formats a
    float as `_fmt` does.
    """
    with _open_out(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)
        line = io.StringIO()
        template = csv.writer(line)
        for fields, columns in runs:
            line.seek(0)
            line.truncate()
            template.writerow(["%.12g" if f is None else f.replace("%", "%%")
                               for f in fields])
            values = np.column_stack(columns).ravel().tolist()
            fh.write(line.getvalue() * len(columns[0]) % tuple(values))


def _fmt(value) -> str:
    return f"{value:.12g}" if isinstance(value, float) else str(value)


def _settings(args):
    """(settings, sources) by key: the `--config` file's settings overridden
    by flags, each checked, and where each came from."""
    path = getattr(args, "config", None)
    settings = read_run_config(path) if path else {}
    sources = dict.fromkeys(settings, path)
    for flag, key in _SELECTION_SETTINGS + (
            ("seed", "seed"), ("tail", "tail"),
            ("nperm_comparison", "n_perm_comparison"),
            ("collapse_repeats", "collapse_repeats")):
        value = getattr(args, flag, None)
        if value is not None:
            sources[key] = "--" + flag.replace("_", "-")
            try:
                settings[key] = RunConfig.check_setting(key, value)
            except ValueError as exc:
                raise ValueError(f"{sources[key]}: {exc}") from None
    return settings, sources


def _selection(cfg: RunConfig) -> dict:
    """The selection settings of `cfg`, by key."""
    return {key: getattr(cfg, key) for _, key in _SELECTION_SETTINGS}


def _run_config(settings, sources) -> RunConfig:
    """`RunConfig` defaults overridden by `settings`; an error names the
    sources of alpha and n_perm_selection, which it checks together."""
    try:
        return RunConfig(**settings)
    except ValueError as exc:
        where = ", ".join(sorted({str(sources[key]) for key in
                                  ("alpha", "n_perm_selection") if key in sources}))
        raise ValueError(f"{where}: {exc}" if where else str(exc)) from None


def _pipeline_params(args, collapse=False) -> PipelineParams:
    return PipelineParams(
        min_confidence=args.min_confidence,
        dispersion_threshold=args.dispersion,
        min_duration_ms=args.min_duration,
        max_duration_ms=args.max_duration,
        collapse_repeats=collapse,
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _fixation_runs(trials, params):
    """Each trial's fixations as one `_write_csv` run."""
    for trial in trials:
        fixations = trial_fixations(trial.samples, params)
        yield ((trial.trial_id, None, None, None, None, trial.participant_id),
               [fixations[name] for name in ("start_time", "duration",
                                             "centroid_x", "centroid_y")])


def cmd_fixations(args) -> int:
    params = _pipeline_params(args)
    trials = read_gaze_csv(args.input)
    # participant_id comes last, so readers that index the earlier columns
    # by position keep working.
    _write_csv(args.out, ["trial_id", "start_time", "duration_ms",
                          "centroid_x", "centroid_y", "participant_id"],
               runs=_fixation_runs(trials, params))
    return 0


def cmd_scanpath(args) -> int:
    params = _pipeline_params(
        args, collapse=_run_config(*_settings(args)).collapse_repeats)
    trials = read_gaze_csv(args.input)
    aois = load_aois(args.aois)
    records = [build_scanpath(trial, aois, params) for trial in trials]
    _write_json(args.out, {
        "schema_version": SCHEMA_VERSION,
        "trials": [r.to_dict() for r in records],
    })
    return 0


def _add_trial(seen, rec, path):
    """Note that `rec`'s trial was read from `path`; a trial read twice is
    an error."""
    key = (rec.participant_id, rec.condition, rec.trial_id)
    if key in seen:
        raise ValueError(f"{path}: duplicate trial (participant, condition, "
                         f"trial) = {key}, first read from {seen[key]}")
    seen[key] = path


def _scanpath_records(doc):
    entries = _json_list(_field(doc, "trials", "scanpath file")
                         if isinstance(doc, dict) else doc, "trials")
    return [ScanpathRecord.from_dict(entry) for entry in entries]


def cmd_ais(args) -> int:
    cfg = _run_config(*_settings(args))
    records = _load_json(args.input, _scanpath_records)
    seen = {}
    for rec in records:
        _add_trial(seen, rec, args.input)
    records.sort(key=lambda r: (r.participant_id, r.trial_id))
    _write_json(args.out, {
        "schema_version": SCHEMA_VERSION,
        "config": {**_selection(cfg), "seed": cfg.seed},
        "results": [{**res.to_dict(),
                     "symbols": rec.symbols.tolist(),
                     "alphabet_size": int(rec.alphabet_size)}
                    for rec, res in zip(records, analyze_trials(records, cfg))],
    })
    return 0


def _recorded_selection(config, path) -> dict:
    """The selection settings that `ais` recorded in the file `path`, by
    key, each a number (whole but for alpha) in its `check_setting` range."""
    selection = {}
    for _, key in _SELECTION_SETTINGS:
        value = _field(config, key, f"{path}: config")
        try:
            if key != "alpha":
                value = _whole_number(value, key)
            elif type(value) not in (int, float):  # a bool is no number
                raise ValueError(f"alpha must be a number, got {value!r}")
            selection[key] = RunConfig.check_setting(key, value)
        except ValueError as exc:
            raise ValueError(f"{path}: config: {exc}") from None
    return selection


def _load_ais_results(paths):
    """Trial results from `ais` files by participant, the selection
    settings that they share, and the source that names them. An entry
    whose k_max differs from the recorded one is an error that names the
    file and the trial."""
    config = selection = None
    by_participant = {}
    seen = {}
    for path in paths:
        doc = _load_json(path)
        if not (isinstance(doc, dict) and "config" in doc and "results" in doc):
            raise ValueError(f"{path}: not a results file written by "
                             f"`gazeais ais`")
        if config is None:
            config, config_path = doc["config"], path
            selection = _recorded_selection(config, path)
        elif doc["config"] != config:
            raise ValueError(f"{path}: `ais` config {doc['config']} differs "
                             f"from {config_path}: {config}")
        for entry in _json_list(doc["results"], f"{path}: results"):
            if isinstance(entry, dict) and entry.get("symbols") is None:
                raise ValueError(
                    f"{path}: results lack trial symbols; rerun `ais` to "
                    f"produce comparable input"
                )
            try:
                result = TrialResult.from_dict(entry)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
            _add_trial(seen, result.record, path)
            lags = result.selected_lags
            if lags is not None and lags.k_max != selection["k_max"]:
                rec = result.record
                raise ValueError(
                    f"{path}: trial (participant, condition, trial) = "
                    f"{(rec.participant_id, rec.condition, rec.trial_id)}: "
                    f"k_max = {lags.k_max} differs from k_max = "
                    f"{selection['k_max']} recorded in {config_path}")
            by_participant.setdefault(result.record.participant_id,
                                      []).append(result)
    return by_participant, selection, f"{config_path} (recorded by ais)"


def _summary_row(comp, cond):
    """One `condition_summary.csv` row, in the order of its header."""
    row = [comp.participant_id, cond, comp.trial_counts[cond]]
    for m in MEASURES:
        row += [comp.means[m][cond], comp.sems[m][cond]]
    row += [comp.contrasts[m].p_value for m in MEASURES]
    return row


def cmd_compare(args) -> int:
    settings, sources = _settings(args)
    by_participant, recorded, recorded_by = _load_ais_results(args.inputs)
    # Selection settings come from `ais`; the `--config` file and flags may
    # only repeat them.
    for _, key in _SELECTION_SETTINGS:
        given = settings.setdefault(key, recorded[key])
        sources.setdefault(key, recorded_by)
        if given != recorded[key]:
            raise ValueError(f"{key} = {given} from {sources[key]} conflicts "
                             f"with {key} = {recorded[key]} recorded by `ais`")
    cfg = _run_config(settings, sources)

    comparisons = [contrast_conditions(by_participant[pid], cfg)
                   for pid in sorted(by_participant)]

    out_dir = Path(args.out)
    all_results = [res for comp in comparisons for res in comp.trial_results]
    hist = lag_histogram(all_results, cfg.k_max)
    _write_json(out_dir / "comparison.json", {
        "schema_version": SCHEMA_VERSION,
        "config": {**_selection(cfg),
                   "n_perm_comparison": cfg.n_perm_comparison,
                   "tail": cfg.tail, "seed": cfg.seed},
        "lag_histogram": hist.to_dict(),
        "participants": [comp.to_dict() for comp in comparisons],
    })

    header = ["participant_id", "condition", "n_trials"]
    for m in MEASURES:
        header += [f"mean_{m}", f"sem_{m}"]
    header += [f"p_{m}" for m in MEASURES]
    _write_csv(out_dir / "condition_summary.csv", header,
               (_summary_row(comp, cond)
                for comp in comparisons for cond in comp.conditions))
    _write_csv(out_dir / "lag_histogram.csv", ["lag", "count"],
               sorted(hist.counts.items()))
    return 0


def cmd_simulate(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    spec = load_markov_spec(args.spec)
    seed = _run_config(*_settings(args)).seed
    oracle_lags = tuple(range(1, max(spec.order, 1) + 1))
    trials = []
    for i in range(args.trials):
        seq = generate(spec, args.length,
                       seed=derive_seed(seed, "simulate", i),
                       burn_in=args.burn_in)
        trials.append(ScanpathRecord(
            trial_id=f"t{i:03d}",
            participant_id=args.participant,
            condition=args.condition,
            symbols=seq.symbols,
            alphabet_size=seq.alphabet_size,
        ))
    _write_json(args.out, {
        "schema_version": SCHEMA_VERSION,
        "spec": spec.to_json_dict(),
        "oracle": {
            "analytic_entropy": analytic_entropy(spec),
            "analytic_gte": analytic_gte(spec),
            "analytic_ais_lag1": analytic_ais(spec, (1,)),
            "analytic_ais_full_order": analytic_ais(spec, oracle_lags),
            "full_order_lags": list(oracle_lags),
        },
        "trials": [r.to_dict() for r in trials],
    })
    return 0


def cmd_validate(args) -> int:
    checks = run_all(seed=args.seed, quick=args.quick)
    failed = 0
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.name}: {check.detail}")
        failed += 0 if check.passed else 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(sub, seed_help="master seed for all randomness"):
    sub.add_argument("--config", help="run configuration file (key = value lines)")
    sub.add_argument("--seed", type=int, help=seed_help)
    sub.add_argument("--out", required=True, help="output path")


def _add_pipeline_flags(sub):
    p = PipelineParams  # its field defaults are the flags' defaults
    sub.add_argument("--min-confidence", type=float, default=p.min_confidence,
                     dest="min_confidence")
    sub.add_argument("--dispersion", type=float, default=p.dispersion_threshold,
                     help="IDT dispersion threshold in pixels")
    sub.add_argument("--min-duration", type=float, default=p.min_duration_ms,
                     dest="min_duration", help="minimum fixation duration (ms)")
    sub.add_argument("--max-duration", type=float, default=p.max_duration_ms,
                     dest="max_duration", help="maximum fixation duration (ms)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gazeais",
        description="Scanpath predictability via active information storage",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("fixations", help="detect fixations in a gaze CSV")
    p.add_argument("input", help="gaze CSV (trial_id,participant_id,condition,timestamp,x,y,confidence)")
    p.add_argument("--seed", type=int,
                   help="unused: fixation detection draws no randomness")
    p.add_argument("--out", required=True, help="output path")
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_fixations)

    p = subs.add_parser("scanpath", help="build AOI symbol sequences from a gaze CSV")
    p.add_argument("input", help="gaze CSV")
    p.add_argument("--aois", required=True, help="AOI definitions JSON")
    _add_common(p, seed_help="unused: building scanpaths draws no randomness")
    _add_pipeline_flags(p)
    p.add_argument("--collapse-repeats", action="store_true", default=None,
                   dest="collapse_repeats",
                   help="collapse consecutive identical AOI symbols")
    p.set_defaults(func=cmd_scanpath)

    p = subs.add_parser("ais", help="per-trial past-state optimization and AIS")
    p.add_argument("input", help="scanpath JSON")
    _add_common(p)
    p.add_argument("--kmax", type=int, help="maximum candidate lag")
    p.add_argument("--alpha", type=float, help="selection significance level")
    p.add_argument("--nperm", type=int, help="selection surrogate count")
    p.set_defaults(func=cmd_ais)

    p = subs.add_parser("compare", help="per-participant condition contrasts")
    p.add_argument("inputs", nargs="+", help="results JSON files from `ais`")
    _add_common(p)
    p.add_argument("--kmax", type=int, help="must match the `ais` run")
    p.add_argument("--alpha", type=float, help="must match the `ais` run")
    p.add_argument("--nperm", type=int, help="must match the `ais` run")
    p.add_argument("--nperm-comparison", type=int, dest="nperm_comparison",
                   help="surrogate count for the condition contrasts")
    p.add_argument("--tail", choices=TAILS)
    p.set_defaults(func=cmd_compare)

    p = subs.add_parser("simulate", help="generate synthetic trials with oracle values")
    p.add_argument("spec", help="Markov spec JSON")
    _add_common(p)
    p.add_argument("--length", type=int, required=True, help="symbols per trial")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--burn-in", type=int, default=1000, dest="burn_in")
    p.add_argument("--condition", default="sim")
    p.add_argument("--participant", default="sim")
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("validate", help="run the oracle self-check suite")
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--quick", action="store_true",
                   help="smaller sample sizes for a fast smoke run")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
