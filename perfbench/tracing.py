"""Spans around the public functions of each `gazeais` layer.

The package binds names with `from .x import y`, so one function can be
reached through several module attributes (`derive_rng` through `rng`,
`embedding` and `stats`). Every such binding is replaced by the same
wrapper, so a call is recorded whichever name the caller used.

Spans are aggregated as they close, on a stack: each span's duration is
added to its function's inclusive time and to its parent's child time, and
its layer's self time grows by the duration minus the child time. Nothing
inside `src/` changes.
"""

import importlib
import inspect
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "gaze", "sequences", "infocore", "embedding", "stats",
          "experiment", "rng")

# Modules whose public functions get spans. The `cli` subcommands are
# covered by the span around each stage instead.
WRAPPED = {f"gazeais.{layer}": layer for layer in LAYERS if layer != "cli"}
# `rng.indexed_map` runs its callers' surrogate closures; a span around it
# would book the callers' work to `rng`, so the callers' spans keep it.
UNWRAPPED = {("rng", "indexed_map")}

# Functions reported by inclusive time (`<layer>.<fn>_s`) and by call count
# (`<layer>.<fn>_calls`), and counters as (name, unit).
INCLUSIVE = [
    ("embedding", "optimize_past_state"), ("embedding", "max_statistic_test"),
    ("rng", "derive_rng"), ("stats", "test_final_ais"),
    ("stats", "independent_samples_permutation_test"),
    ("infocore", "active_information_storage"), ("sequences", "embed"),
    ("experiment", "analyze_trial"), ("experiment", "compare_conditions"),
    ("gaze", "read_gaze_csv"), ("gaze", "detect_fixations_idt"),
    ("gaze", "build_scanpath"),
]
CALLS = [
    ("embedding", "max_statistic_test"), ("rng", "derive_rng"),
    ("rng", "derive_seed"), ("stats", "test_final_ais"),
    ("infocore", "active_information_storage"), ("sequences", "embed"),
    ("experiment", "analyze_trial"),
]
COUNTERS = [
    ("embedding.surrogates", "count"), ("stats.contrast_surrogates", "count"),
    ("infocore.table_cells", "computed_cells"), ("gaze.samples", "count"),
    ("gaze.fixations", "count"),
]


def metric_units():
    """Every per-layer metric name with its unit."""
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    units.update({f"{layer}.{fn}_s": "s" for layer, fn in INCLUSIVE})
    units.update({f"{layer}.{fn}_calls": "count" for layer, fn in CALLS})
    units.update(dict(COUNTERS))
    units["trace.overhead_s"] = "s"
    return units


def _arg(sig, args, kwargs, name):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _count_surrogates(counter):
    def count(tracer, sig, args, kwargs, result):
        tracer.counts[counter] += _arg(sig, args, kwargs, "n_perm")
    return count


def _count_table_cells(tracer, sig, args, kwargs, result):
    # Cells of the dense joint table over (target, past lags): computed from
    # the arguments, since the program does not report its table size.
    seq = _arg(sig, args, kwargs, "seq")
    lags = _arg(sig, args, kwargs, "lags")
    n_lags = len(getattr(lags, "lags", None) or set(lags))
    tracer.counts["infocore.table_cells"] += seq.alphabet_size ** (n_lags + 1)


def _count_samples(tracer, sig, args, kwargs, result):
    tracer.counts["gaze.samples"] += sum(len(t.samples) for t in result)


def _count_fixations(tracer, sig, args, kwargs, result):
    tracer.counts["gaze.fixations"] += len(result)


ON_RETURN = {
    ("embedding", "max_statistic_test"): _count_surrogates("embedding.surrogates"),
    ("stats", "independent_samples_permutation_test"):
        _count_surrogates("stats.contrast_surrogates"),
    ("infocore", "active_information_storage"): _count_table_cells,
    ("gaze", "read_gaze_csv"): _count_samples,
    ("gaze", "detect_fixations_idt"): _count_fixations,
}


class Tracer:
    """Installs spans into the `gazeais` modules and aggregates them."""

    def __init__(self):
        self._originals = []       # (module, attribute, function)
        self.reset()

    def reset(self):
        self.stack = []
        self.inclusive = defaultdict(float)
        self.calls = defaultdict(int)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)

    def _wrap(self, fn, layer):
        key = (layer, fn.__name__)
        on_return = ON_RETURN.get(key)
        sig = inspect.signature(fn) if on_return else None

        def span(*args, **kwargs):
            frame = [0.0]
            self.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self.stack.pop()
                if self.stack:
                    self.stack[-1][0] += duration
                self.inclusive[key] += duration
                self.calls[key] += 1
                self.self_time[layer] += duration - frame[0]
            if on_return is not None:
                on_return(self, sig, args, kwargs, result)
            return result

        span.__wrapped__ = fn
        return span

    def install(self):
        """Wrap every module attribute bound to a public layer function."""
        wrappers = {}
        modules = [importlib.import_module(name)
                   for name in ["gazeais"] + [f"gazeais.{layer}" for layer in LAYERS]]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if not inspect.isfunction(value) or value.__name__.startswith("_"):
                    continue
                layer = WRAPPED.get(value.__module__)
                if layer is None or (layer, value.__name__) in UNWRAPPED:
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(value, layer)
                self._originals.append((module, attr, value))
                setattr(module, attr, wrappers[value])
        return sorted(f"{fn.__module__}.{fn.__name__}" for fn in wrappers)

    def uninstall(self):
        for module, attr, value in reversed(self._originals):
            setattr(module, attr, value)
        self._originals = []

    def stage(self, run):
        """Run one CLI stage inside a `cli` span; returns its exit code."""
        return self._wrap(run, "cli")()

    def metrics(self):
        """This round's per-layer values, keyed like `metric_units`."""
        out = {f"{layer}.self_s": self.self_time[layer] for layer in LAYERS}
        out.update({f"{layer}.{fn}_s": self.inclusive[layer, fn]
                    for layer, fn in INCLUSIVE})
        out.update({f"{layer}.{fn}_calls": self.calls[layer, fn]
                    for layer, fn in CALLS})
        out.update({name: self.counts[name] for name, _ in COUNTERS})
        return out
