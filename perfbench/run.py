"""Study-scale benchmark of the `gazeais` CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload study --seed 1 --seconds 30 --trace 0

`--workload all` runs every workload in turn. `study` and `aoi16` run
`gazeais ais` then `gazeais compare`; `gaze` runs `gazeais scanpath` then
`gazeais fixations`. The inputs are
made here from `--seed`. One process with `--jobs 1` (the default) runs the
stages in whole rounds for at most `--seconds`; its outputs are then
checked against values computed apart from the program.

The last line a workload prints is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. The exit status is 0
only when every check passed.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

import checks                                  # noqa: E402
import tracing                                 # noqa: E402
import workloads                               # noqa: E402

SETUP_REPEATS = 2            # before the load, and again after it
IMPORT_PROBES = 2            # import timings after each untraced-run round
RUN_LIMIT_S = 170.0          # the whole run, set-up and checks included


def set_up(workload, params, seed, workdir, repeats=SETUP_REPEATS, first=None):
    """Generate and write the inputs `repeats` times.

    Returns the inputs and each generation time. Every repeat must write
    the same bytes as `first` (inputs made earlier), since the inputs are a
    function of the seed alone.
    """
    times = []
    for _ in range(repeats):
        start = perf_counter()
        inputs = workloads.make_inputs(workload, params, seed)
        inputs.write(workdir)
        times.append(perf_counter() - start)
        if first is None:
            first = inputs
        elif inputs.files != first.files:
            raise RuntimeError("inputs differ between set-ups of one seed")
    return inputs, times


def run_stages(inputs, workdir, seconds, trace, timeout=None):
    """Run the stages in a child process; returns its result document.

    An untraced run also times `IMPORT_PROBES` imports after each round.
    """
    spec = {"src": str(SRC), "workdir": str(workdir), "seconds": seconds,
            "trace": bool(trace), "stages": inputs.stages,
            "outputs": inputs.outputs,
            "import_probes": 0 if trace else IMPORT_PROBES}
    spec_path = workdir / "child_spec.json"
    result_path = workdir / "child_result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path),
                    str(result_path)], check=True, timeout=timeout)
    return json.loads(result_path.read_text(encoding="utf-8"))


def check_outputs(inputs, workdir):
    if isinstance(inputs.truth["params"], workloads.GazeParams):
        return checks.check_gaze(workdir, inputs.truth)
    return checks.check_chain(workdir, inputs.truth)


def count_operations(inputs, rounds, report):
    """Attempted and failed operations: one trial through one stage.

    The outputs left by the last round are checked, and their failures
    count in every round. A stage that failed in a round fails all that
    round's operations of the stage; outputs that hash differently from the
    last round's fail all the round's operations.
    """
    keys = list(inputs.truth["trials"])
    stages = [name for name, _ in inputs.stages]
    last = rounds[-1]["digest"]
    failed = 0
    for rnd in rounds:
        bad = set(report.failed)
        for stage in stages:
            if rnd["codes"][stage] != 0 or rnd["digest"] != last:
                bad.update((stage, pid, tid) for pid, tid in keys)
        failed += len(bad)
    return len(rounds) * len(stages) * len(keys), failed


def end_to_end(inputs, rounds, generate_s, peak_rss_kib):
    """Metrics of an untraced run.

    `setup_s` is the median import time, over every probe of the run, plus
    the median of `generate_s`, the times to generate and write the inputs.
    """
    plain = [r for r in rounds if not r["traced"]]
    names = [name for name, _ in inputs.stages]
    import_s = statistics.median(t for r in plain for t in r["import_s"])
    return {
        "setup_s": (import_s + statistics.median(generate_s), "s"),
        "pipeline_s": (statistics.median(sum(r["times"].values()) for r in plain), "s"),
        "stage1_s": (statistics.median(r["times"][names[0]] for r in plain), "s"),
        "stage2_s": (statistics.median(r["times"][names[1]] for r in plain), "s"),
        "peak_rss_mib": (peak_rss_kib / 1024.0, "MiB"),
    }


def per_layer(rounds):
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    units = tracing.metric_units()
    out = {name: (statistics.median(r["layers"][name] for r in traced), unit)
           for name, unit in units.items() if name != "trace.overhead_s"}
    pipeline = [statistics.median(sum(r["times"].values()) for r in group)
                for group in (traced, plain)]
    out["trace.overhead_s"] = (pipeline[0] - pipeline[1], "s")
    return out


def run_workload(workload, seed, seconds, trace):
    """One run: set up, run the stages, check, print; returns the exit code."""
    started = perf_counter()
    workdir = WORK / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    params = workloads.DEFAULTS[workload]
    inputs, before = set_up(workload, params, seed, workdir)
    result = run_stages(inputs, workdir, seconds, trace,
                        timeout=RUN_LIMIT_S - (perf_counter() - started))
    # Generate again after the load, so the median spans the whole run
    # rather than one moment of a machine whose speed drifts.
    _, after = set_up(workload, params, seed, workdir, first=inputs)
    rounds = result["rounds"]
    report = check_outputs(inputs, workdir)
    attempted, failed = count_operations(inputs, rounds, report)
    digests_equal = len({r["digest"] for r in rounds}) == 1
    correct = not report.messages and failed == 0 and digests_equal

    stage_names = [name for name, _ in inputs.stages]
    metrics = per_layer(rounds) if trace else end_to_end(
        inputs, rounds, before + after, result["peak_rss_kib"])
    labels = {"stage1_s": f"{stage_names[0]}_s", "stage2_s": f"{stage_names[1]}_s"}
    n_plain = sum(not r["traced"] for r in rounds)
    print(f"workload {workload}, seed {seed}: {len(rounds)} rounds "
          f"({n_plain} untraced) of {' + '.join(stage_names)}, "
          f"{len(inputs.truth['trials'])} trials")
    for name, (value, unit) in metrics.items():
        label = f"{name} ({labels[name]})" if name in labels else name
        print(f"  {label:<48} {value:>14.6f} {unit}")
    for message in report.messages[:20]:
        print(f"  CHECK FAILED {message}")
    if not digests_equal:
        print("  CHECK FAILED outputs differ between rounds")
    print(f"operations attempted {attempted}, failed {failed}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.DEFAULTS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gazeais" / "cli.py").is_file():
        print(f"error: no gazeais source tree at {SRC}", file=sys.stderr)
        return 2
    names = sorted(workloads.DEFAULTS) if args.workload == "all" else [args.workload]
    codes = [run_workload(name, args.seed, args.seconds, args.trace)
             for name in names]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
