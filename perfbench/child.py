"""Runs the CLI stages of one workload in rounds, in a process of its own.

Usage: python3 child.py SPEC_JSON RESULT_JSON

The spec names the source tree, the working directory, the stage argument
lists and how long to run. The process imports `gazeais.cli` and calls
`main(argv)` for each stage, as the `gazeais` console script does. It
attempts whole rounds only, and starts another only while that round is
expected to end within the time given; at least one round always runs.
Its peak resident memory is that of the pipeline stages alone: input
generation happens in the parent.

After each round it times `import gazeais.cli` in fresh interpreters
("import_probes" of them), so the import share of the set-up time is
sampled across the whole run, not at one moment.

With "trace" set, rounds come in untraced and traced pairs, so the same
process measures the tracing overhead. Every other pair leads with its
traced round, so the first round of the process, which pays first-call
costs, is not always an untraced one.
"""

import hashlib
import json
import os
import resource
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

_IMPORT_TIMER = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import gazeais.cli\n"
    "elapsed = time.perf_counter() - start\n"
    "if not gazeais.cli.__file__.startswith(sys.argv[1]):\n"
    "    raise SystemExit('gazeais imported from ' + gazeais.cli.__file__)\n"
    "print(elapsed)\n"
)


def import_seconds(src):
    """Time of `import gazeais.cli` from `src` in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", _IMPORT_TIMER, str(src)],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _digest(paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(path.encode())
        try:
            h.update(Path(path).read_bytes())
        except OSError:
            h.update(b"<missing>")
    return h.hexdigest()


def run_round(cli, stages, outputs, tracer=None):
    """All stages once; stage times, exit codes and an output digest."""
    times, codes = {}, {}
    ok = True
    for name, argv in stages:
        if not ok:               # a later stage would read stale inputs
            times[name], codes[name] = 0.0, None
            continue
        start = perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.stage(lambda: cli.main(argv))
        except Exception:        # a crash fails this round's stage, not the run
            traceback.print_exc(file=sys.stderr)
            code = None
        times[name] = perf_counter() - start
        codes[name] = code
        ok = code == 0
    return {"times": times, "codes": codes, "digest": _digest(outputs)}


def main(spec_path, result_path):
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    os.chdir(spec["workdir"])
    import gazeais.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(Path(spec["src"]).resolve()):
        raise SystemExit(f"gazeais imported from {cli.__file__}, not {spec['src']}")

    tracer = None
    if spec["trace"]:
        from tracing import Tracer       # beside this script, on sys.path
        tracer = Tracer()

    rounds = []
    start = perf_counter()
    while True:
        # Pairs alternate (untraced, traced) and (traced, untraced).
        traced = tracer is not None and len(rounds) % 4 in (1, 2)
        if traced:
            tracer.reset()
            tracer.install()
            try:
                record = run_round(cli, spec["stages"], spec["outputs"], tracer)
            finally:
                tracer.uninstall()
            record["layers"] = tracer.metrics()
        else:
            record = run_round(cli, spec["stages"], spec["outputs"])
        record["traced"] = traced
        record["import_s"] = [import_seconds(spec["src"])
                              for _ in range(spec["import_probes"])]
        rounds.append(record)
        if tracer is not None and len(rounds) % 2 == 1:
            continue             # rounds come in untraced and traced pairs
        spent = perf_counter() - start
        if spent + spent / len(rounds) * (2 if tracer else 1) > spec["seconds"]:
            break                # the next round (or pair) would overrun

    result = {"rounds": rounds,
              "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(*sys.argv[1:3])
