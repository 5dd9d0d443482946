"""One fresh-interpreter run of a workload, started by run.py.

    python3 perfbench/worker.py --workload routes --seed 0 --mode timed \
        --spawned <time.monotonic() at spawn> --check full --tmp <dir>

The process is the unit: the package's memo caches start empty, as they do
for a command-line user.  The worker imports the package, builds the seeded
inputs (set-up), runs the workload's ops one at a time, and then, outside
the timed region, digests every result and runs the exact checks.  It prints
one JSON object on its last stdout line.

Modes: `timed` measures op and route times, raw and normalised by the
machine's speed (speed.py); `traced` records spans around every layer
(tracer.py) and raw op times; `setup` stops before the first op.
"""

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402  (after the path set-up)
from speed import MIN_PROBES, PROBE_INTERVAL_S, SpeedClock  # noqa: E402
from tracer import SETUP_LAYERS, RouteTimers, Tracer  # noqa: E402


def run_ops(ops, clock, tracer=None):
    """Run ops in order.  Returns (results, marks, errors) keyed by label;
    marks are the op's start and end marks of `clock`."""
    results, marks, errors = {}, {}, {}
    for op in ops:
        m0 = clock.mark()
        try:
            if tracer is None:
                value = op.run(results)
            else:
                value = tracer.span("bench.op", op.run)(results)
        except Exception as exc:  # an op that raises is a failed op
            errors[op.label] = f"raised {type(exc).__name__}: {exc}"
        else:
            results[op.label] = value
        marks[op.label] = (m0, clock.mark())
    return results, marks, errors


def verdicts(name, ctx, results, errors, full):
    """Digest every result and run the exact checks: (digests, failed)."""
    digests = {label: workloads.digest(workloads.render_result(name, label, v))
               for label, v in results.items()}
    failed = dict(errors)
    failed.update(workloads.check(name, ctx, results, full))
    return digests, failed


def measure_once(workload, seed, mode, spawned, tmp, full=False, grid=None):
    """One measurement, as the dict the worker prints.  `spawned` is the
    time.monotonic() reading taken just before the process was started."""
    clock = SpeedClock()
    tracer = timers = None
    if mode == "traced":
        tracer = Tracer()
    else:
        clock.start()
    try:
        import drinfeld_deuring  # noqa: F401  (set-up includes the import)

        if tracer is not None:
            tracer.install()
        else:
            timers = RouteTimers(clock)
            timers.install()
        ops, ctx = workloads.build(workload, seed, tmp, grid)
        setup_end = clock.mark()
        if mode == "setup":
            # let the clock take the probes that normalise the set-up time
            time.sleep((MIN_PROBES + 1) * PROBE_INTERVAL_S)
        else:
            if tracer is not None:
                setup_layers = {name: tracer.stat(name)[1]
                                for name in SETUP_LAYERS}
                tracer.reset()
            results, marks, errors = run_ops(ops, clock, tracer)
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        clock.stop()

    out = {"setup_s": clock.normalised((spawned, 0), setup_end)}
    if mode == "setup":
        return out
    out["peak_rss_mb"] = peak_rss_mb
    out["labels"] = [op.label for op in ops]
    out["raw_times"] = {k: clock.net(*m) for k, m in marks.items()}
    if tracer is not None:
        # copied before the checks add to the statistics
        out["setup_layers"] = setup_layers
        out["spans"] = {k: list(v) for k, v in tracer.spans.items()}
        out["counts"] = dict(tracer.counts)
    else:
        out["times"] = {k: clock.normalised(*m) for k, m in marks.items()}
        out["routes"] = timers.per_op(marks, clock.normalised)
    out["digests"], out["failed"] = verdicts(workload, ctx, results, errors,
                                             full)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GRIDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("timed", "traced", "setup"),
                    required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--check", choices=("cheap", "full"), default="cheap")
    ap.add_argument("--tmp", required=True)
    args = ap.parse_args(argv)
    out = measure_once(args.workload, args.seed, args.mode, args.spawned,
                       args.tmp, args.check == "full")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
