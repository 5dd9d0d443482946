"""Benchmark of the drinfeld_deuring package.

    python3 perfbench/run.py --workload {routes,sweep,graph} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from `src/`.
Each measurement is a fresh interpreter (worker.py) that sets up, runs the
workload's ops one at a time, and checks its results outside the timed
region.  The last stdout line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it record the
environment and a readable table.

--trace 0  starts timed workers, at least MIN_WORKERS and more until
           --seconds have passed, and then set-up-only workers until there
           are SETUP_SAMPLES set-up times.  Each op's time is the median over
           the workers; the end-to-end metrics are listed in E2E_METRICS.
--trace 1  starts one timed worker and one traced worker, and reports the
           per-layer metrics in LAYER_METRICS from the traced one, with the
           tracing overhead and the check that self times add up.

An op fails if it raises, if `verify` exits non-zero or reports a failed
check, if an exact check of its result fails, if its result differs between
workers, or if its digest differs from the one in golden.json (on the
default seed every op must have one; on other seeds those with one are
compared).
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from tracer import MODULES, SETUP_LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
GOLDEN = os.path.join(HERE, "golden.json")
PACKAGE_INIT = os.path.join("src", "drinfeld_deuring", "__init__.py")
WORKLOADS = tuple(workloads.GRIDS)
DEFAULT_SEED = 0

MIN_WORKERS = 3
MAX_WORKERS = 12
SETUP_SAMPLES = 7
# no new timed worker starts once this many seconds of a run have passed
BUDGET_S = 140.0
# every worker of a run is stopped this many seconds after the run starts
DEADLINE_S = 170.0

E2E_METRICS = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("h_direct_s", "s"),
    ("h_grec_s", "s"),
    ("h_universal_s", "s"),
    ("H_s", "s"),
)

ROUTE_METRICS = {"direct": "h_direct_s", "grec": "h_grec_s",
                 "universal": "h_universal_s", "H": "H_s"}

# <span>.calls|count|self_s come from the span statistics, <module>.self_s_total
# sums a module's spans, and the rest are the tracer's work counters
LAYER_METRICS = (
    "ore.mul.calls", "ore.mul.pairs", "ore.mul.self_s",
    "ore.qpow.calls", "ore.qpow.self_s", "ore.image.self_s",
    "drinfeld.direct.self_s",
    "poly.mul.calls", "poly.mul.pairs", "poly.mul.self_s",
    "poly.mul.max_degree",
    "poly.divmod.calls", "poly.divmod.pairs", "poly.divmod.self_s",
    "drinfeld.grec.self_s",
    "universal.u_sequence.calls", "universal.u_sequence.self_s",
    "drinfeld.universal.self_s",
    "drinfeld.H.self_s", "universal.U_sequence.calls",
    "universal.U_sequence.self_s", "laurent.mul.calls", "laurent.mul.self_s",
    "modulus.reduce.calls", "modulus.reduce.self_s",
    "modulus.prime.calls", "modulus.prime.self_s", "modulus.enumerate.self_s",
    "poly.irreducible.calls", "poly.irreducible.self_s",
    "poly.gcd.calls", "poly.gcd.self_s",
    "universal.key_identity.self_s", "universal.simple_roots.self_s",
    "universal.checks.self_s", "tower.identities.self_s",
    "multipoly.mul.calls", "multipoly.mul.self_s", "multipoly.mul.max_terms",
    "cli.verify.self_s", "grammar.render.calls", "grammar.render.self_s",
    "poly.roots.calls", "poly.roots.self_s",
    "poly.splitting.calls", "poly.splitting.self_s",
    "poly.eval.calls", "poly.eval.self_s", "fields.scan.elements",
    "isogeny_graph.build.self_s", "isogeny_graph.neighbors.self_s",
    "isogeny_graph.component.self_s", "isogeny_graph.ambient_degree",
    "fields.elt_ops.count", "fields.elt_ops.self_s",
    "fields.extensions.calls", "fields.extensions.self_s", "fields.max_card",
) + tuple(f"{m}.self_s_total" for m in MODULES) + (
    "bench.self_s_total",
) + tuple(f"setup.{name}.self_s" for name in SETUP_LAYERS) + (
    "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
    "trace.unattributed_s",
)


def layer_unit(name):
    if name.endswith("_s") or name.endswith("_s_total"):
        return "s"
    return "count"


def environment():
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_at_start": list(os.getloadavg()),
    }


def spawn(workload, seed, mode, tmp, deadline, check="cheap"):
    """Run one worker to completion, or stop it at the time.monotonic()
    reading `deadline`.  Returns its result, or None."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--check", check, "--tmp", tmp]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], env=env,
                              capture_output=True, text=True,
                              timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired:
        print(f"worker timed out: {' '.join(cmd)}", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"worker exited {proc.returncode}:\n{proc.stderr}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def judge(workload, seed, workers, golden):
    """Count attempted and failed ops over all workers, with the reasons."""
    expected = golden.get(workload, {})
    labels = next((w["labels"] for w in workers if w), [])
    reference = next((w["digests"] for w in workers if w), {})
    attempted = failed = 0
    reasons = {}
    for w in workers:
        if w is None:
            attempted += max(len(labels), 1)
            failed += max(len(labels), 1)
            reasons["worker"] = "a worker crashed or timed out"
            continue
        for label in w["labels"]:
            attempted += 1
            got = w["digests"].get(label)
            why = w["failed"].get(label)
            if why is None and got != reference.get(label):
                why = "result differs between workers"
            if why is None and label in expected and got != expected[label]:
                why = "digest differs from golden.json"
            if why is None and seed == DEFAULT_SEED and label not in expected:
                why = "no golden digest on the default seed"
            if why is not None:
                failed += 1
                reasons[label] = why
    return attempted, failed, reasons


def median_op_sum(workers, times):
    """Sum over ops of each op's median time across workers; `times` picks
    a worker's {label: seconds}."""
    per_op = {}
    for w in workers:
        for label, t in times(w).items():
            per_op.setdefault(label, []).append(t)
    return sum(statistics.median(ts) for ts in per_op.values())


def measure(workload, seed, seconds, tmp):
    start = time.monotonic()
    deadline = start + DEADLINE_S
    workers = []
    longest = 0.0
    while len(workers) < MIN_WORKERS or (
            time.monotonic() - start < seconds and len(workers) < MAX_WORKERS):
        if time.monotonic() - start + longest > BUDGET_S and workers:
            break
        t0 = time.monotonic()
        workers.append(spawn(workload, seed, "timed", tmp, deadline,
                             "full" if not workers else "cheap"))
        longest = max(longest, time.monotonic() - t0)
    ok = [w for w in workers if w]
    setups = [w["setup_s"] for w in ok]
    while ok and len(setups) < SETUP_SAMPLES \
            and time.monotonic() - start < BUDGET_S:
        w = spawn(workload, seed, "setup", tmp, deadline)
        if w is None:
            break
        setups.append(w["setup_s"])
    metrics = {}
    if ok:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": median_op_sum(ok, lambda w: w["times"]),
            "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in ok),
        }
        for route, metric in ROUTE_METRICS.items():
            metrics[metric] = median_op_sum(ok, lambda w: {
                label: t[route] for label, t in w["routes"].items()})
    units = dict(E2E_METRICS)
    return workers, {k: {"value": v, "unit": units[k]}
                     for k, v in metrics.items()}


def layer_metrics(traced, untraced):
    spans, counts = traced["spans"], traced["counts"]
    out = {}
    for name in LAYER_METRICS:
        span, _, stat = name.rpartition(".")
        if stat in ("calls", "count"):
            out[name] = spans.get(span, [0, 0.0])[0]
        elif stat == "self_s":
            out[name] = spans.get(span, [0, 0.0])[1]
        elif stat == "self_s_total":
            out[name] = sum(v[1] for k, v in spans.items()
                            if k.startswith(f"{span}."))
        else:
            out[name] = counts.get(name, 0)
    for name, self_s in traced["setup_layers"].items():
        out[f"setup.{name}.self_s"] = self_s
    wall = sum(traced["raw_times"].values())
    out["trace.wall_s"] = wall
    out["trace.untraced_wall_s"] = sum(untraced["raw_times"].values())
    out["trace.overhead_s"] = wall - out["trace.untraced_wall_s"]
    out["trace.unattributed_s"] = abs(wall - sum(v[1] for v in spans.values()))
    return {k: {"value": out[k], "unit": layer_unit(k)} for k in LAYER_METRICS}


def trace_run(workload, seed, tmp):
    deadline = time.monotonic() + DEADLINE_S
    untraced = spawn(workload, seed, "timed", tmp, deadline, "full")
    traced = spawn(workload, seed, "traced", tmp, deadline)
    workers = [untraced, traced]
    metrics = {}
    if untraced and traced:
        metrics = layer_metrics(traced, untraced)
    return workers, metrics


def print_table(metrics):
    for name, m in metrics.items():
        value = m["value"]
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<34} {text:>14} {m['unit']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(PACKAGE_INIT):
        print(f"error: {PACKAGE_INIT} not found; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    with open(GOLDEN) as fh:
        golden = json.load(fh)

    print("env " + json.dumps(environment(), sort_keys=True))
    tmp = os.path.join(".bench_tmp", str(os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    try:
        if args.trace:
            workers, metrics = trace_run(args.workload, args.seed, tmp)
        else:
            workers, metrics = measure(args.workload, args.seed, args.seconds,
                                       tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if os.path.isdir(".bench_tmp") and not os.listdir(".bench_tmp"):
            os.rmdir(".bench_tmp")

    attempted, failed, reasons = judge(args.workload, args.seed, workers,
                                       golden)
    correct = failed == 0 and bool(metrics)
    if args.trace and metrics:
        unattributed = metrics["trace.unattributed_s"]["value"]
        if unattributed > 1e-3 * metrics["trace.wall_s"]["value"] + 1e-3:
            reasons["trace"] = "layer self times do not add up to trace.wall_s"
            correct = False
    for label, why in sorted(reasons.items()):
        print(f"FAILED {label}: {why}")
    print(f"{args.workload} seed={args.seed} workers={len(workers)} "
          f"attempted={attempted} failed={failed} "
          f"fail_rate={failed / max(attempted, 1):.4f}")
    print_table(metrics)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
