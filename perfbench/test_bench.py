"""Tests of the benchmark itself, on tiny grids.

    python3 -m pytest perfbench/test_bench.py

Run from the root of a checkout.  They show that a wrong answer is counted
as a failed op, that the end-to-end and per-layer metrics match
BENCHMARK.json, that traced self times add up, and that the benchmark
refuses to run without the package.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import worker  # noqa: E402  (puts src/ on the path)
from drinfeld_deuring import cli, drinfeld  # noqa: E402

TINY = {"routes": ((2, 3), (3, 2)), "sweep": ((2, 2),), "graph": ((2, 2),)}
SEED = 1  # not the default seed, so tiny-grid ops need no golden digest


def judged(workload, tmp_path, seed=SEED, golden=None):
    out = worker.measure_once(workload, seed, "timed", time.monotonic(),
                              str(tmp_path), full=True, grid=TINY[workload])
    return run.judge(workload, seed, [out], golden or {})


@pytest.mark.parametrize("workload", sorted(TINY))
def test_right_answers_pass(workload, tmp_path):
    attempted, failed, reasons = judged(workload, tmp_path)
    assert attempted > 0
    assert (failed, reasons) == (0, {})


def test_perturbed_h_is_a_failed_op(tmp_path, monkeypatch):
    grec = drinfeld.deuring_h_grec
    monkeypatch.setattr(drinfeld, "deuring_h_grec",
                        lambda prime: grec(prime) + 1)
    attempted, failed, reasons = judged("routes", tmp_path)
    assert failed == len(TINY["routes"])
    assert all(label.endswith(" grec") for label in reasons)
    assert failed / attempted > 0


def test_flipped_check_row_is_a_failed_op(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "check_u_zero", lambda field, i: i != 2)
    attempted, failed, reasons = judged("sweep", tmp_path)
    assert (attempted, failed) == (1, 1)
    assert "all_pass=False" in reasons["verify q=2 max-degree=2"]


def test_golden_digest_mismatch_is_a_failed_op(tmp_path):
    label = "verify q=2 max-degree=2"
    _, failed, reasons = judged("sweep", tmp_path,
                                golden={"sweep": {label: "0" * 16}})
    assert failed == 1 and "golden" in reasons[label]
    # on the default seed every op needs a golden digest
    _, failed, reasons = judged("sweep", tmp_path, seed=run.DEFAULT_SEED)
    assert failed == 1 and "no golden digest" in reasons[label]


def test_golden_covers_every_default_op():
    with open(run.GOLDEN) as fh:
        golden = json.load(fh)
    assert golden["seed"] == run.DEFAULT_SEED
    assert len(golden["routes"]) == 4 * 5
    assert len(golden["sweep"]) == 7
    assert len(golden["graph"]) == 5 * 5


def test_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        list(run.E2E_METRICS)
    assert [m["name"] for m in bench["per_layer"]] == list(run.LAYER_METRICS)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_traced_self_times_add_up(tmp_path):
    # the tracer patches the package for good, so it runs in its own process
    code = (
        "import json, sys, time; sys.path.insert(0, sys.argv[1]); "
        "import worker; "
        "out = worker.measure_once('graph', 1, 'traced', time.monotonic(), "
        "sys.argv[2], grid=((2, 2), (3, 2))); print(json.dumps(out))"
    )
    proc = subprocess.run([sys.executable, "-c", code, HERE, str(tmp_path)],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["failed"] == {}
    wall = sum(out["raw_times"].values())
    self_sum = sum(v[1] for v in out["spans"].values())
    assert abs(wall - self_sum) <= 1e-3 * wall + 1e-3
    assert out["spans"]["poly.eval"][0] == out["counts"]["fields.scan.elements"]
    assert out["counts"]["isogeny_graph.ambient_degree"] >= 1


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "routes", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
