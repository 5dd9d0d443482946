"""Write golden.json: the digests of every op's result on the default seed.

    python3 perfbench/make_golden.py

Run from the root of a checkout whose outputs are known to be right; the
exact checks must pass on every op, or nothing is written.
"""

import json
import os
import shutil
import sys
import time

import run


def main():
    tmp = os.path.join(".bench_tmp", "golden")
    os.makedirs(tmp, exist_ok=True)
    golden = {"seed": run.DEFAULT_SEED}
    try:
        for workload in run.WORKLOADS:
            w = run.spawn(workload, run.DEFAULT_SEED, "timed", tmp,
                          time.monotonic() + run.DEADLINE_S, "full")
            if w is None or w["failed"]:
                print(f"{workload}: checks failed, golden.json not written: "
                      f"{w and w['failed']}", file=sys.stderr)
                return 1
            golden[workload] = w["digests"]
    finally:
        shutil.rmtree(".bench_tmp", ignore_errors=True)
    with open(run.GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
