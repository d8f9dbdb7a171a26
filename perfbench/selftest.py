"""Self-test of the benchmark itself.

Run from the repository root:

    python3 perfbench/selftest.py [workload ...]

Checks, for each workload (all by default):

1. the generator is seeded: one seed gives byte-identical configs, and every
   seed gives the same operation kinds, batches, horizons and sizes;
2. two traced runs on one seed give identical counts (every per-layer metric
   whose unit is ``count``).

Prints one line per check and exits non-zero if any fails.
"""

import json
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"
SEEDS = (0, 1, 7, 123456)
PASSES = 4
TRACE_SEED = 3


def check_generator(workload):
    reference = workloads.shape(workloads.make_pass(workload, 0, 0))
    for seed in SEEDS:
        for k in range(PASSES):
            ops = workloads.make_pass(workload, seed, k)
            again = workloads.make_pass(workload, seed, k)
            if workloads.config_bytes(ops) != workloads.config_bytes(again):
                return f"seed {seed} pass {k}: configs differ between two draws"
            if workloads.shape(ops) != reference:
                return f"seed {seed} pass {k}: sizes differ from seed 0"
    if workloads.config_bytes(workloads.make_pass(workload, 0, 0)) == \
            workloads.config_bytes(workloads.make_pass(workload, 1, 0)):
        return "seeds 0 and 1 draw the same configs"
    return None


def traced_counts(workload):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(TRACE_SEED),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=600)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"traced run of {workload} failed its checks")
    return {name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"}


def check_counts(workload):
    first, second = traced_counts(workload), traced_counts(workload)
    differ = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
    return f"counts differ: {differ}" if differ else None


def main(argv):
    names = argv or sorted(workloads.WORKLOADS)
    failures = 0
    for workload in names:
        for label, test in (("generator", check_generator), ("trace counts", check_counts)):
            problem = test(workload)
            failures += problem is not None
            print(f"{workload:15s} {label:13s} {'FAIL: ' + problem if problem else 'ok'}",
                  flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
