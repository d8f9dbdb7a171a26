"""The rotvec benchmark: one workload, one seed, one line of metrics.

Run from the repository root:

    python3 perfbench/run.py --workload batch-search --seed 1 --seconds 15 --trace 0

Every operation is a JSON config generated from the seed (``workloads.py``)
and passed to ``rotvec.run(config, out_dir=...)``, the path ``rotvec run``
takes; the program sees nothing else. Operations run one at a time in this
process (a closed loop with one client), with one BLAS thread.

``--trace 0`` times whole passes over the workload's operations with tracing
off, at least two and until ``--seconds`` have elapsed, and reports the
end-to-end metrics. ``--trace 1`` runs pass 0 once traced and once
untraced and reports the per-layer metrics of the traced pass; it does a fixed
amount of work whatever ``--seconds`` says, so its counts repeat exactly.

Every operation's output is checked (``workloads.check``). The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it carries the details (per-slot
latencies, layer self times, the environment).
"""

import os
import time

T_START = time.perf_counter()
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS  # before numpy is loaded

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
MAX_PASSES = 16          # distinct passes generated; later passes repeat them
MIN_PASSES = 2
PROBE_TIMEOUT_S = 120


def import_rotvec():
    """Import rotvec from this checkout's sources, never from site-packages."""
    if not (SRC / "rotvec" / "__init__.py").is_file():
        sys.exit(f"perfbench: no rotvec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rotvec
    if Path(rotvec.__file__).resolve().parent != SRC / "rotvec":
        sys.exit(f"perfbench: imported rotvec from {rotvec.__file__}, not {SRC}")
    return rotvec


def set_up(rotvec, workload, seed):
    """Generate every pass's configs and validate them."""
    passes = [workloads.make_pass(workload, seed, k) for k in range(MAX_PASSES)]
    for ops in passes:
        for op in ops:
            rotvec.validate_config(op["config"])
    return passes


def setup_times(workload, seed):
    """Set-up time (import, generation, validation) of fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            sys.exit(f"perfbench: set-up failed with exit code {done.returncode}")
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def run_op(rotvec, op):
    """Run, time and check one operation: (seconds, errors, orbit work, warnings)."""
    shutil.rmtree(WORK, ignore_errors=True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            report = rotvec.run(op["config"], out_dir=WORK)
        except Exception as exc:  # a raising operation counts as failed; the run goes on
            elapsed = time.perf_counter() - start
            traceback.print_exc()
            return elapsed, [f"raised {exc!r}"], 0, len(caught)
        elapsed = time.perf_counter() - start
    quadrature = sum(issubclass(w.category, rotvec.QuadratureWarning) for w in caught)
    errors = workloads.check(op, report, WORK)
    work = 0 if errors else workloads.orbit_work(op, report, WORK)
    shutil.rmtree(WORK, ignore_errors=True)
    for message in errors:
        print(f"perfbench: {op['kind']} failed: {message}", file=sys.stderr)
    return elapsed, errors, work, quadrature


class Tally:
    """Latencies and orbit work per slot, and failures over attempts."""

    def __init__(self, n_slots):
        self.latency = [[] for _ in range(n_slots)]
        self.work = [[] for _ in range(n_slots)]
        self.attempted = 0
        self.failed = 0
        self.quadrature_warnings = 0

    def add(self, slot, result):
        elapsed, errors, work, quadrature = result
        self.attempted += 1
        self.failed += bool(errors)
        self.latency[slot].append(elapsed)
        self.work[slot].append(work)
        self.quadrature_warnings += quadrature

    def run_pass(self, rotvec, ops):
        for slot, op in enumerate(ops):
            self.add(slot, run_op(rotvec, op))
        return sum(self.latency[slot][-1] for slot in range(len(ops)))


def end_to_end(rotvec, passes, seconds, workload, seed):
    """Whole passes with tracing off, at least MIN_PASSES and until ``seconds``."""
    setup = setup_times(workload, seed)
    tally = Tally(len(passes[0]))
    pass_walls = []
    start = time.perf_counter()
    while len(pass_walls) < MIN_PASSES or time.perf_counter() - start < seconds:
        pass_walls.append(tally.run_pass(rotvec, passes[len(pass_walls) % len(passes)]))
    slot_median = [statistics.median(lat) for lat in tally.latency]
    wall = statistics.median(pass_walls)
    work = sum(statistics.median(w) for w in tally.work)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "op_p50_s": (statistics.median(slot_median), "s"),
        "op_max_s": (max(slot_median), "s"),
        "orbit_steps_per_s": (work / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {"setup_samples_s": setup, "pass_walls_s": pass_walls,
              "slot_kinds": [op["kind"] for op in passes[0]],
              "slot_median_s": slot_median,
              "measured_s": time.perf_counter() - start}
    return tally, metrics, detail


def traced(rotvec, workload, seed):
    """Pass 0 traced, then untraced; per-layer metrics of the traced pass."""
    tracer = Tracer(rotvec)
    tracer.install()
    try:
        passes = set_up(rotvec, workload, seed)
        validate_s = tracer.incl["experiments.validate_config"]
        tracer.reset()
        tally = Tally(len(passes[0]))
        traced_wall = tally.run_pass(rotvec, passes[0])
        quadrature = tally.quadrature_warnings
    finally:
        tracer.uninstall()
    untraced_wall = tally.run_pass(rotvec, passes[0])
    layer_metrics = tracer.metrics()
    metrics = {"experiments.validate_s": (validate_s, "s")}
    metrics.update(layer_metrics)
    metrics["suspension.quadrature_warnings"] = (quadrature, "count")
    metrics["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
    detail = {"traced_wall_s": traced_wall, "untraced_wall_s": untraced_wall,
              "layer_self_s": tracer.layer_self_times(),
              "slot_kinds": [op["kind"] for op in passes[0]],
              "slot_traced_s": [lat[0] for lat in tally.latency]}
    return tally, metrics, detail


def environment():
    """Context for reading the numbers (not metrics)."""
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lines = sum(len(p.read_text().splitlines()) for p in (SRC / "rotvec").glob("*.py"))
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(BLAS_THREADS), "src_rotvec_lines": lines}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        set_up(import_rotvec(), args.workload, args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - T_START}))
        return 0

    if args.trace:
        rotvec = import_rotvec()
        tally, metrics, detail = traced(rotvec, args.workload, args.seed)
    else:
        rotvec = import_rotvec()
        passes = set_up(rotvec, args.workload, args.seed)
        tally, metrics, detail = end_to_end(rotvec, passes, args.seconds,
                                            args.workload, args.seed)
    shutil.rmtree(WORK, ignore_errors=True)
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  fail_frac=tally.failed / tally.attempted, environment=environment())
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
