"""Compare every run output of this checkout with those of a parent revision.

    python tools/compare_outputs.py <parent-rev> [--tol TOL]

The parent is checked out with ``git worktree`` in a temporary directory (and
removed again). Each tree then runs, in its own process and importing its own
``src``:

- every builtin experiment it lists, keeping ``report.json`` without its
  ``timing`` and every artifact;
- pass 0 of seeds 1-3 on every perfbench workload. The configs are drawn once,
  by this checkout's ``perfbench/workloads.make_pass`` (imported, not edited),
  so both trees run the same configs.

Per output file it prints "identical", or the largest absolute and the
largest relative move with its JSON path or CSV cell. It exits 1 when a
number moved by more than ``--tol`` (0 by default, so any move fails), or
when a file differs in text, structure or presence. Both trees run at once
with one BLAS thread each, for a few minutes; it is not part of the tests.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMING_KEY = "timing"  # the only part of report.json that may differ between runs
SEEDS = (1, 2, 3)  # perfbench seeds whose pass 0 is compared


def perfbench_configs():
    """[(name, config)] of pass 0 of every seed in SEEDS on every workload."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    return [(f"perfbench/{workload}/seed{seed}/{i:02d}-{op['kind']}", op["config"])
            for workload in workloads.WORKLOADS for seed in SEEDS
            for i, op in enumerate(workloads.make_pass(workload, seed, 0))]


def produce(src, out, configs_path):
    """Run the builtins of the rotvec under ``src`` and the given configs into ``out``."""
    sys.path.insert(0, src)
    import rotvec
    if not Path(rotvec.__file__).resolve().is_relative_to(Path(src).resolve()):
        sys.exit(f"imported rotvec from {rotvec.__file__}, not from {src}")
    runs = [(f"builtin/{entry['name']}", rotvec.builtin_config(entry["name"]))
            for entry in rotvec.list_experiments()]
    runs += json.loads(Path(configs_path).read_text())
    for name, config in runs:
        run_dir = Path(out) / name
        run_dir.mkdir(parents=True)
        try:
            rotvec.run(config, out_dir=run_dir)
        except Exception as exc:  # a failure is an output too
            (run_dir / "error.txt").write_text(f"{type(exc).__name__}: {exc}\n")
        report = run_dir / "report.json"
        if report.exists():
            doc = json.loads(report.read_text())
            doc.pop(TIMING_KEY, None)
            report.write_text(json.dumps(doc, sort_keys=True, indent=2))


# ---------------------------------------------------------------------------
# comparison: a move is (where, absolute, relative); inf marks a non-numeric one
# ---------------------------------------------------------------------------

def _number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _move(where, a, b):
    if _number(a) and _number(b):
        if a == b or (math.isnan(a) and math.isnan(b)):
            return []
        diff = abs(a - b)
        scale = max(abs(a), abs(b))
        return [(where, diff, diff / scale if scale else math.inf)]
    if a == b:
        return []
    return [(f"{where} ({json.dumps(a)[:40]} -> {json.dumps(b)[:40]})", math.inf, math.inf)]


def json_moves(a, b, where=""):
    if isinstance(a, dict) and isinstance(b, dict):
        return [m for key in sorted(a.keys() | b.keys())
                for m in (json_moves(a[key], b[key], f"{where}/{key}")
                          if key in a and key in b else
                          [(f"{where}/{key} (only in the {'parent' if key in a else 'change'})",
                            math.inf, math.inf)])]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [m for i, (x, y) in enumerate(zip(a, b)) for m in json_moves(x, y, f"{where}/{i}")]
    return _move(where or "/", a, b)


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text


def table_moves(a, b):
    """Moves between two CSV or whitespace tables; '#' lines and headers are text."""
    lines_a, lines_b = a.splitlines(), b.splitlines()
    if len(lines_a) != len(lines_b):
        return [(f"line count {len(lines_a)} vs {len(lines_b)}", math.inf, math.inf)]
    moves, names = [], []
    for row, (x, y) in enumerate(zip(lines_a, lines_b), start=1):
        sep = "," if "," in x else None
        cells_a, cells_b = x.lstrip("# ").split(sep), y.lstrip("# ").split(sep)
        if x.startswith("#") or not all(isinstance(_cell(c), float) for c in cells_a):
            names = cells_a  # a header names the columns below it
            moves += _move(f"line {row}", x, y)
        elif len(cells_a) != len(cells_b):
            moves.append((f"line {row}", math.inf, math.inf))
        else:
            moves += [m for col, (u, v) in enumerate(zip(cells_a, cells_b))
                      for m in _move(f"line {row}, column "
                                     f"{names[col] if col < len(names) else col + 1}",
                                     _cell(u), _cell(v))]
    return moves


def compare_file(path_a, path_b):
    """The moves from path_a to path_b (none when byte-identical)."""
    if path_a.read_bytes() == path_b.read_bytes():
        return []
    if path_a.suffix == ".json":
        return json_moves(json.loads(path_a.read_text()), json.loads(path_b.read_text()))
    return table_moves(path_a.read_text(), path_b.read_text())


def compare_trees(parent_out, change_out, tol):
    """Print one line per file; return the number of files that fail ``tol``."""
    files = sorted({p.relative_to(root) for root in (parent_out, change_out)
                    for p in root.rglob("*") if p.is_file()})
    failed = identical = 0
    for rel in files:
        a, b = parent_out / rel, change_out / rel
        if not (a.exists() and b.exists()):
            print(f"{rel}: only in the {'parent' if a.exists() else 'change'}")
            failed += 1
            continue
        moves = compare_file(a, b)
        if not moves:
            print(f"{rel}: identical")
            identical += 1
            continue
        worst_abs = max(moves, key=lambda m: m[1])
        worst_rel = max(moves, key=lambda m: m[2])
        bad = worst_abs[1] > tol
        failed += bad
        print(f"{rel}: {'MOVED' if bad else 'moved'}: {len(moves)} values, max abs "
              f"{worst_abs[1]:.3g} at {worst_abs[0]}, "
              f"max rel {worst_rel[2]:.3g} at {worst_rel[0]}")
    print(f"{len(files)} files: {identical} identical, {len(files) - identical - failed} "
          f"moved within {tol:g}, {failed} failed")
    return failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_rev", nargs="?", help="git revision to compare against")
    parser.add_argument("--tol", type=float, default=0.0,
                        help="largest absolute move that passes (default 0: none)")
    parser.add_argument("--produce", nargs=3, metavar=("SRC", "OUT", "CONFIGS"),
                        help=argparse.SUPPRESS)  # the per-tree child process
    args = parser.parse_args(argv)
    if args.produce:
        produce(*args.produce)
        return 0
    if args.parent_rev is None:
        parser.error("a parent revision is required")

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        tmp = Path(tmp)
        configs = tmp / "configs.json"
        configs.write_text(json.dumps(perfbench_configs()))
        parent_tree, out = tmp / "parent-tree", tmp / "out"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(parent_tree), args.parent_rev], check=True)
        try:
            children = [subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), "--produce",
                 str(tree / "src"), str(out / side), str(configs)], env=env, cwd=tmp)
                for side, tree in (("parent", parent_tree), ("change", ROOT))]
            if any(child.wait() for child in children):
                print("a tree's run process failed", file=sys.stderr)
                return 2
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(parent_tree)], check=False)
        return 1 if compare_trees(out / "parent", out / "change", args.tol) else 0


if __name__ == "__main__":
    sys.exit(main())
