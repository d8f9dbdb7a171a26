import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_pb_upper_bound_demo_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / "04_pb_upper_bound.py")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
