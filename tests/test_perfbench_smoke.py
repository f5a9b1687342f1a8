"""Keeps the benchmark harness runnable: ``perfbench/run.py --smoke`` runs
every workload on tiny inputs, traced and untraced, and checks the RK4
error and unitarity, the quadrature residuals and that each layer a
workload is meant to exercise reports work."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_ok():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip().splitlines()[-1] == "smoke: ok"
