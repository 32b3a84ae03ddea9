"""Smoke tests that run the scripts under demos/ as a user would."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)


def test_darboux_flow_demo_shows_fourth_order_drop():
    proc = run_demo("05_darboux_flow.py")
    assert proc.returncode == 0, proc.stderr
    drops = [float(d) for d in re.findall(r"\(([\d.]+)x drop\)", proc.stdout)]
    assert len(drops) == 3
    # halving the step from 8 to 16 cuts the residual about sixteenfold
    assert drops[0] > 10.0
