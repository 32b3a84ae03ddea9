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


def test_neck_defect_scan_demo_reports_the_ledger():
    proc = run_demo("06_neck_defect_scan.py")
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    assert "kappa = 0.6" in out
    assert "exact inequality ledger: 10 of 10 hold" in out
    assert "(100 exact rational draws)" in out
    assert "overall: True" in out
    # fitted, predicted gamma + 3 alpha and required kappa + 3 of the L2 column
    row = re.search(r"Omega_defect_l2\s+(\S+)\s+(\S+)\s+(\S+)", out)
    assert row and row.group(2) == "3.600" and row.group(3) == "3.600"
