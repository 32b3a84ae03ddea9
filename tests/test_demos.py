"""Smoke tests that run the scripts under demos/ as a user would."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

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
    assert "L2 rates imply the whole ledger: True" in out
    assert "overall: True" in out
    # fitted, predicted gamma + 3 alpha and required kappa + 3 of the L2 column
    row = re.search(r"Omega_defect_l2\s+(\S+)\s+(\S+)\s+(\S+)", out)
    assert row and row.group(2) == "3.600" and row.group(3) == "3.600"


def test_flat_model_forms_demo_is_exact():
    proc = run_demo("01_flat_model_forms.py")
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    norm2 = float(re.search(r"\|omega\|\^2 = (\S+)", out).group(1))
    assert abs(norm2 - 3.0) < 1e-12
    for label in (r"deviation from identity:", r"\|\*phi - chi\| =",
                  r"\|psi\| ="):
        assert float(re.search(label + r" (\S+)", out).group(1)) < 1e-12


def test_structure_recovery_demo_defects_shrink_linearly():
    proc = run_demo("02_structure_recovery.py")
    assert proc.returncode == 0, proc.stderr
    rows = np.array([[float(v) for v in line.split()] for line in
                     re.findall(r"^\s+1e-0\d\s.*$", proc.stdout, re.M)])
    assert rows.shape == (4, 5)
    # each defect is O(delta): ten times smaller per decade of delta
    ratios = rows[:-1, 1:] / rows[1:, 1:]
    assert np.all((ratios > 8.0) & (ratios < 12.0))
    assert "within tolerance: True True" in proc.stdout


def test_cone_scaling_laws_demo_shows_second_order_residuals():
    proc = run_demo("03_cone_scaling_laws.py")
    assert proc.returncode == 0, proc.stderr
    devs = re.findall(r"dilation t=\S+: .* = (\S+), .* = (\S+)", proc.stdout)
    assert len(devs) == 3
    assert max(float(d) for pair in devs for d in pair) < 1e-12
    ratios = [float(r) for r in
              re.findall(r"^\s+L[XZ]_\w+\s+\S+\s+\S+\s+(\S+)$",
                         proc.stdout, re.M)]
    # halving h quarters each inexact residual; the exact law prints nan
    assert len(ratios) == 4
    assert sum(np.isnan(ratios)) == 1
    assert all(abs(r - 4.0) < 0.2 for r in ratios if not np.isnan(r))


def test_resolved_model_decay_demo_is_ricci_flat_with_rate_minus_six():
    proc = run_demo("04_resolved_model_decay.py")
    assert proc.returncode == 0, proc.stderr
    ricci = [float(v) for v in re.findall(r"^\s+[\d.]+\s+(\S+e-\d+)$",
                                          proc.stdout.split("|g - g_cone|")[0],
                                          re.M)]
    assert len(ricci) == 5
    assert max(ricci) < 1e-7
    slope = float(re.search(r"fitted decay exponent: (\S+)",
                            proc.stdout).group(1))
    assert abs(slope + 6.0) < 0.3
