"""End-to-end acceptance run: nine numbered criteria, one verdict line each.

Each test performs its whole criterion inside a wall-clock budget and
records a single pass/fail line; the conftest hook replays the lines as a
summary block after the run. Criteria 4-7 run the checks of the CLI
suites cone-verify, ale-verify, moser and glue-scan, so each check and
its tolerance is written once, in cyglue.cli; the others check against
oracle tables, exact arithmetic or a rerun. Tolerances are the committed
ones and must not be loosened. A frozen-row regression guard shares the scan
fixture so numeric drift in the full configuration fails loudly, and every
value of the full scan and of criterion 9's scan is compared with the
reference CSV files under tests/data.
"""

import csv
import time
from pathlib import Path

import numpy as np
import pytest

from cyglue import cli, gluing as gl
from cyglue.forms import KForm, LinearMap, MetricTensor, hodge_star, pullback
from cyglue.g2 import metric_from_phi, torsion_psi
from cyglue.su3 import recover_su3

import oracles as oc
from conftest import ACCEPTANCE_LINES

PHI0 = oc.to_kform(oc.PHI0, 7, 3)
STAR_PHI0 = oc.to_kform(oc.STAR_PHI0, 7, 4)
OM0 = oc.to_kform(oc.FLAT_OMEGA0, 6, 2)
RE0 = oc.to_kform(oc.FLAT_RE_OMEGA0, 6, 3)
IM0 = oc.to_kform(oc.FLAT_IM_OMEGA0, 6, 3)
OMEGA0 = RE0 + 1j * IM0

J0 = np.zeros((6, 6))
for _k in range(3):
    J0[2 * _k + 1, 2 * _k] = 1.0
    J0[2 * _k, 2 * _k + 1] = -1.0

SCAN_TS = (0.4, 0.283, 0.2, 0.141, 0.1)
C9_CONFIG = gl.GluingConfig(t=0.1, n_radial=2, link_level=(2, 2, 2),
                            n_sup_dirs=4)
C9_TS = (0.4, 0.25, 0.16, 0.1)

DATA = Path(__file__).parent / "data"
# a refactor may move scan values by rounding only; the largest move a
# reordered sum has caused is 4.3e-16 relative
REFERENCE_RTOL = 1e-12


def _verdict(num, label, ok, elapsed, budget, detail):
    within = budget is None or elapsed < budget
    status = "pass" if (ok and within) else "FAIL"
    stamp = f"{elapsed:.1f}s" + (f" / {budget:.0f}s" if budget else "")
    line = f"criterion {num} {status}  {label}: {detail}  [{stamp}]"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line
    assert within, line


def _suite_verdict(num, label, checks, elapsed, budget):
    """Criterion verdict from the check records of a CLI suite."""
    detail = ", ".join(
        f"{c.name} "
        + ("not finite" if c.measured is None else f"{c.measured:.4g}")
        + (f" (want {c.predicted:.4g})" if c.predicted else "")
        for c in checks)
    # the criteria hold each measured deviation strictly below its
    # tolerance, where the suite's own check allows equality; a check
    # without a finite measurement has not passed
    ok = all(c.passed and (c.tolerance == 0.0
                           or abs(c.measured - c.predicted) < c.tolerance)
             for c in checks)
    _verdict(num, label, ok, elapsed, budget, detail)


def _fit(x, y):
    return float(np.polyfit(np.log(np.asarray(x, float)),
                            np.log(np.asarray(y, float)), 1)[0])


@pytest.fixture(scope="module")
def full_scan():
    config = gl.GluingConfig(t=min(SCAN_TS))
    start = time.perf_counter()
    scan = gl.defect_scan(config, SCAN_TS)
    return config, scan, time.perf_counter() - start


def test_c1_g2_algebra_exactness():
    start = time.perf_counter()
    g = metric_from_phi(PHI0)
    dev_metric = float(np.max(np.abs(g.components - np.eye(7))))
    star = hodge_star(MetricTensor(7, np.eye(7)), PHI0)
    dev_star = float(np.max(np.abs(star.coeffs - STAR_PHI0.coeffs)))
    elapsed = time.perf_counter() - start
    ok = dev_metric <= 1e-12 and dev_star <= 1e-12
    _verdict(1, "three-form algebra exact on the flat model", ok, elapsed,
             1.0, f"|g-g0|={dev_metric:.2e}, |*phi-chi0|={dev_star:.2e}")


def test_c2_su3_recovery_and_equivariance():
    start = time.perf_counter()
    st, rep = recover_su3(OM0, OMEGA0)
    flat_dev = max(
        float(np.max(np.abs(st.f - 1.0))),
        float(np.max(np.abs(st.g_M.components - np.eye(6)))),
        float(np.max(rep.defect_theta2)), float(np.max(rep.defect_omega20)),
        float(np.max(rep.defect_normalization)),
        float(np.max(rep.f_deviation)))

    rng = np.random.default_rng(42)
    L = np.eye(6) + 0.2 * rng.standard_normal((200, 6, 6))
    L[np.linalg.det(L) < 0, :, 0] *= -1.0
    lm = LinearMap(L)
    st_b, _ = recover_su3(pullback(lm, OM0), pullback(lm, OMEGA0))
    J_want = np.linalg.inv(L) @ J0 @ L
    g_want = np.swapaxes(L, -1, -2) @ L
    equiv_dev = max(
        float(np.max(np.abs(np.asarray(st_b.J_prime.matrix) - J_want))),
        float(np.max(np.abs(st_b.g_M.components - g_want))),
        float(np.max(np.abs(st_b.f - 1.0))))
    elapsed = time.perf_counter() - start
    ok = flat_dev < 1e-10 and equiv_dev < 1e-8
    _verdict(2, "structure recovery exact and equivariant", ok, elapsed,
             10.0, f"flat defects {flat_dev:.2e}, "
                   f"200-map conjugation dev {equiv_dev:.2e}")


def test_c3_torsion_vanishing_and_linear_growth():
    start = time.perf_counter()
    exact = float(np.max(torsion_psi(OM0, OMEGA0).psi_norm))

    rng = np.random.default_rng(36)
    d2 = rng.standard_normal(15)
    d3 = rng.standard_normal(20)
    deltas = np.logspace(-1, -4, 7)
    psi, bound = [], []
    for delta in deltas:
        om = KForm(6, 2, OM0.coeffs + delta * d2)
        Om = KForm(6, 3, RE0.coeffs + 1j * (IM0.coeffs + delta * d3))
        st, rep = recover_su3(om, Om)
        psi.append(float(torsion_psi(om, Om).psi_norm))
        bound.append(float(rep.defect_omega20 ** 2 + rep.defect_omega20
                           + rep.defect_theta2
                           + np.abs(st.f ** (1 / 3) - 1)))
    psi, bound = np.array(psi), np.array(bound)
    c2_fit = float(np.max(psi / bound))
    linear = deltas <= 1e-2
    slope = _fit(deltas[linear], psi[linear])
    elapsed = time.perf_counter() - start
    ok = (exact <= 1e-11 and np.isfinite(c2_fit) and 0.0 < c2_fit < 50.0
          and np.all(psi <= c2_fit * bound * (1 + 1e-12))
          and abs(slope - 1.0) < 0.15)
    _verdict(3, "torsion vanishes exactly and grows linearly", ok, elapsed,
             30.0, f"|psi|={exact:.2e}, ladder slope {slope:.3f}, "
                   f"fitted C2 {c2_fit:.2f}")


def test_c4_cone_identities():
    report = cli.run(cli.RunConfig(command="cone-verify"))
    _suite_verdict(4, "cone homogeneity, Lie derivatives, dilation",
                   report.checks, report.wall_time_s, 60.0)


def test_c5_ale_ricci_and_decay():
    report = cli.run(cli.RunConfig(command="ale-verify", seed=3))
    _suite_verdict(5, "resolved model Ricci-flat with rate -6",
                   report.checks, report.wall_time_s, 300.0)


def test_c6_moser_flow():
    report = cli.run(cli.RunConfig(command="moser"))
    _suite_verdict(6, "radial flow reaches the model form", report.checks,
                   report.wall_time_s, 120.0)


def test_c7_gluing_defect_scaling(full_scan):
    config, scan, scan_time = full_scan
    start = time.perf_counter()
    checks, _ = cli.glue_scan_checks(scan, config, fit_slack=0.3)
    elapsed = scan_time + time.perf_counter() - start
    _suite_verdict(7, "neck defects scale at the predicted rates", checks,
                   elapsed, 1200.0)


# frozen on the default configuration; drift means the numerics changed
REFERENCE_ROW_T01 = {
    "Omega_defect_c0": 8.710087e-02,
    "Omega_defect_l2": 5.124849e-04,
    "omega_c0": 2.643866e-03,
    "omega_l2": 6.901860e-05,
    "im_Omega_c0": 4.687189e-03,
    "im_Omega_l2": 1.411189e-04,
    "grad_omega_c0": 1.621834e-01,
    "grad_omega_l12": 6.456456e-02,
    "grad_omega_t_l12": 1.387046e+00,
    "grad_re_Omega_l12": 2.396994e+00,
    "hess_omega_c0": 5.189476e+00,
    "neck_volume": 1.720397e-03,
    "curvature_sup": 4.179037e+02,
}


def test_frozen_reference_row(full_scan):
    _, scan, _ = full_scan
    row = scan.rows[-1]
    assert row.t == 0.1
    for name, want in REFERENCE_ROW_T01.items():
        assert getattr(row, name) == pytest.approx(want, rel=1e-6), name


# the derivative columns of the t = 0.1 row as Richardson limits of the
# central-difference stencil they once came from, at steps h, h/2 and h/4;
# the exact gradients must land on them
DERIVATIVE_LIMITS_T01 = {
    "grad_omega_c0": 0.162183386,
    "grad_omega_l12": 0.0645645644,
    "grad_omega_t_l12": 1.38704500,
    "grad_re_Omega_l12": 2.39699218,
    "hess_omega_c0": 5.18947610,
}


def test_derivative_columns_sit_on_their_step_limits(full_scan):
    _, scan, _ = full_scan
    row = scan.rows[-1]
    for name, want in DERIVATIVE_LIMITS_T01.items():
        assert getattr(row, name) == pytest.approx(want, rel=1e-7), name


def _assert_matches_reference(scan, name):
    """Every value of scan within REFERENCE_RTOL of the reference CSV; a
    failure names each moved column with its largest relative move."""
    with open(DATA / name, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert tuple(header) == gl.SCAN_COLUMNS
    want = np.array(rows, float)
    got = np.array([row.values() for row in scan.rows])
    assert got.shape == want.shape
    moved = np.max(np.abs(got - want) / np.abs(want), axis=0)
    bad = {c: float(m) for c, m in zip(header, moved)
           if not m <= REFERENCE_RTOL}
    assert not bad, bad


def test_scans_match_reference(full_scan):
    _, scan, _ = full_scan
    _assert_matches_reference(scan, "scan_default.csv")
    _assert_matches_reference(gl.defect_scan(C9_CONFIG, C9_TS),
                              "scan_c9.csv")


def test_c8_exact_inequality_implication():
    start = time.perf_counter()
    sampled = oc.l2_implies_ledger_on_draws(100, seed=0)
    proved = gl.thm52_check(None, gl.GluingConfig(t=0.1)).implication_pass
    elapsed = time.perf_counter() - start
    _verdict(8, "volume-weighted rates imply the whole ledger",
             sampled and proved, elapsed, 1.0,
             "100 exact rational trials agree with the proof")


def test_c9_scan_determinism(tmp_path):
    start = time.perf_counter()
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    gl.defect_scan(C9_CONFIG, C9_TS).to_csv(first)
    gl.defect_scan(C9_CONFIG, C9_TS, workers=2).to_csv(second)
    elapsed = time.perf_counter() - start
    ok = first.read_bytes() == second.read_bytes()
    _verdict(9, "repeated scans byte-identical", ok, elapsed, None,
             f"{first.stat().st_size} bytes each")
