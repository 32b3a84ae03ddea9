"""Property checks on benchmark outputs.

Each check returns a list of failure messages; an empty list means the
output has every property the method guarantees. The checks read the
scan CSV the program wrote and rebuild a ``DefectScan`` from it through
the public ``cyglue.gluing`` types, so nothing is compared against stored
output.
"""

from __future__ import annotations

import csv
import io
import math

# Volume error of the link rule at each level: sum of link weights over
# vol(S^5/Z_3) = pi^3/3, minus one. The neck volume the scan reports is the
# exact annulus volume times (1 + this error).
LINK_VOLUME_ERROR = {
    (2, 2, 2): -3.0434259955e-2,
    (3, 3, 3): -1.3066725036e-3,
}
NECK_VOLUME_RTOL = 1e-8
# curvature_sup * t^2 is exactly homothety invariant; rounding leaves ~1e-11
HOMOTHETY_RTOL = 1e-8
FIT_SLACK = 0.3
# Hoelder bounds hold exactly on the quadrature sums; this absorbs rounding
HOLDER_RTOL = 1e-12
HOLDER_PAIRS = (
    ("Omega_defect_l2", "Omega_defect_c0", 0.5),
    ("omega_l2", "omega_c0", 0.5),
    ("im_Omega_l2", "im_Omega_c0", 0.5),
    ("grad_omega_l12", "grad_omega_c0", 1.0 / 12.0),
)


def parse_scan_csv(text: str) -> tuple:
    """(column names, list of float rows) of a scan CSV."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ValueError("empty scan CSV")
    return tuple(rows[0]), [[float(v) for v in row] for row in rows[1:]]


def check_scan(text: str, link_level: tuple, seed: int, gl) -> list:
    """Check one scan CSV against the properties of the method.

    ``gl`` is the ``cyglue.gluing`` module of the checkout under test.
    """
    try:
        header, values = parse_scan_csv(text)
    except ValueError as err:
        return [f"unreadable scan CSV: {err}"]
    if header != tuple(gl.SCAN_COLUMNS):
        return [f"unexpected CSV header {header}"]
    if len(values) < 4:
        return [f"scan has {len(values)} rows, want at least 4"]
    failures = []
    if not all(math.isfinite(v) for row in values for v in row):
        failures.append("non-finite value in scan")
        return failures
    rows = [dict(zip(header, row)) for row in values]

    config = gl.GluingConfig(t=min(r["t"] for r in rows), seed=seed,
                             link_level=tuple(link_level))
    scan = gl.DefectScan(rows=tuple(gl.DefectRow(*row) for row in values),
                         config=config)
    verdict = gl.thm52_check(scan, config, fit_slack=FIT_SLACK)
    if not verdict.all_pass:
        failures.append("thm52_check(...).all_pass is false")
    fits = scan.fitted_exponents()
    gamma, alpha = float(verdict.gamma), float(verdict.alpha)
    c0 = fits["Omega_defect_c0"][0]
    if abs(c0 - gamma) > FIT_SLACK:
        failures.append(f"C0 slope {c0:.4f} not within {FIT_SLACK} of "
                        f"gamma {gamma:.4f}")
    l2 = fits["Omega_defect_l2"][0]
    if abs(l2 - (gamma + 3 * alpha)) > FIT_SLACK:
        failures.append(f"L2 slope {l2:.4f} not within {FIT_SLACK} of "
                        f"gamma + 3 alpha {gamma + 3 * alpha:.4f}")

    scaled = [r["curvature_sup"] * r["t"] ** 2 for r in rows]
    spread = (max(scaled) - min(scaled)) / max(scaled)
    if spread > HOMOTHETY_RTOL:
        failures.append(f"curvature_sup * t^2 varies by {spread:.3g} "
                        "relative across rows")

    rule_error = LINK_VOLUME_ERROR.get(tuple(link_level))
    if rule_error is None:
        failures.append(f"no link-rule volume error for level {link_level}")
    for r in rows:
        a, b = gl.GluingConfig(t=r["t"]).neck_bounds
        exact = (math.pi ** 3 / 3.0) * (b ** 6 - a ** 6) / 6.0
        if rule_error is not None:
            dev = r["neck_volume"] / (exact * (1.0 + rule_error)) - 1.0
            if abs(dev) > NECK_VOLUME_RTOL:
                failures.append(f"neck_volume at t={r['t']} is off the "
                                f"annulus volume by {dev:.3g} beyond the "
                                "link rule's own error")
        vol = r["neck_volume"]
        for lp, c0_name, power in HOLDER_PAIRS:
            bound = vol ** power * r[c0_name] * (1.0 + HOLDER_RTOL)
            if r[lp] > bound:
                failures.append(f"Hoelder bound {lp} <= vol^{power:.3g} "
                                f"{c0_name} fails at t={r['t']}")
    return failures


def check_reports(reports: dict) -> list:
    """Every suite report must pass all of its own checks."""
    failures = []
    for name, report in reports.items():
        if not report.overall_pass:
            bad = [c.name for c in report.checks if not c.passed]
            failures.append(f"{name}: failed checks {bad}")
    return failures


def check_same_csv(text: str, reference: str, what: str) -> list:
    return [] if text == reference else [f"scan.csv differs from {what}"]
