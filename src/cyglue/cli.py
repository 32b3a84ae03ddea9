"""Configuration-driven batch runner emitting machine-readable reports.

Commands: pointwise (flat-model identity suite), cone-verify (homogeneity,
Lie derivative and dilation laws), ale-verify (Ricci residual and decay
exponent of the resolved model), moser (radial flow for a synthetic closed
perturbation), glue-scan (neck defect scan plus the exponent ledger),
thm52 (exact rational ledger only), list-geometries (registry catalogue).

A run reads one JSON config document, applies command-line overrides for
top-level scalar fields, executes the suite, prints one line per check,
and writes ``report.json`` (plus ``scan.csv`` for glue-scan) into the
output directory. A RunConfig checks and normalises its values when it
is built, so one made in Python obeys the same rules as a config file.

Report schema, version 1: command, config echo, seed, package version,
wall time, one record per check carrying (name, measured, predicted,
tolerance, pass), fitted constants, command extras, and the overall
verdict as the conjunction of the checks. The report is strict JSON: a
non-finite number is written as null, and a check whose measurement is
not finite fails. glue-scan's extras carry each row's wall time
(row_wall_s), which never enters scan.csv; a scan whose neck recovery
raises NotStable or NotPositive writes no scan.csv, and its report holds
a failed neck_recovery check and extras["error"] with the exception's
type, message and sample_index. A moser run whose flow raises Degenerate
or DomainEscape reports a failed moser_flow check and extras["error"]
in the same way. Exit status is 0 when every check
passes, 1 when some check fails, 2 for an invalid configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, cones as cn, g2, gluing as gl, su3
from . import analysis as an
from . import moser as mo
from .errors import (ConfigInvalid, Degenerate, DomainEscape,
                     NotPositive, NotStable)
from .forms import KForm, hodge_star, pullback, wedge

SCHEMA_VERSION = 1

GEOMETRIES = {
    "flat_c3": ("cone", cn.flat_c3_cone),
    "c3_mod_z3": ("cone", cn.quotient_cone_z3),
    "calabi_ale_o3": ("ac", cn.calabi_ale_o3),
    "t6_z3_patch": ("conical", lambda: cn.t6_z3_orbifold_patch(0)),
}

# declared type of each config key; lists hold elements of that type
_CONFIG_TYPES = {
    "command": str, "geometry": str, "nu": float, "lam": float,
    "alpha": float, "t_list": float, "amplitude": float, "steps": int,
    "n_radial": int, "link_level": int, "n_sup_dirs": int,
    "fit_slack": float, "seed": int, "workers": int, "out": str,
}
_LIST_KEYS = ("t_list", "link_level")
_OPTIONAL_KEYS = ("geometry", "nu", "alpha")
# the suites that read geometry; every other one has its geometry built in
_GEOMETRY_COMMANDS = ("cone-verify", "moser")
# sizes, counts, scan values and the conical rate; every entry of a list
# must be positive
_POSITIVE_KEYS = ("t_list", "steps", "n_radial", "link_level", "n_sup_dirs",
                  "workers", "nu")


@dataclass(frozen=True)
class RunConfig:
    """Parameters of one batch run. Construction checks every value and
    turns lists into tuples and ints into floats for float keys, so a
    RunConfig that exists is valid, however it was built; an invalid one
    raises ConfigInvalid."""

    command: str
    geometry: Optional[str] = None
    nu: Optional[float] = None
    lam: float = -6.0
    alpha: Optional[float] = None
    t_list: tuple = (0.4, 0.283, 0.2, 0.141, 0.1)
    amplitude: float = 0.003
    steps: int = 64
    n_radial: int = 6
    link_level: tuple = (4, 4, 4)
    n_sup_dirs: int = 12
    fit_slack: float = 0.3
    seed: int = 0
    workers: int = 1
    out: str = "."

    def __post_init__(self):
        for key, kind in _CONFIG_TYPES.items():
            value = getattr(self, key)
            if value is None and key in _OPTIONAL_KEYS:
                continue
            is_list = key in _LIST_KEYS
            if is_list != isinstance(value, (list, tuple)):
                raise ConfigInvalid(f"{key} must {'' if is_list else 'not '}"
                                    f"be a list, got {value!r}")
            accepted = (int, float) if kind is float else kind
            items = value if is_list else [value]
            # bool is an int subclass, but true/false is no number here
            if any(isinstance(v, bool) or not isinstance(v, accepted)
                   for v in items):
                raise ConfigInvalid(
                    f"{key} must hold {kind.__name__} values, got {value!r}")
            try:
                object.__setattr__(self, key, tuple(map(kind, value))
                                   if is_list else kind(value))
            except OverflowError:  # an int too large for a float
                raise ConfigInvalid(f"{key} must be finite, got {value!r}")
            if kind is float and not all(math.isfinite(v) for v in items):
                raise ConfigInvalid(f"{key} must be finite, got {value!r}")
            if key in _POSITIVE_KEYS and not all(v > 0 for v in items):
                raise ConfigInvalid(f"{key} must be positive, got {value!r}")
            if key in ("fit_slack", "seed") and value < 0:
                raise ConfigInvalid(f"{key} must be nonnegative, got "
                                    f"{value!r}")
            if key == "link_level" and len(value) != 3:
                raise ConfigInvalid(f"link_level must hold three node counts "
                                    f"(n_rho, n_ang, n_psi), got {value!r}")
        if self.command not in COMMANDS:
            raise ConfigInvalid(f"unknown command {self.command!r}")
        if self.geometry is None:
            return
        if self.command not in _GEOMETRY_COMMANDS:
            raise ConfigInvalid(f"geometry is read only by "
                                f"{' and '.join(_GEOMETRY_COMMANDS)}, not by "
                                f"{self.command}")
        cones = sorted(n for n, (kind, _) in GEOMETRIES.items()
                       if kind == "cone")
        if self.geometry not in cones:
            raise ConfigInvalid(f"geometry must name a cone, one of {cones}, "
                                f"got {self.geometry!r}")


@dataclass(frozen=True)
class CheckRecord:
    """One check; ``measured`` is None when the measurement is not finite,
    and such a check fails."""

    name: str
    measured: Optional[float]
    predicted: float
    tolerance: float
    passed: bool


@dataclass
class RunReport:
    """Everything one run produced, serialized as report.json."""

    command: str
    config: dict
    seed: int
    version: str = __version__
    schema_version: int = SCHEMA_VERSION
    wall_time_s: float = 0.0
    checks: list = field(default_factory=list)
    fitted: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks)


def _check(checks: list, name: str, measured, predicted, tolerance):
    m = float(measured)
    finite = bool(np.isfinite(m))
    ok = finite and abs(m - float(predicted)) <= tolerance
    checks.append(CheckRecord(name, m if finite else None, float(predicted),
                              float(tolerance), ok))


def _error_record(err) -> dict:
    """The report entry of a sample error that ended a suite."""
    return {"type": type(err).__name__, "message": str(err),
            "sample_index": err.sample_index}


def _cone_from(config: RunConfig, default: str) -> cn.ConeGeometry:
    return GEOMETRIES[config.geometry or default][1]()


# ---------------------------------------------------------------------------
# suites

def _run_pointwise(config: RunConfig, report: RunReport):
    s = cn.flat_c3_cone().fields_at(np.zeros(6))
    om, Om = s.omega, s.Omega
    phi, chi = g2.build_phi_chi(om, Om.real(), Om.imag())
    g7 = g2.metric_from_phi(phi)
    _check(report.checks, "g2_metric_is_euclidean",
           np.max(np.abs(g7.components - np.eye(7))), 0.0, 1e-12)
    _check(report.checks, "g2_four_form_is_dual",
           np.max(np.abs(hodge_star(g7, phi).coeffs - chi.coeffs)),
           0.0, 1e-12)

    struct, rec = su3.recover_su3(om, Om)
    _check(report.checks, "su3_conformal_factor",
           np.max(np.abs(struct.f - 1.0)), 0.0, 1e-10)
    _check(report.checks, "su3_metric_is_euclidean",
           np.max(np.abs(struct.g_M.components - np.eye(6))), 0.0, 1e-10)
    defect = max(np.max(rec.defect_theta2), np.max(rec.defect_omega20),
                 np.max(rec.defect_normalization), np.max(rec.f_deviation))
    _check(report.checks, "su3_defects", defect, 0.0, 1e-10)

    ts = g2.torsion_psi(om, Om)
    _check(report.checks, "torsion_psi_vanishes",
           np.max(ts.psi_norm), 0.0, 1e-11)


def _run_cone_verify(config: RunConfig, report: RunReport):
    cone = _cone_from(config, "c3_mod_z3")
    s = cone.fields_at(np.zeros(6))
    for c in (0.5, 2.0):
        L = cn.complex_dilation(cone, c, 0.0)
        _check(report.checks, f"omega_homogeneity_t{c}",
               np.max(np.abs(pullback(L, s.omega).coeffs
                             - c ** 2 * s.omega.coeffs)), 0.0, 1e-12)
        _check(report.checks, f"Omega_homogeneity_t{c}",
               np.max(np.abs(pullback(L, s.Omega).coeffs
                             - c ** 3 * s.Omega.coeffs)), 0.0, 1e-12)

    ratios = []
    for sel in ("LX_omega", "LX_Omega", "LZ_omega", "LZ_Omega"):
        res = cn.lie_derivative_check(cone, sel, h=1e-3, seed=config.seed)
        _check(report.checks, f"lie_{sel}", res, 0.0, 1e-4)
        if res > 1e-12:
            res2 = cn.lie_derivative_check(cone, sel, h=2e-3,
                                           seed=config.seed)
            ratios.append(res2 / res)
    # central differences: doubling h must quadruple the residual
    _check(report.checks, "lie_fd_quadratic_order",
           max(abs(r - 4.0) for r in ratios), 0.0, 0.3)
    report.fitted["lie_step_ratios"] = ratios

    L = cn.complex_dilation(cone, 2.0, np.pi / 3.0)
    _check(report.checks, "dilation_omega_factor_4",
           np.max(np.abs(pullback(L, s.omega).coeffs
                         - 4.0 * s.omega.coeffs)), 0.0, 1e-9)
    _check(report.checks, "dilation_Omega_factor_minus_8",
           np.max(np.abs(pullback(L, s.Omega).coeffs
                         + 8.0 * s.Omega.coeffs)), 0.0, 1e-9)


def _run_ale_verify(config: RunConfig, report: RunReport):
    ale = cn.calabi_ale_o3()
    dirs = an.unit_directions(3, config.seed)

    def extended(x):
        return ale.log_det_h(x, extended=True)

    worst = 0.0
    for r0 in (0.1, 0.3, 1.0, 3.0, 10.0):
        out = an.kahler_ricci(extended, r0 * dirs)
        worst = max(worst, float(np.max(np.abs(out))))
    _check(report.checks, "ricci_residual", worst, 0.0, 1e-7)

    radii = 1.3 * 2.0 ** np.arange(6)
    devs = [float(np.max(np.abs(
        ale.metric_on_target(r * dirs).components - np.eye(6))))
        for r in radii]
    slope = float(np.polyfit(np.log(radii), np.log(devs), 1)[0])
    _check(report.checks, "metric_decay_exponent", slope, -6.0, 0.3)
    report.fitted["metric_decay"] = {"radii": radii.tolist(),
                                     "deviations": devs, "slope": slope}


def _synthetic_closed_two_form(nu: float, seed: int):
    """eta = 0.3 d(r^w beta) with w = nu + 2 and beta = d(xhat . c) for a
    seeded unit vector c, so |eta| grows at rate nu.

    eta is evaluated in closed form. d beta = 0, and
    dr ^ beta = (y ^ c) / r^2 because xhat ^ xhat = 0, so
    eta = 0.3 w r^(w - 3) (y ^ c). The coefficients of y ^ c are one
    product y @ Y with the (6, 15) matrix Y of the map y -> y ^ c, whose
    row i is e_i ^ c, built once with the field.
    """
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(6)
    c /= np.linalg.norm(c)
    w = nu + 2.0
    Y = wedge(KForm(6, 1, np.eye(6)), KForm(6, 1, c)).coeffs

    def eta(y):
        y = np.asarray(y, float)
        r = np.linalg.norm(y, axis=-1)
        return KForm(6, 2, (y @ Y) * (0.3 * w * r ** (w - 3.0))[..., None])

    return eta, w


def _run_moser(config: RunConfig, report: RunReport):
    cone = _cone_from(config, "flat_c3")
    nu = 3.0 if config.nu is None else config.nu
    eta, _ = _synthetic_closed_two_form(nu, config.seed)
    results = {}
    try:
        for steps in (8, 16, config.steps):
            results[steps] = mo.moser_integrate(
                cone, eta, nu, (0.1, 0.6), steps=steps, n_dirs=6,
                n_radii=4, seed=config.seed, fd_h=1e-4)
    except (Degenerate, DomainEscape) as err:
        # no chart to measure: the report records the failed flow instead
        _check(report.checks, "moser_flow", 0.0, 1.0, 0.0)
        report.extras["error"] = _error_record(err)
        return
    final = results[config.steps]
    _check(report.checks, "pullback_residual",
           final.pullback_residual, 0.0, 1e-6)
    _check(report.checks, "step_order_ratio",
           results[8].pullback_residual / results[16].pullback_residual,
           16.0, 6.0)
    _check(report.checks, "domain_intact", final.halvings, 0.0, 0.0)
    report.fitted["residuals"] = {
        str(k): v.pullback_residual for k, v in results.items()}
    report.extras["shrunk_domain"] = list(final.shrunk_domain)


def _glue_config(config: RunConfig) -> gl.GluingConfig:
    return gl.GluingConfig(
        t=min(config.t_list), nu=2.0 if config.nu is None else config.nu,
        lam=config.lam, alpha=config.alpha,
        conical_amplitude=config.amplitude, n_radial=config.n_radial,
        link_level=tuple(config.link_level), n_sup_dirs=config.n_sup_dirs,
        seed=config.seed)


def glue_scan_checks(scan: gl.DefectScan, template: gl.GluingConfig,
                     fit_slack: float):
    """The glue-scan suite's checks on a finished scan.

    Returns the check records and the Theorem 5.2 verdict they read, so
    a report can carry the verdict's fits and constants without
    recomputing them.
    """
    verdict = gl.thm52_check(scan, template, fit_slack=fit_slack)
    checks = []
    for name, column in (("c0_defect_exponent", "Omega_defect_c0"),
                         ("l2_defect_exponent", "Omega_defect_l2")):
        m = verdict.measured[column]
        _check(checks, name, m["fitted"], m["predicted"], fit_slack)
    _check(checks, "curvature_exponent",
           verdict.fits["curvature_sup"][0], -2.0, fit_slack)
    _ledger_checks(checks, verdict)
    return checks, verdict


def _ledger_checks(checks: list, verdict: gl.Thm52Verdict):
    """The exact ledger, the measured rates (when a scan was fitted) and
    the implication check of a Theorem 5.2 verdict."""
    _check(checks, "exact_ledger",
           float(all(verdict.exact.values())), 1.0, 0.0)
    if verdict.measured:
        _check(checks, "measured_rates_dominate_ledger",
               float(all(m["pass"] for m in verdict.measured.values())),
               1.0, 0.0)
    _check(checks, "l2_implies_remaining_inequalities",
           float(verdict.implication_pass), 1.0, 0.0)


def _ledger_extras(verdict: gl.Thm52Verdict) -> dict:
    return {"alpha": str(verdict.alpha), "kappa": str(verdict.kappa),
            "gamma": str(verdict.gamma),
            "ledger": {k: bool(v) for k, v in verdict.exact.items()}}


def _run_glue_scan(config: RunConfig, report: RunReport):
    template = _glue_config(config)
    try:
        scan = gl.defect_scan(template, config.t_list,
                              workers=config.workers)
    except (NotStable, NotPositive) as err:
        # no row to fit: the report records the failed recovery instead
        _check(report.checks, "neck_recovery", 0.0, 1.0, 0.0)
        report.extras["error"] = _error_record(err)
        return
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "scan.csv"
    scan.to_csv(csv_path)

    checks, verdict = glue_scan_checks(scan, template, config.fit_slack)
    report.checks.extend(checks)
    report.fitted.update({name: None if f is None
                          else {"slope": f[0], "max_log_residual": f[1]}
                          for name, f in verdict.fits.items()})
    report.extras.update({
        "csv_path": str(csv_path),
        "rows": len(scan.rows),
        "row_wall_s": list(scan.row_wall_s),
        **_ledger_extras(verdict),
        # not measured: scaling a metric by t^2 scales geodesics by t
        "injectivity_radius": "t * delta(g_Y) by homothety; no numerical "
                              "geodesic search is performed",
    })


def _run_thm52(config: RunConfig, report: RunReport):
    template = _glue_config(config)
    verdict = gl.thm52_check(None, template, fit_slack=config.fit_slack)
    nu = Fraction(template.nu).limit_denominator(10 ** 9)
    # the ledger must run at the neck exponent asked for, else the default
    predicted_alpha = (config.alpha if config.alpha is not None
                       else (6 + nu) / (2 * (3 + nu)))
    _check(report.checks, "alpha", float(verdict.alpha),
           float(predicted_alpha), 1e-12)
    _check(report.checks, "kappa_positive", float(verdict.kappa > 0),
           1.0, 0.0)
    _ledger_checks(report.checks, verdict)
    report.extras.update(_ledger_extras(verdict))


def list_geometries() -> list:
    """Catalogue of registered geometries with rates and parameters."""
    out = []
    for name, (kind, build) in sorted(GEOMETRIES.items()):
        entry = {"name": name, "kind": kind}
        obj = build()
        if kind in ("cone", "ac"):
            entry.update(obj.descriptor())
        else:
            entry.update({"rate": "configurable",
                          "note": "synthetic conical perturbation source"})
        out.append(entry)
    return out


_SUITES = {
    "pointwise": _run_pointwise,
    "cone-verify": _run_cone_verify,
    "ale-verify": _run_ale_verify,
    "moser": _run_moser,
    "glue-scan": _run_glue_scan,
    "thm52": _run_thm52,
}
COMMANDS = (*_SUITES, "list-geometries")


def run(config: RunConfig) -> RunReport:
    """Execute the named suite and return its report."""
    if config.command not in _SUITES:
        raise ConfigInvalid(f"{config.command} has no suite to run")
    report = RunReport(command=config.command, config=asdict(config),
                       seed=config.seed)
    start = time.perf_counter()
    _SUITES[config.command](config, report)
    report.wall_time_s = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# config plumbing

def load_config(path: Optional[str], overrides: dict) -> RunConfig:
    """Read the JSON document at path (none when None), merge the overrides
    that are not None and build the RunConfig, which checks the values."""
    data = {}
    if path is not None:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as err:
            raise ConfigInvalid(f"cannot read config file {path}: "
                                f"{err.strerror}")
        except ValueError as err:  # JSONDecodeError, UnicodeDecodeError
            raise ConfigInvalid(f"config file {path} is not valid JSON: "
                                f"{err}")
        if not isinstance(data, dict):
            raise ConfigInvalid(f"config file {path} must hold a JSON "
                                f"object, got {type(data).__name__}")
    data.update((k, v) for k, v in overrides.items() if v is not None)
    unknown = set(data) - set(_CONFIG_TYPES)
    if unknown:
        raise ConfigInvalid(f"unknown config keys: {sorted(unknown)}")
    if "command" not in data:
        raise ConfigInvalid("no command given (argument or config file)")
    return RunConfig(**data)


def _finite(obj):
    """obj with numpy arrays and scalars as Python values, fractions as
    strings and every non-finite number replaced by None: strict JSON has
    no NaN or Infinity."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, float):
        return obj if np.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj


def write_report(report: RunReport, out_dir: str) -> Path:
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    payload = asdict(report)
    payload["overall_pass"] = report.overall_pass
    target = path / "report.json"
    with open(target, "w") as fh:
        json.dump(_finite(payload), fh, indent=2, allow_nan=False)
        fh.write("\n")
    return target


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cyglue",
        description="verification suites and gluing scans, batch mode")
    p.add_argument("command", nargs="?", choices=COMMANDS,
                   help="suite to run (may also come from --config)")
    p.add_argument("--config", metavar="PATH",
                   help="JSON config document")
    p.add_argument("--out", metavar="DIR",
                   help="output directory for report.json and scan.csv")
    p.add_argument("--workers", type=int, metavar="N",
                   help="thread workers for scan rows")
    p.add_argument("--seed", type=int, metavar="U64",
                   help="seed recorded in the report")
    p.add_argument("--geometry", choices=sorted(GEOMETRIES),
                   help="cone of cone-verify and moser")
    p.add_argument("--nu", type=float, help="conical data rate")
    p.add_argument("--lam", type=float, help="AC decay rate")
    p.add_argument("--alpha", type=float, help="neck exponent override")
    p.add_argument("--t-list", dest="t_list",
                   help="comma-separated scan values of t")
    p.add_argument("--amplitude", type=float,
                   help="synthetic conical perturbation amplitude")
    p.add_argument("--steps", type=int, help="flow steps for moser")
    p.add_argument("--fit-slack", dest="fit_slack", type=float,
                   help="allowed deviation of fitted exponents")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {k: v for k, v in vars(args).items() if k != "config"}
    try:
        if args.t_list is not None:
            try:
                overrides["t_list"] = [float(v)
                                       for v in args.t_list.split(",")]
            except ValueError:
                raise ConfigInvalid(f"t_list must be comma-separated "
                                    f"numbers, got {args.t_list!r}")
        config = load_config(args.config, overrides)
        if config.command == "list-geometries":
            text = json.dumps(list_geometries(), indent=2)
            print(text)
            if args.out is not None:
                out = Path(args.out)
                out.mkdir(parents=True, exist_ok=True)
                (out / "geometries.json").write_text(text + "\n")
            return 0
        report = run(config)
    except ConfigInvalid as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    target = write_report(report, config.out)
    for c in report.checks:
        verdict = "pass" if c.passed else "FAIL"
        measured = ("not finite" if c.measured is None
                    else f"{c.measured:.6g}")
        print(f"{verdict}  {c.name}: measured {measured} "
              f"(predicted {c.predicted:.6g}, tolerance {c.tolerance:g})")
    print(f"report: {target}")
    print("overall:", "PASS" if report.overall_pass else "FAIL")
    return 0 if report.overall_pass else 1


if __name__ == "__main__":
    sys.exit(main())
