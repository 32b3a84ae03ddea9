"""Gluing an asymptotically conical resolution into a conical degeneration.

The resolved space is scaled by t and matched to the conical chart over a
neck annulus (t^a, 2t^a) where a cutoff interpolates between the two exact
holomorphic volume forms. Everything here works in the shared flat cone
chart: the conical side contributes a correction primitive A, the AC side
contributes B, and the glued 3-form is

    Omega_t = Omega_V + d[F A + (1 - F) B_t],   B_t(x) = t^3 (x/t)^* B,

which is closed by construction and reduces to the pure branches where the
cutoff is locked at 0 or 1. The Kaehler form equals the cone form on the
neck in Darboux-matched charts, so every defect of the glued structure is
carried by Omega_t alone and measured against the cone metric.

Scan rows collect neck norms of the defect, of the structure recovered
from Omega_t, and of its first two derivatives, then fit t-exponents and
compare them with the rational inequality ledger that the existence
argument needs.
"""

from __future__ import annotations

import csv
import io
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import su3
from .analysis import (central_differences, region_norms, riemann_ricci,
                       shell_grid, unit_directions)
from .cones import (FLAT_OMEGA, FLAT_OMEGA3, ACGeometry, ConeGeometry,
                    SyntheticPerturbation, calabi_ale_o3, hermitian_to_omega,
                    quotient_cone_z3, t6_z3_orbifold_patch)
from .errors import ConfigInvalid, RateOutOfRange
from .forms import KForm, MetricTensor, lower_tensor_norm

__all__ = [
    "GluingConfig", "GluedStructure", "NeckReport",
    "DefectRow", "DefectScan", "Thm52Verdict",
    "cutoff_F", "cutoff_F_prime", "build_glued",
    "nearly_cy_on_neck", "defect_scan", "thm52_check",
    "exponent_implication_check", "SCAN_COLUMNS",
]


def default_alpha(nu: float) -> float:
    """Neck exponent making the volume-weighted ladder close: (6+nu)/(2(3+nu))."""
    return 0.5 * (6.0 + nu) / (3.0 + nu)


# the outer chart scale eps (1 in model units) and the resolved-side chart
# radius R of GluingConfig's admissibility check
_EPS = 1.0
_R = 1.1


@dataclass(frozen=True)
class GluingConfig:
    """Parameters of one glued family member.

    t scales the resolved space, alpha places the neck at (t^alpha,
    2 t^alpha), nu is the conical data rate, lam the AC rate.
    Admissibility demands t R < t^alpha < 2 t^alpha < eps for the chart
    constants R = _R and eps = _EPS. conical_amplitude scales the
    synthetic conical perturbation used by the default scan geometry.
    """

    t: float
    nu: float = 2.0
    lam: float = -6.0
    alpha: Optional[float] = None
    conical_amplitude: float = 0.003
    n_radial: int = 6
    link_level: tuple = (4, 4, 4)
    n_sup_dirs: int = 12
    seed: int = 0

    def __post_init__(self):
        if self.nu <= 0:
            raise ConfigInvalid("conical rate nu must be positive")
        if self.alpha is None:
            object.__setattr__(self, "alpha", default_alpha(self.nu))
        if self.t <= 0:
            raise ConfigInvalid("t must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigInvalid("alpha must lie in (0, 1)")
        if self.lam >= -3.0:
            raise ConfigInvalid("AC rate lam must be below -3")
        ta = self.t ** self.alpha
        if not self.t * _R < ta:
            raise ConfigInvalid(
                f"inner seam violated: t R = {self.t * _R:.4g} must be "
                f"below t^alpha = {ta:.4g}")
        if not 2.0 * ta < _EPS:
            raise ConfigInvalid(
                f"outer seam violated: 2 t^alpha = {2 * ta:.4g} must be "
                f"below eps = {_EPS:.4g}")

    @property
    def neck_bounds(self) -> tuple:
        ta = self.t ** self.alpha
        return (ta, 2.0 * ta)

    @property
    def kappa(self) -> float:
        return float(_exact_rates(self)[3])

    @property
    def gamma(self) -> float:
        """Predicted C0 neck-defect exponent."""
        return float(_exact_rates(self)[4])


# ---------------------------------------------------------------------------
# cutoff

def _bump(x):
    x = np.asarray(x, float)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = np.exp(-1.0 / x[pos])
    return out


def _bump_prime(x):
    x = np.asarray(x, float)
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = np.exp(-1.0 / x[pos]) / x[pos] ** 2
    return out


def cutoff_F(s):
    """Smooth monotone transition: exactly 0 for s <= 1, exactly 1 for s >= 2."""
    s = np.asarray(s, float)
    p = _bump(s - 1.0)
    q = _bump(2.0 - s)
    return p / (p + q)


def cutoff_F_prime(s):
    """Derivative of cutoff_F, exact (vanishing to all orders at 1 and 2)."""
    s = np.asarray(s, float)
    p, q = _bump(s - 1.0), _bump(2.0 - s)
    pp, qp = _bump_prime(s - 1.0), -_bump_prime(2.0 - s)
    return (pp * q - p * qp) / (p + q) ** 2


# ---------------------------------------------------------------------------
# glued structure

@dataclass(frozen=True)
class GluedStructure:
    """Evaluators of the glued pair over the shared cone chart.

    Valid for t * resolution_scale < r < eps. The Kaehler form is the cone
    form at and outside the neck (Darboux-matched charts) and the scaled
    AC form in the resolved-side raw chart; the holomorphic volume form
    follows the single cutoff formula everywhere, hitting the pure conical
    branch where F = 1 and the pure AC branch where F = 0. perturbation
    is None for the unperturbed conical side, whose A vanishes.
    """

    config: GluingConfig
    cone: ConeGeometry
    ac: ACGeometry
    perturbation: Optional[SyntheticPerturbation]

    def _radii(self, x):
        x = np.asarray(x, float)
        r = np.linalg.norm(x, axis=-1)
        t = self.config.t
        if np.any(r <= t * self.ac.resolution_scale):
            raise ConfigInvalid(
                "sample inside the resolved core; the shared chart starts "
                f"at r = {t * self.ac.resolution_scale:.4g}")
        if np.any(r >= _EPS):
            raise ConfigInvalid("sample outside the outer chart scale eps")
        return x, r

    def region(self, x) -> np.ndarray:
        """Tag samples as resolved side "P", overlap "neck", or cone side "Q"."""
        x, r = self._radii(x)
        lo, hi = self.config.neck_bounds
        return np.where(r < lo, "P", np.where(r > hi, "Q", "neck"))

    def Omega_t(self, x) -> KForm:
        x, r = self._radii(x)
        t, alpha = self.config.t, self.config.alpha
        s = r * t ** (-alpha)
        F = cutoff_F(s)
        Fp = cutoff_F_prime(s)
        if self.perturbation is None:
            dA = dr_A = 0.0
        else:
            dA, dr_A = self.perturbation.correction_terms(x, r)
        # |x/t| is taken afresh, as Omega_p takes it, not rounded from r / t
        dB, dr_B = self.ac.correction_terms(x / t)
        out = (FLAT_OMEGA3.coeffs
               + F[..., None] * dA
               + (1.0 - F)[..., None] * dB)
        if np.any(Fp != 0.0):
            # dr ^ (A - B_t), B_t(x) = t B(x/t); dr is the same at x and x/t
            seam = dr_A - t * dr_B
            out = out + (Fp * t ** (-alpha))[..., None] * seam
        return KForm(6, 3, out)

    def Omega_q(self, x) -> KForm:
        """Pure cone-side branch Omega_V + dA."""
        x, _ = self._radii(x)
        if self.perturbation is None:
            return KForm(6, 3, np.broadcast_to(FLAT_OMEGA3.coeffs,
                                               x.shape[:-1] + (20,)))
        return KForm(6, 3, FLAT_OMEGA3.coeffs + self.perturbation.dA(x).coeffs)

    def Omega_p(self, x) -> KForm:
        """Pure resolved-side branch Omega_V + dB_t."""
        x, _ = self._radii(x)
        return KForm(6, 3, FLAT_OMEGA3.coeffs
                     + self.ac.correction_dB(x / self.config.t).coeffs)

    def omega_t(self, x) -> KForm:
        x, r = self._radii(x)
        lo = self.config.neck_bounds[0]
        flat = self.cone.fields_at(x).omega.coeffs
        inner = r < lo
        if not np.any(inner):
            return KForm(6, 2, flat)
        ale = hermitian_to_omega(self.ac.hermitian_at(x / self.config.t))
        return KForm(6, 2, np.where(inner[..., None], ale.coeffs, flat))

    def metric_t(self, x) -> MetricTensor:
        x, r = self._radii(x)
        lo = self.config.neck_bounds[0]
        comp = np.broadcast_to(np.eye(6), x.shape[:-1] + (6, 6)).copy()
        inner = r < lo
        if np.any(inner):
            ale = self.ac.metric_on_target(x / self.config.t).components
            comp = np.where(inner[..., None, None], ale, comp)
        return MetricTensor(6, comp, _checked=True)


def build_glued(config: GluingConfig, cone: ConeGeometry, ac: ACGeometry,
                perturbation=None) -> GluedStructure:
    """Validate the pairing and wire up the glued evaluators.

    The conical side contributes the primitive A of perturbation, with
    dA = (conical chart)^*(Omega_0) - Omega_V; without a perturbation A is
    zero, as for the unperturbed flat patch. The AC side contributes B =
    ac.correction_B with dB = (AC chart)^*(Omega_Y) - Omega_V. Each side's
    correction_terms gives the coefficients of its exact differential and
    of its seam partner dr ^ A (or dr ^ B), sharing one |x| and one radial
    product.

    Refused: an AC rate not below -3 (RateOutOfRange: the glued volume
    form defect would not decay), an AC space modelled on a different
    cone, and a perturbation whose rate disagrees with config.nu
    (ConfigInvalid).
    """
    if ac.rate >= -3.0:
        raise RateOutOfRange(
            f"AC rate {ac.rate} is not below -3; the glued volume form "
            "defect would not decay")
    if ac.modelled_cone.descriptor() != cone.descriptor():
        raise ConfigInvalid("AC space is modelled on a different cone")
    if perturbation is not None and perturbation.nu != config.nu:
        raise ConfigInvalid("perturbation rate disagrees with config")
    return GluedStructure(config=config, cone=cone, ac=ac,
                          perturbation=perturbation)


def _standard_geometry(config: GluingConfig):
    cone = quotient_cone_z3()
    ac = calabi_ale_o3()
    pert = None
    if config.conical_amplitude != 0.0:
        patch = t6_z3_orbifold_patch(0)
        pert = patch.synthetic_perturbation(
            config.nu, config.conical_amplitude, seed=config.seed)
    return cone, ac, pert


# ---------------------------------------------------------------------------
# recovery on the neck

def _sup_grid(config: GluingConfig):
    return shell_grid(*config.neck_bounds, config.n_sup_dirs, 4, config.seed)


@dataclass(frozen=True)
class NeckReport:
    """Aggregated recovery defects over a neck sample set."""

    t: float
    n_samples: int
    max_defect_theta2: float
    max_defect_omega20: float
    max_defect_normalization: float
    max_f_deviation: float
    stable: bool
    within_eps0: bool


def nearly_cy_on_neck(glued: GluedStructure, eps0: float = 0.2) -> NeckReport:
    """Run the pointwise structure recovery at the neck sup grid and
    aggregate.

    Raises NotStable or NotPositive with the offending sample attached
    when t is not small enough for the glued form to stay in the stable
    range.
    """
    x = _sup_grid(glued.config)
    om = glued.cone.fields_at(x).omega
    Om = glued.Omega_t(x)
    _, report = su3.recover_su3(om, Om, eps0=eps0)
    return NeckReport(
        t=glued.config.t,
        n_samples=int(np.prod(x.shape[:-1])),
        max_defect_theta2=float(np.max(report.defect_theta2)),
        max_defect_omega20=float(np.max(report.defect_omega20)),
        max_defect_normalization=float(np.max(report.defect_normalization)),
        max_f_deviation=float(np.max(report.f_deviation)),
        stable=report.stable,
        within_eps0=report.within_eps0,
    )


# ---------------------------------------------------------------------------
# defect scan

@dataclass(frozen=True)
class DefectRow:
    t: float
    Omega_defect_c0: float
    Omega_defect_l2: float
    omega_c0: float
    omega_l2: float
    im_Omega_c0: float
    im_Omega_l2: float
    grad_omega_c0: float
    grad_omega_l12: float
    grad_omega_t_l12: float
    grad_re_Omega_l12: float
    hess_omega_c0: float
    neck_volume: float
    curvature_sup: float

    def values(self) -> tuple:
        return tuple(getattr(self, name) for name in SCAN_COLUMNS)


SCAN_COLUMNS = tuple(f.name for f in fields(DefectRow))

# the scan columns read off region_norms: (neck field, norm, ledger family)
_NORM_COLUMNS = {
    "Omega_defect_c0": ("Omega_defect", "c0", "c0"),
    "Omega_defect_l2": ("Omega_defect", "l2", "l2"),
    "omega_c0": ("omega", "c0", "c0"),
    "omega_l2": ("omega", "l2", "l2"),
    "im_Omega_c0": ("im_Omega", "c0", "c0"),
    "im_Omega_l2": ("im_Omega", "l2", "l2"),
    "grad_omega_c0": ("grad_omega", "c0", "grad"),
    "grad_omega_l12": ("grad_omega", "l12", "l12"),
    "grad_omega_t_l12": ("grad_metric", "l12", "l12"),
    "grad_re_Omega_l12": ("grad_re_Omega", "l12", "l12"),
}


@dataclass(frozen=True)
class DefectScan:
    """Neck norm ladder, one row per t, t strictly decreasing."""

    rows: tuple
    config: GluingConfig

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(row, name) for row in self.rows])

    def fitted_exponents(self) -> dict:
        """Least-squares exponent of each column on (log t, log value).

        Columns that vanish identically (below 1e-14) are reported as None;
        they dominate any required rate trivially.
        """
        t = self.column("t")
        out = {}
        for name in SCAN_COLUMNS[1:]:
            v = self.column(name)
            if np.all(np.abs(v) < 1e-14):
                out[name] = None
                continue
            slope, intercept = np.polyfit(np.log(t), np.log(v), 1)
            resid = np.log(v) - (slope * np.log(t) + intercept)
            out[name] = (float(slope), float(np.max(np.abs(resid))))
        return out

    def to_csv(self, path=None) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(SCAN_COLUMNS)
        for row in self.rows:
            writer.writerow(["%.17g" % v for v in row.values()])
        text = buf.getvalue()
        if path is not None:
            with open(path, "w", newline="") as fh:
                fh.write(text)
        return text


def _curvature_sup(ac: ACGeometry, seed: int = 0) -> float:
    """C1 = sup |Riem(g_Y)| over resolved-model samples y = r_y v, with
    r_y in {1.3, 1.7} and 6 seeded unit directions v.

    The glued metric on the resolved side is the homothety t^2 g_Y, so its
    curvature sup at the samples x = t y is C1 / t^2.
    """
    r_y = np.array([1.3, 1.7])
    pts = (r_y[:, None, None] * unit_directions(6, seed)[None]).reshape(-1, 6)
    riem, _ = riemann_ricci(ac.metric_on_target, pts)
    g = ac.metric_on_target(pts)
    low = np.einsum("...lm,...mkij->...lkij", g.components, riem)
    return float(np.max(lower_tensor_norm(g, low, 4)))


def _recovered(glued: GluedStructure, y, nbatch: int):
    """Omega_t at the points y and its recovery against the cone's Kaehler
    form. A sample that is not stable or not positive raises, named by
    its last nbatch indices: its node in a batch of that many axes, with
    any stacked shift axes in front dropped."""
    Om = glued.Omega_t(y).coeffs
    out = su3._recover_batch(FLAT_OMEGA.coeffs, Om)
    su3._raise_failures(out, nbatch)
    return Om, out


def _neck_gradients(glued: GluedStructure, x) -> dict:
    """The scan's gradient fields at the nodes x, from Omega_t and the
    recovery at the 12 shifts x +- local_step(x) e_i only, which
    central_differences stacks into calls of at most _BLOCK points. On the
    flat cone chart gradients are central differences of coefficients, a
    k-form's scaled by sqrt(k!) to give the norm of its full tensor."""
    nbatch = np.ndim(x) - 1

    def differentiated(y):
        Om, out = _recovered(glued, y, nbatch)
        return {"grad_omega": np.sqrt(2.0) * out["omega_prime"],
                "grad_metric": out["g"],
                "grad_re_Omega": np.sqrt(6.0) * np.real(Om)}

    return central_differences(differentiated, x)


def _neck_fields(glued: GluedStructure, x) -> dict:
    """Every pointwise neck defect of a scan row at the nodes x.

    Omega_t and the recovery run once at x and once at each of its 12
    shifts (_neck_gradients). A sample that fails the recovery raises
    NotStable or NotPositive whose sample_index names its node in x.
    """
    Om, out = _recovered(glued, x, np.ndim(x) - 1)
    return {
        "Omega_defect": KForm(6, 3, Om - FLAT_OMEGA3.coeffs),
        "omega": KForm(6, 2, out["omega_prime"] - FLAT_OMEGA.coeffs),
        "im_Omega": KForm(6, 3, np.imag(Om) - out["theta2_prime"]),
        **_neck_gradients(glued, x),
    }


def _scan_row(config: GluingConfig, cone: ConeGeometry, ac: ACGeometry,
              perturbation, curvature_c1: float) -> DefectRow:
    glued = build_glued(config, cone, ac, perturbation)
    norms = region_norms(lambda x: _neck_fields(glued, x), cone,
                         config.neck_bounds, config.n_radial, config.link_level)
    sup_pts = _sup_grid(config)
    # the outer stencil reads grad_omega at its shifts only, so the sup
    # points themselves are never recovered
    hess = central_differences(
        lambda y: _neck_gradients(glued, y)["grad_omega"], sup_pts)
    hess_c0 = float(np.max(np.sqrt(np.sum(hess ** 2, axis=(1, 2, 3)))))
    return DefectRow(
        t=config.t,
        **{name: getattr(norms[neck], norm)
           for name, (neck, norm, _) in _NORM_COLUMNS.items()},
        hess_omega_c0=hess_c0,
        neck_volume=norms["Omega_defect"].volume,
        curvature_sup=curvature_c1 / config.t ** 2,
    )


def defect_scan(config_template: GluingConfig, t_list: Sequence[float],
                workers: int = 1) -> DefectScan:
    """One DefectRow per t, largest t first, on the standard geometry.

    Needs at least 4 values spanning at least 2 octaves, each admissible
    for the template. The resolved-side curvature C1 = sup |Riem(g_Y)| is
    evaluated once, before any row; each row reports C1 / t^2. Rows are
    computed independently (optionally in a thread pool) and assembled in
    deterministic order.
    """
    ts = sorted({float(t) for t in t_list}, reverse=True)
    if len(ts) < 4:
        raise ConfigInvalid("need at least 4 scan values of t")
    if ts[0] / ts[-1] < 4.0:
        raise ConfigInvalid("scan must span at least 2 octaves in t")
    configs = [replace(config_template, t=t) for t in ts]
    cone, ac, pert = _standard_geometry(config_template)
    c1 = _curvature_sup(ac, seed=config_template.seed)

    def job(cfg):
        return _scan_row(cfg, cone, ac, pert, c1)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = tuple(pool.map(job, configs))
    else:
        rows = tuple(job(cfg) for cfg in configs)
    return DefectScan(rows=rows, config=config_template)


# ---------------------------------------------------------------------------
# exact exponent ledger

def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x).limit_denominator(10 ** 9)


# Theorem 5.2's norm families and their offsets c: every inequality of the
# ledger reads c alpha + (branch rate) >= c + kappa, so a column's required
# rate is kappa + c and its predicted rate gamma + c alpha.
_FAMILY_OFFSETS = {"c0": Fraction(0), "l2": Fraction(3),
                   "l12": Fraction(-1, 2), "grad": Fraction(-1),
                   "hess": Fraction(-2)}

# the family of each measured scan column
_MEASURED_REQUIREMENTS = {
    **{name: family for name, (_, _, family) in _NORM_COLUMNS.items()},
    "hess_omega_c0": "hess"}

_IMPLICATION_TRIALS = 100


def _branch_rates(nu: Fraction, lam: Fraction, alpha: Fraction) -> dict:
    """C0 rates of the two neck-defect terms: the AC term decays at
    -lam(1 - alpha), the conical term at alpha nu."""
    return {"ac": -lam * (1 - alpha), "conical": alpha * nu}


def _exact_rates(config: GluingConfig) -> tuple:
    """(nu, lam, alpha, kappa, gamma) as exact fractions: kappa is the rate
    the deformation argument needs, gamma the predicted C0 neck exponent,
    the slower of the two branch rates."""
    nu, lam = _as_fraction(config.nu), _as_fraction(config.lam)
    alpha = _as_fraction(config.alpha)
    kappa = min((1 - alpha) * (-3 - lam), nu / 2)
    gamma = min(_branch_rates(nu, lam, alpha).values())
    return nu, lam, alpha, kappa, gamma


def _ledger_inequalities(nu: Fraction, lam: Fraction, alpha: Fraction,
                         kappa: Fraction) -> dict:
    """The ten exact inequalities the deformation argument needs, keyed
    <family>_<branch>: c alpha + (branch rate) >= c + kappa for every
    family offset c and both branches."""
    rates = _branch_rates(nu, lam, alpha)
    return {f"{family}_{branch}": c * alpha + g >= c + kappa
            for family, c in _FAMILY_OFFSETS.items()
            for branch, g in rates.items()}


def exponent_implication_check(n_trials: int = 100, seed: int = 0) -> bool:
    """The volume-weighted family implies the whole ledger when alpha <= 1.

    Draws random admissible rational (nu, lam, alpha), takes kappa as the
    exact slack of the L2 family, and checks the other eight inequalities
    in exact arithmetic. Returns True only if every trial passes.
    """
    rng = random.Random(seed)
    c = _FAMILY_OFFSETS["l2"]
    for _ in range(n_trials):
        nu = Fraction(rng.randint(1, 120), rng.randint(1, 12))
        lam = -3 - Fraction(rng.randint(1, 120), rng.randint(1, 12))
        alpha = Fraction(rng.randint(1, 99), 100)
        kappa = min(c * alpha + g - c
                    for g in _branch_rates(nu, lam, alpha).values())
        led = _ledger_inequalities(nu, lam, alpha, kappa)
        assert led["l2_ac"] and led["l2_conical"]
        if not all(led.values()):
            return False
    return True


@dataclass(frozen=True)
class Thm52Verdict:
    """Exact and measured exponent ledger for one scan.

    fits holds the scan's fitted_exponents() (empty without a scan), so
    readers of the verdict need not fit the scan again.
    """

    alpha: Fraction
    kappa: Fraction
    gamma: Fraction
    exact: dict
    implication_trials: int
    implication_pass: bool
    measured: dict = field(default_factory=dict)
    fits: dict = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        ok = all(self.exact.values()) and self.implication_pass
        return ok and all(m["pass"] for m in self.measured.values())


def thm52_check(scan: Optional[DefectScan], config: GluingConfig,
                fit_slack: float = 0.3) -> Thm52Verdict:
    """Check the exact inequality ledger and, when a scan is given, that
    every fitted exponent dominates its required rate within fit_slack.

    The ledger (verdict.exact) holds c alpha + g >= c + kappa for each
    family offset c of _FAMILY_OFFSETS (C0 0, L2 3, L12 of a gradient
    -1/2, gradient sup -1, Hessian sup -2) and each branch rate g of
    _branch_rates, keyed <family>_<branch>. The implication check runs
    _IMPLICATION_TRIALS exact draws seeded by config.seed.

    The scan is fitted once; verdict.fits keeps the fits. Each column of
    _MEASURED_REQUIREMENTS gets a measured entry with its required rate
    kappa + c, its predicted rate gamma + c alpha (in floating point, from
    float gamma and alpha), its fitted slope and residual (None and absent
    for a column that vanishes identically, which passes), and pass.
    Failures are carried in the verdict, not raised.
    """
    nu, lam, alpha, kappa, gamma = _exact_rates(config)
    exact = _ledger_inequalities(nu, lam, alpha, kappa)
    implication = exponent_implication_check(_IMPLICATION_TRIALS,
                                             seed=config.seed)
    fits = {} if scan is None else scan.fitted_exponents()
    measured = {}
    if scan is not None:
        for name, family in _MEASURED_REQUIREMENTS.items():
            c = _FAMILY_OFFSETS[family]
            required = float(kappa + c)
            entry = {"fitted": None, "required": required,
                     "predicted": float(gamma) + float(c) * float(alpha),
                     "pass": True}
            if fits[name] is not None:
                entry["fitted"], entry["fit_residual"] = fits[name]
                entry["pass"] = entry["fitted"] >= required - fit_slack
            measured[name] = entry
    return Thm52Verdict(alpha=alpha, kappa=kappa, gamma=gamma, exact=exact,
                        implication_trials=_IMPLICATION_TRIALS,
                        implication_pass=implication, measured=measured,
                        fits=fits)
