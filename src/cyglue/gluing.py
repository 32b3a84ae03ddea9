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
argument needs. The first derivatives are exact: Omega_t_jet gives
Omega_t and the partials of Re Omega_t, the only ones the recovery and
the norms read, in closed form from one pass, and the recovery carries
them in forward mode in its own pass (su3._recover_batch with
directions); the second derivatives are one central difference of them.
"""

from __future__ import annotations

import csv
import io
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import su3
from .analysis import (central_differences, region_norms, riemann_ricci,
                       shell_grid, unit_directions)
from .cones import (FLAT_OMEGA, FLAT_OMEGA3, ACGeometry, ConeGeometry,
                    SyntheticPerturbation, calabi_ale_o3, quotient_cone_z3,
                    t6_z3_orbifold_patch)
from .errors import ConfigInvalid, RateOutOfRange, _SampleError
from .forms import KForm, lower_tensor_norm

__all__ = [
    "GluingConfig", "GluedStructure", "NeckReport",
    "DefectRow", "DefectScan", "Thm52Verdict",
    "build_glued", "nearly_cy_on_neck", "defect_scan", "thm52_check",
    "SCAN_COLUMNS",
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

def _bump_jet(x):
    """(b, b', b'') for b(x) = exp(-1/x) where x > 0 and 0 elsewhere."""
    x = np.asarray(x, float)
    b, bp, bpp = np.zeros_like(x), np.zeros_like(x), np.zeros_like(x)
    pos = x > 0
    xp = x[pos]
    e = np.exp(-1.0 / xp)
    b[pos] = e
    bp[pos] = e / xp ** 2
    bpp[pos] = e * (1.0 - 2.0 * xp) / xp ** 4
    return b, bp, bpp


def _cutoff_jet(s):
    """(F, F', F'') of the cutoff F = p / (p + q), p = b(s - 1),
    q = b(2 - s), from one evaluation of each bump: a smooth monotone
    transition, exactly 0 for s <= 1 and exactly 1 for s >= 2, whose
    derivatives vanish to all orders at 1 and 2."""
    p, pp, ppp = _bump_jet(np.asarray(s, float) - 1.0)
    q, qp, qpp = _bump_jet(2.0 - np.asarray(s, float))
    qp = -qp
    n = p + q
    num = pp * q - p * qp
    return (p / n, num / n ** 2,
            (ppp * q - p * qpp) / n ** 2 - 2.0 * num * (pp + qp) / n ** 3)


# ---------------------------------------------------------------------------
# glued structure

@dataclass(frozen=True)
class GluedStructure:
    """Evaluators of the glued pair over the shared cone chart.

    Valid for t * resolution_scale < r < eps. Only the holomorphic volume
    form is evaluated: it follows the single cutoff formula everywhere,
    hitting the pure conical branch where F = 1 and the pure AC branch
    where F = 0. The Kaehler form on the neck is the cone form FLAT_OMEGA
    (Darboux-matched charts), and the scan measures every defect against
    it. perturbation is None for the unperturbed conical side, whose A
    vanishes.
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

    def Omega_t(self, x) -> KForm:
        return KForm(6, 3, self.Omega_t_jet(x)[0])

    def Omega_t_jet(self, x) -> tuple:
        """Coefficients of Omega_t at x, complex (..., 20), and the
        x-partials d_k Re Omega_t of their real parts at [..., k, :],
        real (..., 6, 20), k = 0..5, from one cutoff jet and one
        correction_terms of each side. With d_k s = t^-alpha xhat_k for
        the cutoff's argument s = r t^-alpha and B_t(x) = t B(x/t),

            Omega_t = Omega_V + F dA + (1 - F) dB_t
                      + F' t^-alpha dr ^ (A - B_t),
            d_k Omega_t = F d_k dA + (1 - F) t^-1 (d_k dB)(x/t)
                          + F' t^-alpha xhat_k (dA - dB_t)
                          + F'' t^-2alpha xhat_k dr ^ (A - B_t)
                          + F' t^-alpha d_k (dr ^ (A - B_t)).

        Every scalar factor is real, so d_k Re Omega_t is this sum over
        the real parts. The recovery reads only Re Omega_t's partials.
        Each side's correction_terms factors its partials as xhat_k v +
        c T_k (T = S for B, the constant E for A), so the sum collects
        into xhat_k v + beta S_k + gamma E_k, one (..., 6, 20) array.
        """
        x, r = self._radii(x)
        t = self.config.t
        ta = t ** (-self.config.alpha)
        F, Fp, Fpp = _cutoff_jet(r * ta)
        # |x/t| is taken afresh, as Omega_p takes it, not rounded from r / t
        dB, dr_B, along, coef, S = self.ac.correction_terms(x / t)
        # d_k dB and d_k (dr ^ B) at x/t weigh (1 - F) / t and -F' t^-alpha
        # in d_k Omega_t, d_k dA and d_k (dr ^ A) F and F' t^-alpha
        w = np.stack([(1.0 - F) / t, -Fp * ta], axis=-1)
        v = np.einsum("...i,...ij->...j", w, along)
        partials = np.sum(w * coef, -1)[..., None, None] * S
        dA = dr_A = 0.0
        if self.perturbation is not None:
            dA, dr_A, along, coef, E = self.perturbation.correction_terms(x, r)
            w = np.stack([F, Fp * ta], axis=-1)
            v += np.einsum("...i,...ij->...j", w, along)
            partials += np.sum(w * coef, -1)[..., None, None] * E
        out = (FLAT_OMEGA3.coeffs
               + F[..., None] * dA
               + (1.0 - F)[..., None] * dB)
        if np.any(Fp != 0.0):
            # dr ^ (A - B_t); dr is the same at x and x/t
            seam = dr_A - t * dr_B
            out = out + (Fp * ta)[..., None] * seam
            v += ((Fp * ta)[..., None] * (np.real(dA) - dB.real)
                  + (Fpp * ta ** 2)[..., None] * seam.real)
        partials += (x / r[..., None])[..., :, None] * v[..., None, :]
        return out, partials

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


def build_glued(config: GluingConfig, cone: ConeGeometry, ac: ACGeometry,
                perturbation=None) -> GluedStructure:
    """Validate the pairing and wire up the glued evaluators.

    The conical side contributes the primitive A of perturbation, with
    dA = (conical chart)^*(Omega_0) - Omega_V; without a perturbation A is
    zero, as for the unperturbed flat patch. The AC side contributes B =
    ac.correction_B with dB = (AC chart)^*(Omega_Y) - Omega_V. Each side's
    correction_terms gives the coefficients of its exact differential and
    of its seam partner dr ^ A (or dr ^ B), and the x-partials of their
    real parts, sharing one |x| and one radial product.

    Refused: an AC rate not below -3 (RateOutOfRange: the glued volume
    form defect would not decay), an AC space modelled on a different
    cone, an AC rate other than config.lam, the rate the exponent ledger
    reads, and a perturbation whose rate disagrees with config.nu
    (ConfigInvalid).
    """
    if ac.rate >= -3.0:
        raise RateOutOfRange(
            f"AC rate {ac.rate} is not below -3; the glued volume form "
            "defect would not decay")
    if ac.modelled_cone.descriptor() != cone.descriptor():
        raise ConfigInvalid("AC space is modelled on a different cone")
    if ac.rate != config.lam:
        raise ConfigInvalid(f"AC rate {ac.rate:g} disagrees with config "
                            f"lam = {config.lam:g}")
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
    """Neck norm ladder, one row per t, t strictly decreasing.

    row_wall_s holds each row's wall time in seconds, in row order; it
    is kept out of to_csv, whose bytes depend on the inputs only.
    """

    rows: tuple
    config: GluingConfig
    row_wall_s: tuple = ()

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


def _neck_fields(glued: GluedStructure, x, nbatch=None) -> dict:
    """Every pointwise neck field of a scan row at the points x, exact,
    from one Omega_t_jet and one recovery against the cone's Kaehler form,
    carrying the jet's partials, on the whole block: the defects of
    Omega_t and of the recovered structure, and the gradient fields, no
    stencil.

    On the flat cone chart gradients are partials of coefficients, a
    k-form's scaled by sqrt(k!) to give the norm of its full tensor; the
    derivative index follows the batch axes. A sample that is not stable
    or not positive raises NotStable or NotPositive, named by its last
    nbatch indices (all of them by default): its node in a batch of that
    many axes, with any stacked shift axes in front dropped.
    """
    x = np.asarray(x, float)
    lead = x.shape[:-1]
    Om, dOm = glued.Omega_t_jet(x.reshape(-1, 6))
    out = su3._recover_batch(FLAT_OMEGA.coeffs, Om, dOm)
    su3._raise_failures({key: out[key].reshape(lead)
                         for key in ("stable", "positive")},
                        len(lead) if nbatch is None else nbatch)
    fields = {
        "Omega_defect": Om - FLAT_OMEGA3.coeffs,
        "omega": out["omega_prime"] - FLAT_OMEGA.coeffs,
        "im_Omega": np.imag(Om) - out["theta2_prime"],
        "grad_omega": np.sqrt(2.0) * out["d_omega_prime"],
        "grad_metric": out["d_g"],
        "grad_re_Omega": np.sqrt(6.0) * dOm,
    }
    return {name: v.reshape(lead + v.shape[1:]) for name, v in fields.items()}


def _neck_hessian(glued: GluedStructure, x) -> np.ndarray:
    """Second partials of sqrt(2) omega_prime at the nodes x, one central
    difference of its exact gradient: 12 _neck_fields points per node and
    none at the node itself. A failing shift names its node in x."""
    nbatch = np.ndim(x) - 1
    return central_differences(
        lambda y: _neck_fields(glued, y, nbatch)["grad_omega"], x)


def _scan_row(config: GluingConfig, cone: ConeGeometry, ac: ACGeometry,
              perturbation, curvature_c1: float) -> DefectRow:
    glued = build_glued(config, cone, ac, perturbation)
    try:
        norms = region_norms(lambda x: _neck_fields(glued, x), cone,
                             config.neck_bounds, config.n_radial,
                             config.link_level)
        hess = _neck_hessian(glued, _sup_grid(config))
    except _SampleError as err:
        raise type(err)(f"at t = {config.t:g}: {err}",
                        sample_index=err.sample_index) from err
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
    computed independently (optionally in a thread pool), each timed on
    its own, and assembled in deterministic order.
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
        start = time.perf_counter()
        row = _scan_row(cfg, cone, ac, pert, c1)
        return row, time.perf_counter() - start

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            timed = list(pool.map(job, configs))
    else:
        timed = [job(cfg) for cfg in configs]
    rows, walls = zip(*timed)
    return DefectScan(rows=rows, config=config_template, row_wall_s=walls)


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


@dataclass(frozen=True)
class Thm52Verdict:
    """Exact and measured exponent ledger for one scan.

    implication_pass is decided by its proof (see thm52_check), not by
    sampling. fits holds the scan's fitted_exponents() (empty without a
    scan), so readers of the verdict need not fit the scan again.
    """

    alpha: Fraction
    kappa: Fraction
    gamma: Fraction
    exact: dict
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
    _branch_rates, keyed <family>_<branch>. The implication check is
    exact and draws nothing: it holds when alpha < 1 and no family
    offset exceeds the L2 one.

    The scan is fitted once; verdict.fits keeps the fits. Each column of
    _MEASURED_REQUIREMENTS gets a measured entry with its required rate
    kappa + c, its predicted rate gamma + c alpha (in floating point, from
    float gamma and alpha), its fitted slope and residual (None and absent
    for a column that vanishes identically, which passes), and pass.
    Failures are carried in the verdict, not raised.
    """
    nu, lam, alpha, kappa, gamma = _exact_rates(config)
    exact = _ledger_inequalities(nu, lam, alpha, kappa)
    # The L2 family's slack is kappa_2 = min_b (3 alpha + g_b - 3). For
    # every offset c and branch b, c alpha + g_b - c - kappa_2 >=
    # (3 - c)(1 - alpha), with equality at the minimising branch. So for
    # alpha < 1 the L2 family implies the whole ledger, for every (nu,
    # lam), exactly when no offset exceeds the L2 offset 3.
    implication = (alpha < 1 and max(_FAMILY_OFFSETS.values())
                   <= _FAMILY_OFFSETS["l2"])
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
                        implication_pass=implication, measured=measured,
                        fits=fits)
