"""Calabi-Yau cone geometries over five-dimensional links, the Calabi ALE
space asymptotic to C^3/Z_3, and local orbifold charts on the flat torus
quotient with 27 conical points.

Cone points live in ambient R^6 = C^3 with interleaved coordinates
(u1, v1, u2, v2, u3, v3); the radius is r = |x| and the link direction is
gamma = x / r.  Chart evaluators are pure functions of batched sample
arrays of shape (..., 6).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from . import _multiindex as mi
from .errors import ConfigInvalid, DegenerateMetric, DimensionMismatch
from .forms import (KForm, LinearMap, MetricTensor, contract, form_norm,
                    pullback, wedge)

__all__ = [
    "FieldSample", "ConeGeometry", "ACGeometry", "ConicalSingularityData",
    "SyntheticPerturbation", "flat_c3_cone", "quotient_cone_z3",
    "lie_derivative_check", "complex_dilation",
    "link_quadrature", "calabi_ale_o3", "t6_fixed_points",
    "t6_z3_orbifold_patch", "hermitian_to_omega", "hermitian_to_metric",
    "FLAT_OMEGA", "FLAT_OMEGA3", "J_STANDARD",
]

FLAT_OMEGA = KForm.from_components(6, 2, {(0, 1): 1.0, (2, 3): 1.0,
                                          (4, 5): 1.0})
FLAT_OMEGA3 = (KForm.from_components(6, 3, {(0, 2, 4): 1.0, (0, 3, 5): -1.0,
                                            (1, 2, 5): -1.0, (1, 3, 4): -1.0})
               + 1j * KForm.from_components(6, 3, {
                   (1, 2, 4): 1.0, (0, 2, 5): 1.0, (0, 3, 4): 1.0,
                   (1, 3, 5): -1.0}))


def _real_table(table: np.ndarray) -> np.ndarray:
    """A complex (rows, cols) table as a read-only real (rows, 2 cols)
    array, real and imaginary parts interleaved, for _table_product."""
    out = np.ascontiguousarray(table, dtype=np.complex128).view(np.float64)
    out.setflags(write=False)
    return out


def _table_product(a: np.ndarray, table: np.ndarray) -> np.ndarray:
    """a @ T for a real a and a complex table T stored by _real_table.

    The product runs in real arithmetic: a complex T would make numpy
    cast a to complex and run a complex matmul of twice the work.
    """
    return (a @ table).view(np.complex128)


def _frame_tables(form: KForm) -> tuple:
    """Constant tables of a complex form over the standard frame e_i:
    (e_i ^ form, iota_{e_i} form, e_i ^ iota_{e_j} form), the last with
    (i, j) flattened, each stored by _real_table, so that for a vector n

        n ^ form = _table_product(n, wedged),
        iota_n form = _table_product(n, iota),
        n ^ iota_n form = _table_product((n n^T).ravel(), radial).
    """
    E = np.eye(6)
    iota = contract(E, form).coeffs
    wedged = wedge(KForm(6, 1, E), form).coeffs
    radial = wedge(KForm(6, 1, E[:, None, :]),
                   KForm(6, form.degree - 1, iota[None, :, :])).coeffs
    return (_real_table(wedged), _real_table(iota),
            _real_table(radial.reshape(36, -1)))


def _radial_wedge(xhat: np.ndarray, radial: np.ndarray) -> np.ndarray:
    """xhat ^ iota_xhat of a form, from its e_i ^ iota_{e_j} table."""
    outer = xhat[..., :, None] * xhat[..., None, :]
    return _table_product(outer.reshape(xhat.shape[:-1] + (36,)), radial)


def _polar(x: np.ndarray, r=None) -> tuple:
    """(r, xhat) = (|x|, x / |x|); r is taken as given when passed."""
    x = np.asarray(x, float)
    if r is None:
        r = np.linalg.norm(x, axis=-1)
    return r, x / r[..., None]


def _symmetrized_radial(radial: np.ndarray) -> np.ndarray:
    """The real table of the x-partials of Re(x ^ iota_x form), from the
    form's e_i ^ iota_{e_j} table: row j holds the real parts of
    e_k ^ iota_{e_j} + e_j ^ iota_{e_k} for k = 0..5, so that

        d_k Re(x ^ iota_x form) = |x| (xhat @ table)[..., k, :]

    with the product reshaped to (..., 6, cols).
    """
    R = radial.view(np.complex128).reshape(6, 6, -1).real
    out = np.ascontiguousarray((R + R.transpose(1, 0, 2)).reshape(6, -1))
    out.setflags(write=False)
    return out


_, _IOTA_OMEGA3, _RADIAL_OMEGA3 = _frame_tables(FLAT_OMEGA3)
_SYM_RADIAL_OMEGA3 = _symmetrized_radial(_RADIAL_OMEGA3)

J_STANDARD = np.zeros((6, 6))
for _k in range(3):
    J_STANDARD[2 * _k + 1, 2 * _k] = 1.0
    J_STANDARD[2 * _k, 2 * _k + 1] = -1.0
J_STANDARD.setflags(write=False)


def _block_rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    R = np.zeros((6, 6))
    for k in range(3):
        R[2 * k, 2 * k] = c
        R[2 * k, 2 * k + 1] = -s
        R[2 * k + 1, 2 * k] = s
        R[2 * k + 1, 2 * k + 1] = c
    return R


def as_complex(x: np.ndarray) -> np.ndarray:
    """(..., 6) real interleaved -> (..., 3) complex."""
    x = np.asarray(x, float)
    return x[..., 0::2] + 1j * x[..., 1::2]


def as_real(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, complex)
    out = np.empty(z.shape[:-1] + (6,))
    out[..., 0::2] = z.real
    out[..., 1::2] = z.imag
    return out


@dataclass(frozen=True)
class FieldSample:
    """Geometric data of a chart at a batch of sample points."""

    g: MetricTensor
    omega: KForm
    Omega: KForm


@dataclass(frozen=True)
class DeckGroup:
    generator: np.ndarray
    order: int


def _broadcast_flat(x: np.ndarray) -> FieldSample:
    x = np.asarray(x, float)
    if x.shape[-1] != 6:
        raise DimensionMismatch("cone samples must have 6 ambient coordinates")
    shape = x.shape[:-1]
    g = MetricTensor(6, np.broadcast_to(np.eye(6), shape + (6, 6)), _checked=True)
    om = KForm(6, 2, np.broadcast_to(FLAT_OMEGA.coeffs, shape + (15,)))
    Om = KForm(6, 3, np.broadcast_to(FLAT_OMEGA3.coeffs, shape + (20,)))
    return FieldSample(g, om, Om)


@dataclass(frozen=True)
class ConeGeometry:
    """A Calabi-Yau cone with flat ambient chart and optional deck group."""

    name: str
    deck: Optional[DeckGroup]
    psi_period: float
    link_dim: int = 5

    def fields_at(self, x: np.ndarray) -> FieldSample:
        return _broadcast_flat(x)

    @property
    def link_volume(self) -> float:
        _, w = link_quadrature(self)
        return float(np.sum(w))

    def descriptor(self) -> dict:
        return {
            "name": self.name,
            "link_dim": self.link_dim,
            "deck_order": self.deck.order if self.deck else 1,
            "psi_period": self.psi_period,
        }


def flat_c3_cone() -> ConeGeometry:
    """Flat C^3 as the cone over the round S^5."""
    return ConeGeometry("flat_c3", None, 2.0 * np.pi)


def quotient_cone_z3() -> ConeGeometry:
    """C^3/Z_3 with deck generator z -> exp(2 pi i/3) z, acting freely on S^5."""
    gen = _block_rotation(2.0 * np.pi / 3.0)
    return ConeGeometry("c3_mod_z3", DeckGroup(gen, 3), 2.0 * np.pi / 3.0)


# ---------------------------------------------------------------------------
# link quadrature

def _patch_points(axis: int, rho1, a1, rho2, a2, psi):
    """Map patch parameters to S^5 in C^3, vectorized over leading axes."""
    others = [k for k in range(3) if k != axis]
    n = np.sqrt(1.0 + rho1 ** 2 + rho2 ** 2)
    w = np.zeros(np.broadcast_shapes(np.shape(rho1), np.shape(psi)) + (3,), complex)
    w[..., axis] = 1.0
    w[..., others[0]] = rho1 * np.exp(1j * a1)
    w[..., others[1]] = rho2 * np.exp(1j * a2)
    return np.exp(1j * psi)[..., None] * w / n[..., None]


@lru_cache(maxsize=8)
def _link_nodes(psi_period: float, n_rho: int, n_ang: int, n_psi: int):
    t, wt = np.polynomial.legendre.leggauss(n_rho)
    rho = 0.5 * (t + 1.0)
    w_rho = 0.5 * wt
    ang = 2.0 * np.pi * np.arange(n_ang) / n_ang
    w_ang = 2.0 * np.pi / n_ang
    psi = psi_period * np.arange(n_psi) / n_psi
    w_psi = psi_period / n_psi

    grid = np.meshgrid(rho, ang, rho, ang, psi, indexing="ij")
    r1, A1, r2, A2, P = (a.ravel() for a in grid)
    w_rho2 = np.multiply.outer(w_rho, w_rho)[:, None, :, None, None]
    w_prod = np.broadcast_to(w_rho2, grid[0].shape).ravel() * (w_ang ** 2 * w_psi)
    # times the Fubini-Study density rho1 rho2 / n^6 (see link_quadrature)
    w_patch = w_prod * r1 * r2 / (1.0 + r1 ** 2 + r2 ** 2) ** 3
    points = np.concatenate([as_real(_patch_points(axis, r1, A1, r2, A2, P))
                             for axis in range(3)])
    weights = np.tile(w_patch, 3)
    points.setflags(write=False)
    weights.setflags(write=False)
    return points, weights


def link_quadrature(cone: ConeGeometry, n_rho: int = 12, n_ang: int = 8,
                    n_psi: int = 8):
    """Deterministic quadrature nodes and weights on the cone's link.

    Three polydisc patches (one per complex axis, each owning the region
    where that coordinate has the largest modulus) with Gauss-Legendre
    nodes radially and uniform nodes in the periodic angles.  The deck
    quotient shrinks the psi period, so weights integrate functions over
    the quotient link directly.

    A patch point is e^{i psi} (1, rho1 e^{i a1}, rho2 e^{i a2}) / n with
    n^2 = 1 + rho1^2 + rho2^2 (coordinates permuted to put the 1 on the
    patch's axis). S^5 -> CP^2 is a Riemannian submersion whose psi fibres
    have unit speed, so the link's volume density is the Fubini-Study
    density rho1 rho2 / n^6 on CP^2 in polar affine coordinates, times
    d psi; every patch carries the same weights.
    """
    return _link_nodes(cone.psi_period, n_rho, n_ang, n_psi)


# ---------------------------------------------------------------------------
# radial structure

def complex_dilation(cone: ConeGeometry, t: float, theta: float) -> LinearMap:
    """The map (gamma, r) -> (exp(theta Z) gamma, t r) as a linear chart map."""
    if t <= 0:
        raise ConfigInvalid("dilation factor must be positive")
    return LinearMap(t * _block_rotation(theta))


_LIE_TARGETS = {
    "LX_omega": ("X", "omega", 2.0),
    "LX_Omega": ("X", "Omega", 3.0),
    "LZ_omega": ("Z", "omega", 0.0),
    "LZ_Omega": ("Z", "Omega", 3.0j),
}


def lie_derivative_check(cone: ConeGeometry, field_selector: str,
                         n_samples: int = 20, h: float = 1e-3,
                         seed: int = 0) -> float:
    """Sup-norm residual of a homogeneity identity for the radial or Reeb
    flow, computed by central finite differences of flow pullbacks.

    Selectors: LX_omega (target 2 omega), LX_Omega (3 Omega),
    LZ_omega (0), LZ_Omega (3i Omega).
    """
    if field_selector not in _LIE_TARGETS:
        raise ConfigInvalid(f"unknown selector {field_selector!r}")
    which, form_name, factor = _LIE_TARGETS[field_selector]
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_samples, 6))
    x /= np.linalg.norm(x, axis=-1, keepdims=True)
    x *= rng.uniform(0.5, 2.0, (n_samples, 1))

    def flow(s):
        if which == "X":
            return np.exp(s) * x, np.exp(s) * np.eye(6)
        R = _block_rotation(s)
        return x @ R.T, R

    def pull(s):
        y, D = flow(s)
        sample = cone.fields_at(y)
        form = sample.omega if form_name == "omega" else sample.Omega
        return pullback(LinearMap(D), form)

    lie = (1.0 / (2.0 * h)) * (pull(h) - pull(-h))
    base = cone.fields_at(x)
    target = factor * (base.omega if form_name == "omega" else base.Omega)
    res = form_norm(base.g, lie - target)
    return float(np.max(res))


# ---------------------------------------------------------------------------
# hermitian form conversions

def _real_blocks(H: np.ndarray) -> np.ndarray:
    """The (6, 6) real table of a hermitian H in the J-standard frame:
    Re H on the (u, u) and (v, v) entries, Im H on (u, v) and -Im H on
    (v, u). It is the metric of H when H is positive; nothing is checked."""
    H = np.asarray(H, complex)
    P, Q = H.real, H.imag
    g = np.zeros(H.shape[:-2] + (6, 6))
    g[..., 0::2, 0::2] = P
    g[..., 1::2, 1::2] = P
    g[..., 0::2, 1::2] = Q
    g[..., 1::2, 0::2] = -Q
    return g


def hermitian_to_omega(H: np.ndarray) -> KForm:
    """Real 2-form of (i/2) sum H_kl dz_k ^ dzbar_l for hermitian H: the
    metric table with J applied, omega(X, Y) = g(J X, Y)."""
    return KForm(6, 2, mi.tensor_to_coeffs(J_STANDARD.T @ _real_blocks(H),
                                           6, 2))


def hermitian_to_metric(H: np.ndarray) -> MetricTensor:
    """Riemannian metric of a positive hermitian form, J-standard frame.

    Positivity of the 6x6 real metric is equivalent to positivity of the
    3x3 hermitian matrix, checked here through its leading principal
    minors; the metric constructor's own eigenvalue check is skipped, it
    costs more than the surrounding evaluation on large batches.
    """
    H = np.asarray(H, complex)
    m1 = H[..., 0, 0].real
    m2 = (H[..., 0, 0] * H[..., 1, 1] - H[..., 0, 1] * H[..., 1, 0]).real
    m3 = mi._det3(H).real
    if min(np.min(m1), np.min(m2), np.min(m3)) <= 0:
        raise DegenerateMetric("hermitian form is not positive definite")
    return MetricTensor(6, _real_blocks(H), _checked=True)


# ---------------------------------------------------------------------------
# Calabi ALE space over C^3/Z_3

@dataclass(frozen=True)
class ACGeometry:
    """Asymptotically conical Calabi-Yau chart data over a cone.

    Evaluators take ambient cone samples x with r = |x| and either read the
    fields in the identity chart (``raw``: holomorphic volume form matches
    the cone exactly, the Kaehler form decays at the stated rate) or in the
    radial Darboux chart (``darboux``: the Kaehler form matches the cone
    exactly, the volume form decays).
    """

    rate: float
    compact_radius: float
    resolution_scale: float
    modelled_cone: ConeGeometry

    # -- potential -----------------------------------------------------
    def hermitian_at(self, x: np.ndarray) -> np.ndarray:
        """Complex Hessian u' I + u'' zbar z^T of the potential at x, with
        rho = |z|^2; np.longdouble samples give an np.clongdouble result,
        any other real samples complex."""
        x = np.asarray(x)
        x = x.astype(np.result_type(x.dtype, float), copy=False)
        z = x[..., 0::2] + 1j * x[..., 1::2]
        rho = np.einsum("...k,...k->...", z, z.conj()).real
        a6 = rho.dtype.type(self.resolution_scale) ** 6
        up = np.cbrt(1.0 + a6 / rho ** 3)
        us = -a6 / (rho ** 4 * up ** 2)
        H = up[..., None, None] * np.eye(3)
        H = H + us[..., None, None] * np.einsum("...k,...l->...kl", z.conj(), z)
        return H

    def log_det_h(self, x: np.ndarray, extended: bool = False) -> np.ndarray:
        """log det of the potential's complex Hessian; identically zero for
        the Ricci-flat solution, evaluated numerically for the oracle.

        With extended=True the whole pipeline runs at the platform's
        np.longdouble precision with a cofactor determinant (LAPACK has no
        extended-precision path). The determinant cancels three entries of
        size (a/r)^2 down to 1, so near the exceptional set the double
        route leaves noise around (a/r)^6 * 1e-16; finite differences of
        this field divide that noise by h^2, and the extra digits decide
        whether the Ricci check is measurable at small radii.
        """
        if extended:
            return np.log(mi._det3(self.hermitian_at(
                np.asarray(x, np.longdouble))).real)
        return np.log(np.linalg.det(self.hermitian_at(x)).real)

    def metric_on_target(self, x: np.ndarray) -> MetricTensor:
        """g_Y alone; much cheaper than fields_on_target for derivative
        stencils that only probe the metric."""
        return hermitian_to_metric(self.hermitian_at(x))

    def fields_on_target(self, x: np.ndarray) -> FieldSample:
        """(g_Y, omega_Y, Omega_Y) in the ambient coordinates of the
        resolved space away from the exceptional divisor (requires r > 0)."""
        H = self.hermitian_at(x)
        g = hermitian_to_metric(H)
        om = hermitian_to_omega(H)
        shape = np.asarray(x, float).shape[:-1]
        Om = KForm(6, 3, np.broadcast_to(FLAT_OMEGA3.coeffs, shape + (20,)))
        return FieldSample(g, om, Om)

    # -- charts ----------------------------------------------------------
    def darboux_radius(self, r):
        """m(r) with (m^6 + a^6)^(1/3) = r^2; the radial Darboux profile."""
        a6 = self.resolution_scale ** 6
        r = np.asarray(r, float)
        if np.any(r ** 6 <= a6):
            raise ConfigInvalid("Darboux chart needs r > resolution scale")
        return (r ** 6 - a6) ** (1.0 / 6.0)

    def chart_map(self, x: np.ndarray, chart: str = "raw"):
        """(y, D) with y = Upsilon(x) and D its Jacobian at each sample."""
        x = np.asarray(x, float)
        shape = x.shape[:-1]
        if chart == "raw":
            return x, np.broadcast_to(np.eye(6), shape + (6, 6)).copy()
        if chart != "darboux":
            raise ConfigInvalid(f"unknown chart {chart!r}")
        r = np.linalg.norm(x, axis=-1)
        m = self.darboux_radius(r)
        xhat = x / r[..., None]
        mp = r ** 5 / m ** 5  # m'(r)
        proj = np.einsum("...i,...j->...ij", xhat, xhat)
        D = (m / r)[..., None, None] * (np.eye(6) - proj) + mp[..., None, None] * proj
        return (m / r)[..., None] * x, D

    def pulled_back_fields(self, x: np.ndarray, chart: str = "raw") -> FieldSample:
        """Upsilon^*(g_Y, omega_Y, Omega_Y) at cone samples x."""
        y, D = self.chart_map(x, chart)
        tgt = self.fields_on_target(y)
        L = LinearMap(D)
        g = MetricTensor(6, np.einsum("...ki,...kl,...lj->...ij",
                                      D, tgt.g.components, D))
        om = pullback(L, tgt.omega)
        Om = pullback(L, tgt.Omega)
        return FieldSample(g, om, Om)

    # -- closed-form correction data -------------------------------------
    def correction_B(self, x: np.ndarray) -> KForm:
        """Exact 2-form B = c(r) iota_X Omega_V / 3 with dB = Upsilon_D^*
        Omega_Y - Omega_V."""
        x = np.asarray(x, float)
        r = np.linalg.norm(x, axis=-1)
        return KForm(6, 2, (self._profile_c(r) / 3.0)[..., None]
                     * _table_product(x, _IOTA_OMEGA3))

    def correction_dB(self, x: np.ndarray) -> KForm:
        """d(correction_B), exact: c(r) Omega + c'(r) r dr ^ iota_dr Omega / 3."""
        return KForm(6, 3, self.correction_terms(x)[0])

    def correction_terms(self, x: np.ndarray) -> tuple:
        """Coefficients of (correction_dB, dr ^ correction_B) at x and the
        x-partials d_k of their real parts at [..., k, :], from one |x|,
        one square root for the profile c and its first two derivatives,
        and one dr ^ iota_dr Omega. With P = x ^ iota_x Omega and
        S_k = d_k Re P / r,

            dB = c Omega + c' P / (3 r),  dr ^ B = c P / (3 r),
            d_k Re dB = xhat_k (c' Re Omega + (c'' r - c') Re P / (3 r^2))
                        + c' S_k / 3,
            d_k Re (dr ^ B) = xhat_k (c' r - c) Re P / (3 r^2) + c S_k / 3.

        The values are complex and the partials real (..., 6, 20): every
        scalar factor is real, so the real parts come from the real
        halves of the tables.
        """
        r, xhat = _polar(x)
        a6 = self.resolution_scale ** 6
        root = np.sqrt(1.0 - a6 / r ** 6)
        c = root - 1.0
        cp = 3.0 * a6 / (r ** 7 * root)
        cpp = -21.0 * a6 / (r ** 8 * root) - 9.0 * a6 ** 2 / (r ** 14 * root ** 3)
        radial = _radial_wedge(xhat, _RADIAL_OMEGA3)
        re_radial = radial.real
        S = (xhat @ _SYM_RADIAL_OMEGA3).reshape(xhat.shape[:-1] + (6, 20))
        along = xhat[..., :, None]
        return (c[..., None] * FLAT_OMEGA3.coeffs
                + (cp * r / 3.0)[..., None] * radial,
                (c * r / 3.0)[..., None] * radial,
                along * (cp[..., None] * FLAT_OMEGA3.coeffs.real
                         + ((cpp * r - cp) / 3.0)[..., None] * re_radial)[..., None, :]
                + (cp / 3.0)[..., None, None] * S,
                along * (((cp * r - c) / 3.0)[..., None] * re_radial)[..., None, :]
                + (c / 3.0)[..., None, None] * S)

    def _profile_c(self, r):
        a6 = self.resolution_scale ** 6
        return np.sqrt(1.0 - a6 / np.asarray(r, float) ** 6) - 1.0

    def descriptor(self) -> dict:
        return {
            "name": "calabi_ale_o3",
            "rate": self.rate,
            "compact_radius": self.compact_radius,
            "resolution_scale": self.resolution_scale,
            "cone": self.modelled_cone.descriptor(),
        }


def calabi_ale_o3(resolution_scale: float = 1.0,
                  compact_radius: Optional[float] = None) -> ACGeometry:
    """The rate -6 ALE Calabi-Yau structure resolving C^3/Z_3.

    Built from the radially symmetric potential with u'(rho) =
    (1 + a^6/rho^3)^(1/3), the unique decaying solution of the Ricci-flat
    equation det(Hessian) = 1; a = 0 recovers the cone.
    """
    if resolution_scale <= 0:
        raise ConfigInvalid("resolution scale must be positive")
    if compact_radius is None:
        compact_radius = 1.05 * resolution_scale
    return ACGeometry(rate=-6.0, compact_radius=compact_radius,
                      resolution_scale=resolution_scale,
                      modelled_cone=quotient_cone_z3())


# ---------------------------------------------------------------------------
# torus orbifold patches

@lru_cache(maxsize=1)
def t6_fixed_points() -> np.ndarray:
    """All 27 fixed points of z -> zeta z on (C / (Z + Z zeta))^3, as
    ambient 6-vectors in a fundamental domain.

    Per factor, w = (p + q zeta)/3 is fixed iff (zeta - 1) w lies in the
    lattice, iff p + q = 0 mod 3: the points (p, q) = (0, 0), (1, 2), (2, 1).
    """
    zeta = np.exp(2j * np.pi / 3.0)
    per_factor = [(p + q * zeta) / 3.0 for p, q in ((0, 0), (1, 2), (2, 1))]
    out = as_real(np.array(list(itertools.product(per_factor, repeat=3))))
    out.setflags(write=False)
    return out


def _torus_distance(x: np.ndarray, y: np.ndarray) -> float:
    # lattice translations act factor-wise, so reduce each factor separately
    zeta = np.exp(2j * np.pi / 3.0)
    dz = as_complex(x - y)
    tot = 0.0
    for k in range(3):
        dk = min(abs(dz[k] - (p + q * zeta))
                 for p in range(-2, 3) for q in range(-2, 3))
        tot += dk ** 2
    return float(np.sqrt(tot))


@dataclass(frozen=True)
class SyntheticPerturbation:
    """Closed perturbation dA of prescribed conical rate nu.

    A = amplitude * r^(nu+3) * q^*(b) for the radial projection q(x) = x/|x|
    and a constant deck-invariant hermitian form b; then |A| = O(r^(nu+1)),
    |dA| = O(r^nu), and dA is exact by construction.
    """

    nu: float
    amplitude: float
    b_re: np.ndarray
    b_im: np.ndarray

    def __post_init__(self):
        b = KForm(6, 2, hermitian_to_omega(self.b_re).coeffs
                  + 1j * hermitian_to_omega(self.b_im).coeffs)
        wedged, _, radial = _frame_tables(b)
        object.__setattr__(self, "_b", b)
        object.__setattr__(self, "_wedge_b", wedged)
        object.__setattr__(self, "_radial_b", radial)

    def _pullback_b(self, x: np.ndarray) -> KForm:
        """q^*(b) = r^-2 (b - xhat ^ iota_xhat b): dq = (1 - xhat xhat^T)/r
        projects out the radial direction."""
        r, xhat = _polar(x)
        radial = _radial_wedge(xhat, self._radial_b)
        return KForm(6, 2, (self._b.coeffs - radial) / r[..., None] ** 2)

    def primitive_A(self, x: np.ndarray) -> KForm:
        x = np.asarray(x, float)
        r = np.linalg.norm(x, axis=-1)
        qb = self._pullback_b(x)
        return KForm(6, 2, (self.amplitude * r ** (self.nu + 3))[..., None] * qb.coeffs)

    def dA(self, x: np.ndarray) -> KForm:
        """amplitude (nu+3) r^(nu+2) dr ^ q^*b = amplitude (nu+3) r^nu
        xhat ^ b, since dr ^ q^*b = xhat ^ b / r^2."""
        return KForm(6, 3, self.correction_terms(x)[0])

    def correction_terms(self, x: np.ndarray, r=None) -> tuple:
        """Coefficients of (dA, dr ^ primitive_A) at x and the x-partials
        d_k of their real parts at [..., k, :], from one |x| (or the
        given r) and one xhat ^ b: dA = amplitude (nu+3) r^(nu-1) x ^ b
        and dr ^ primitive_A = amplitude r^nu x ^ b, differentiated with
        the rows e_k ^ Re b of the real half of the same wedge table. The
        values are complex and the partials real (..., 6, 20).
        """
        r, xhat = _polar(x, r)
        xhat_b = _table_product(xhat, self._wedge_b)
        along = xhat[..., :, None] * xhat_b.real[..., None, :]
        e_b = self._wedge_b[:, 0::2]
        a, nu = self.amplitude, self.nu
        return ((a * (nu + 3.0) * r ** nu)[..., None] * xhat_b,
                (a * r ** (nu + 1.0))[..., None] * xhat_b,
                (a * (nu + 3.0) * r ** (nu - 1.0))[..., None, None]
                * ((nu - 1.0) * along + e_b),
                (a * r ** nu)[..., None, None] * (nu * along + e_b))


@dataclass(frozen=True)
class ConicalSingularityData:
    """Local flat chart of one conical point of the torus quotient."""

    index: int
    center: np.ndarray
    cone: ConeGeometry
    neighbor_distance: float

    def synthetic_perturbation(self, nu: float, amplitude: float,
                               seed: int = 0) -> SyntheticPerturbation:
        if nu <= 0:
            raise ConfigInvalid("conical perturbation rate must be positive")
        rng = np.random.default_rng(seed)
        def herm():
            M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            return 0.5 * (M + M.conj().T)
        return SyntheticPerturbation(nu, amplitude, herm(), herm())


def t6_z3_orbifold_patch(singular_point_index: int) -> ConicalSingularityData:
    """Chart data around one of the 27 conical points of the flat torus
    quotient; the unperturbed chart pulls the flat pair back exactly."""
    pts = t6_fixed_points()
    if not (0 <= singular_point_index < 27):
        raise ConfigInvalid("singular point index must lie in 0..26")
    center = pts[singular_point_index]
    dists = [_torus_distance(center, pts[j]) for j in range(27)
             if j != singular_point_index]
    return ConicalSingularityData(
        index=singular_point_index,
        center=center,
        cone=quotient_cone_z3(),
        neighbor_distance=float(min(dists)),
    )
