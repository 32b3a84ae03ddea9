"""Radial primitives and Moser flow charts over cone annuli.

Closed perturbations of the cone Kaehler form are trivialized in three
steps: a radial homotopy produces a primitive with controlled decay, a
pointwise Pfaffian solve in closed form produces the time-dependent
vector field, and a fixed-step fourth-order flow produces the chart. The
pullback residual of the integrated chart is the module's own quality
measure, so every run reports it.

Form fields are plain callables mapping sample points (..., 6) to KForm
batches over the same leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _multiindex as mi
from .analysis import fd_exterior_derivative, shell_grid, unit_directions
from .errors import (ConfigInvalid, Degenerate, DomainEscape, NotClosed,
                     RateOutOfRange)
from .forms import (_CERT_MARGIN, KForm, LinearMap, contract, form_norm,
                    pullback, wedge)

__all__ = [
    "SplitForm", "RadialPrimitive", "MoserResult",
    "split_form", "radial_primitive", "moser_vector_field", "moser_integrate",
]

_DEGENERACY_RATIO = 1e-6
# Relative mismatch below which eta(s x) = s^rate eta(x) counts as exact.
_HOMOGENEITY_RTOL = 1e-12
# Largest finite-difference |d eta| at the check points of closed data.
_FD_TOL = 1e-6
# Absolute tolerance of the quadrature path of radial_primitive.
_QUAD_TOL = 1e-12
# Trajectory offset of the central-difference chart Jacobian.
_JAC_H = 1e-5
# Radial halvings of the sample domain before DomainEscape.
_MAX_HALVINGS = 8


@dataclass(frozen=True)
class SplitForm:
    """Radial splitting eta = eta0 + dr ^ eta1 at common sample points.

    eta0 is tangential (contracting the unit radial direction gives zero)
    and eta1 carries the dr part. closure_residual is the finite-difference
    |d eta| that gated the split; compatibility_residual is the identity
    |d eta0 - dr ^ d eta1| linking the radial derivative of eta0 to the
    link differential of eta1.
    """

    eta0: KForm
    eta1: KForm
    closure_residual: float
    compatibility_residual: float

    def __iter__(self):
        return iter((self.eta0, self.eta1))


@dataclass(frozen=True)
class RadialPrimitive:
    """Primitive sigma with d sigma = eta from a radial homotopy.

    The evaluator maps points to KForm batches of one degree less than the
    input form. exact marks data homogeneous of degree decay_rate, whose
    primitive at x reads the value of eta at x alone (from_value).
    """

    evaluator: Callable
    degree: int
    decay_rate: float
    exact: bool

    def __call__(self, x):
        return self.evaluator(x)

    def from_value(self, x, eta: KForm) -> KForm:
        """Exact primitive iota_x eta / (k + decay_rate) from the value eta
        of the form at x; valid only when exact."""
        return KForm(6, self.degree - 1,
                     contract(x, eta).coeffs / (self.degree + self.decay_rate))


@dataclass(frozen=True)
class MoserResult:
    """Integrated Moser chart on a sample grid."""

    points: np.ndarray
    images: np.ndarray
    pullback_residual: float
    shrunk_domain: tuple
    steps: int
    halvings: int


def _radial_split(eta: KForm, x: np.ndarray):
    x = np.asarray(x, float)
    r = np.linalg.norm(x, axis=-1)
    xhat = x / r[..., None]
    eta1 = contract(xhat, eta)
    dr = KForm(eta.dim, 1, xhat)
    eta0 = eta - wedge(dr, eta1)
    return eta0, eta1, dr


def split_form(eta_field, x: np.ndarray, h=None, tol: float = 1e-6) -> SplitForm:
    """Split a closed form field into tangential and radial parts at x.

    Closedness is probed by finite differences at the sample points and
    the split components must satisfy d eta0 = dr ^ d eta1, the ambient
    form of the statement that the radial derivative of eta0 balances the
    link differential of eta1.
    """
    x = np.asarray(x, float)
    eta = eta_field(x)
    d_eta = fd_exterior_derivative(eta_field, x, h)
    closure = float(np.max(np.abs(d_eta.coeffs)))
    if closure > tol:
        raise NotClosed(f"|d eta| = {closure:.3e} exceeds {tol:.1e}")
    eta0, eta1, _ = _radial_split(eta, x)

    def eta0_field(y):
        return _radial_split(eta_field(y), y)[0]

    def eta1_dr_field(y):
        e0, e1, dr = _radial_split(eta_field(y), y)
        return wedge(dr, e1)

    d0 = fd_exterior_derivative(eta0_field, x, h)
    d1 = fd_exterior_derivative(eta1_dr_field, x, h)
    compat = float(np.max(np.abs(d0.coeffs + d1.coeffs)))
    return SplitForm(eta0=eta0, eta1=eta1, closure_residual=closure,
                     compatibility_residual=compat)


def _is_homogeneous(eta_field, pts: np.ndarray, probe: KForm,
                    rate: float) -> bool:
    """True when eta(s x) = s^rate eta(x) at pts for s in {1/2, 2}, to
    _HOMOGENEITY_RTOL of the largest coefficient of s^rate eta(x)."""
    scale = float(np.max(np.abs(probe.coeffs), initial=0.0))
    for s in (0.5, 2.0):
        mismatch = np.abs(eta_field(s * pts).coeffs - s ** rate * probe.coeffs)
        if not np.all(mismatch <= _HOMOGENEITY_RTOL * s ** rate * scale):
            return False
    return True


def quad_vec(f, a, b, **kwargs):
    """scipy.integrate.quad_vec, imported on the first call: only the
    quadrature path of radial_primitive integrates, so importing cyglue
    does not load scipy."""
    from scipy.integrate import quad_vec as scipy_quad_vec
    return scipy_quad_vec(f, a, b, **kwargs)


def radial_primitive(eta_field, direction: str, decay_rate: float,
                     check_points: Optional[np.ndarray] = None,
                     fd_h=None) -> RadialPrimitive:
    """Primitive of a closed form field by integrating contractions along
    rays: sigma(x) = int_0^1 u^(k-1) [iota_x eta](u x) du, or minus the
    same integral over [1, inf) for data decaying from infinity.

    Rate hypotheses: from_zero needs decay_rate > 0; from_infinity needs
    decay_rate + degree < 0, which for 2-forms is the rate < -2 condition
    of the asymptotically conical statement. Rates in [-2, 0) are refused,
    there is no convergent variant to integrate.

    Closedness (|d eta| up to 1e-6 by finite differences of step fd_h) and
    homogeneity are probed at the check points. Data whose coefficients
    are homogeneous of degree decay_rate there take the exact path
    sigma(x) = iota_x eta(x) / (k + decay_rate), the value of either
    integral; any other closed data are integrated by adaptive quadrature
    to an absolute 1e-12.
    """
    if direction not in ("from_zero", "from_infinity"):
        raise ConfigInvalid(f"unknown direction {direction!r}")
    pts = unit_directions(6, 0) if check_points is None else \
        np.asarray(check_points, float)
    probe = eta_field(pts)
    k = probe.degree
    if direction == "from_zero":
        if decay_rate <= 0:
            raise RateOutOfRange("from_zero needs a positive conical rate")
    else:
        if decay_rate + k >= 0:
            raise RateOutOfRange(
                f"from_infinity needs rate < {-k} for degree {k}, "
                f"got {decay_rate}")
    d_eta = fd_exterior_derivative(eta_field, pts, fd_h)
    resid = float(np.max(np.abs(d_eta.coeffs)))
    if resid > _FD_TOL:
        raise NotClosed(f"|d eta| = {resid:.3e} exceeds {_FD_TOL:.1e}")

    exact = _is_homogeneous(eta_field, pts, probe, decay_rate)

    def sigma(x):
        x = np.asarray(x, float)
        if exact:
            return prim.from_value(x, eta_field(x))

        def integrand(u):
            return (u ** (k - 1)) * contract(x, eta_field(u * x)).coeffs

        if direction == "from_zero":
            val, _ = quad_vec(integrand, 0.0, 1.0,
                              epsabs=_QUAD_TOL, epsrel=1e-12)
        else:
            val, _ = quad_vec(integrand, 1.0, np.inf,
                              epsabs=_QUAD_TOL, epsrel=1e-12)
            val = -val
        return KForm(6, k - 1, val)

    prim = RadialPrimitive(evaluator=sigma, degree=k, decay_rate=decay_rate,
                           exact=exact)
    return prim


# q = omega ^ omega / 2: each 4-form coefficient is a 4 x 4 sub-Pfaffian,
# a signed sum over the 3 ways to split its index set into two pairs. The
# wedge of 2-forms is symmetric, so the terms left < right list each
# product of omega ^ omega / 2 once.
_Q_KEEP = np.less(*mi.wedge_terms(6, 2, 2)[:2])
_Q_TERMS = tuple(a[_Q_KEEP].reshape(15, 3) for a in mi.wedge_terms(6, 2, 2))
# Pf = (omega ^ q) / 3 on the volume form: each pair meets its complement
_PF_LEFT, _PF_RIGHT, _PF_SIGN = mi.wedge_terms(6, 2, 4)
_PF_TERMS = (_PF_LEFT, _PF_RIGHT, _PF_SIGN / 3.0)
# X_i Pf = (-1)^i (-sigma ^ q)_{5-i}: the 5-form omitting index i sits at
# storage position 5 - i, so row i is row 5 - i of the sigma ^ q table
_X_LEFT, _X_RIGHT, _X_SIGN = (a[::-1] for a in mi.wedge_terms(6, 1, 4))
_X_TERMS = (_X_LEFT, _X_RIGHT,
            _X_SIGN * -np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])[:, None])


def _pfaffian_invariants(w: np.ndarray) -> tuple:
    """q = omega ^ omega / 2 and Pf = (omega ^ q) / 3 of the 2-form
    coefficients w (..., 15), and the mask of the samples whose invariants
    certify them nondegenerate (see moser_vector_field)."""
    q = mi.signed_gather(w, w, _Q_TERMS)
    pf = mi.signed_gather(w, q, _PF_TERMS)[..., 0]
    certified = pf * pf > (_CERT_MARGIN * np.einsum("...k,...k->...", w, w)
                           * np.einsum("...k,...k->...", q, q))
    return q, pf, certified


def moser_vector_field(sigma: KForm, omega_t: KForm) -> np.ndarray:
    """Solve sigma + iota(X) omega_t = 0 pointwise for X.

    Both forms are batches at common sample points. The solve is closed
    form: with q = omega_t ^ omega_t / 2 and Pf = (omega_t ^ q) / 3, the
    coefficient of omega_t^3 / 6 on the volume form, the identity
    iota_X(omega_t^3 / 6) = iota_X omega_t ^ q = -sigma ^ q gives
    X_i = (-1)^i (-sigma ^ q)_{5-i} / Pf.

    With the first-slot interior product the equation reads W^T X = -sigma
    for the component matrix W of omega_t. A sample whose W has its
    smallest singular value under 1e-6 of the largest is degenerate. The
    eigenvalues of A = W^T W are the squares l_1, l_2, l_3 of the singular
    values, each twice, and their elementary symmetric functions are
    |omega_t|^2, |q|^2 and Pf^2. So l_min >= Pf^2 / |q|^2 and
    l_max <= |omega_t|^2, and Pf^2 > forms._CERT_MARGIN |omega_t|^2 |q|^2
    certifies a sample without an eigensolve. A certified sample has all
    singular values above about 1e-3 of the largest, so rounding in Pf,
    of order eps |omega_t|^3, and eigvalsh's backward error, of order
    eps l_max, cannot bring it near the rule below.

    The others go to eigvalsh, and the singular values are compared
    through the eigenvalues of A, without a square root, so a rank-deficient
    W whose smallest eigenvalue rounds below zero is degenerate too, as is
    a zero omega_t. A degenerate sample raises Degenerate, whose
    sample_index is the first such sample. moser_integrate does not catch
    it: the flow ends there, since it retries on a shrunk domain only after
    a radius escape.
    """
    w = omega_t.coeffs
    q, pf, certified = _pfaffian_invariants(w)
    todo = np.flatnonzero(~certified)
    if len(todo):
        W = mi.coeffs_to_tensor(w.reshape(-1, 15)[todo], 6, 2)
        ev = np.linalg.eigvalsh(np.swapaxes(W, -1, -2) @ W)
        top = ev[:, -1]
        bad = (ev[:, 0] < _DEGENERACY_RATIO ** 2 * top) | (top == 0.0)
        if np.any(bad):
            ratio = np.sqrt(np.clip(ev[:, 0], 0.0, None)
                            / np.where(top > 0.0, top, 1.0))
            first = np.unravel_index(todo[np.argmax(bad)],
                                     w.shape[:-1] or (1,))
            raise Degenerate(
                f"omega_t singular value ratio {float(np.min(ratio)):.2e}",
                sample_index=[int(i) for i in first])
    return mi.signed_gather(sigma.coeffs, q, _X_TERMS) / pf[..., None]


def moser_integrate(cone, eta_field, decay_rate: float, r_bounds: tuple,
                    steps: int = 64, n_dirs: int = 8, n_radii: int = 4,
                    seed: int = 0, fd_h=None) -> MoserResult:
    """Integrate the Moser flow of omega_t = omega_V + t eta from t=0 to 1
    and report the pullback residual sup |psi_1^*(omega_V + eta) - omega_V|.

    eta is conical data of positive rate decay_rate, its primitive taken
    from the tip (radial_primitive's from_zero). The flow runs on a seeded
    grid of directions times Gauss radii inside r_bounds, all trajectories
    advanced together by the classical fourth-order scheme with fixed
    steps. The cone chart's Kaehler form omega_V is constant, so it is
    built once per flow attempt. Jacobians of the chart come from central
    differences of neighbouring trajectories, offset by 1e-5. A trajectory
    leaving the escape annulus (r_min / 2, 2 r_max), a factor-2 margin on
    each side of r_bounds, triggers a retry on a radially shrunk grid, at
    most 8 times, after which DomainEscape propagates; its sample_index
    is the first point of the last grid whose trajectory, or one of its
    Jacobian stencil copies, escaped.
    """
    a, b = float(r_bounds[0]), float(r_bounds[1])
    if not (0.0 < a < b):
        raise ConfigInvalid("need 0 < r_min < r_max")
    prim = radial_primitive(eta_field, "from_zero", decay_rate,
                            check_points=shell_grid(a, b, 4, 2, seed),
                            fd_h=fd_h)

    lo_bound, hi_bound = 0.5 * a, 2.0 * b

    def flow(y0):
        """The images of y0 at t = 1, or None and the mask of the
        trajectories that left the annulus at the first step any did."""
        y = np.array(y0, float)
        omega_v = cone.fields_at(y).omega

        def velocity(t, y):
            # the exact primitive and omega_t read one value of eta per stage
            eta = eta_field(y)
            sigma = prim.from_value(y, eta) if prim.exact else prim(y)
            return moser_vector_field(sigma, omega_v + eta * t)

        dt = 1.0 / steps
        for n in range(steps):
            t = n * dt
            k1 = velocity(t, y)
            k2 = velocity(t + 0.5 * dt, y + 0.5 * dt * k1)
            k3 = velocity(t + 0.5 * dt, y + 0.5 * dt * k2)
            k4 = velocity(t + dt, y + dt * k3)
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            r = np.linalg.norm(y, axis=-1)
            escaped = (r < lo_bound) | (r > hi_bound)
            if np.any(escaped):
                return None, escaped
        return y, None

    for halving in range(_MAX_HALVINGS + 1):
        b_cur = a + (b - a) * 0.5 ** halving
        pts = shell_grid(a, b_cur, n_dirs, n_radii, seed)
        stencil = [pts]
        for i in range(6):
            e = np.zeros(6)
            e[i] = 1.0
            stencil.append(pts + _JAC_H * e)
            stencil.append(pts - _JAC_H * e)
        batch = np.concatenate(stencil, axis=0)
        out, escaped = flow(batch)
        if out is not None:
            break
    else:
        # the batch holds 13 stencil copies of pts; name the point
        first = int(np.argmax(escaped.reshape(-1, len(pts)).any(axis=0)))
        raise DomainEscape(
            f"trajectories kept leaving the escape annulus ({lo_bound}, "
            f"{hi_bound}) after {_MAX_HALVINGS} domain halvings (first at "
            f"sample {first})",
            sample_index=[first])

    n = len(pts)
    images = out[:n]
    jac = np.empty((n, 6, 6))
    for i in range(6):
        plus = out[(1 + 2 * i) * n:(2 + 2 * i) * n]
        minus = out[(2 + 2 * i) * n:(3 + 2 * i) * n]
        jac[:, :, i] = (plus - minus) / (2.0 * _JAC_H)
    # omega_V is the same form at the images as at the points
    base = cone.fields_at(pts)
    pulled = pullback(LinearMap(jac), base.omega + eta_field(images))
    resid = float(np.max(form_norm(base.g, pulled - base.omega)))
    return MoserResult(points=pts, images=images, pullback_residual=resid,
                       shrunk_domain=(a, b_cur), steps=steps,
                       halvings=halving)
