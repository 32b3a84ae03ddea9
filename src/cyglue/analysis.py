"""Finite-difference differential geometry over charts, plus region norms
by quadrature.

Provides Christoffel symbols, covariant derivatives of lowered tensors,
the Riemann and Ricci tensors (optionally Richardson-extrapolated), the
complex Hessian route to Ricci for Kaehler potentials, and C0/L2/L12
norms over cone annuli with the measure r^5 dr dmu.

First derivatives are taken by one stencil, central_differences, and the
curvatures' second derivatives by second_differences, both with a step
proportional to the distance from the cone tip. The neck scan's
gradients are exact and need neither; its Hessian is one
central_differences of the exact gradient. Fields here are plain
callables from sample points of shape (..., dim) to KForm, MetricTensor,
or ndarray batches over the same leading axes; they must accept any
leading batch axes, since central_differences stacks its shifts on a
new one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _multiindex as mi
from .cones import link_quadrature
from .errors import ConfigInvalid, _SampleError
from .forms import KForm, MetricTensor

__all__ = [
    "NormReport", "central_differences", "second_differences",
    "fd_exterior_derivative", "christoffel", "covariant_derivative",
    "riemann_ricci", "kahler_ricci", "region_norms", "local_step",
    "unit_directions", "shell_grid",
]

_SLOT_LETTERS = "abcdefgh"
# The package's one point budget per field evaluation: region_norms
# evaluates its nodes, and central_differences its stacked shifts, in
# chunks of at most this many points, bounding the memory of each call.
# At 128 points the neck scan's (points, 6, ...) gradient temporaries stay
# in cache.
_BLOCK = 128


@dataclass(frozen=True)
class NormReport:
    """Region norms of a pointwise field, its quadrature error and volume.

    quad_error estimates the L2 quadrature error by radial node doubling;
    volume is the measure of the region, used by the Hoelder sanity bounds
    l2 <= volume^(1/2) c0 and l12 <= volume^(1/12) c0.
    """

    c0: float
    l2: float
    l12: float
    quad_error: float
    volume: float


def local_step(x: np.ndarray, h) -> np.ndarray:
    """Per-sample step: 1e-3 times the distance from the origin, floored
    away from zero. An explicit h (scalar or per-sample) overrides."""
    x = np.asarray(x, float)
    if h is not None:
        return np.broadcast_to(np.asarray(h, float), x.shape[:-1]).copy()
    r = np.linalg.norm(x, axis=-1)
    return 1e-3 * np.maximum(r, 1e-3)


def unit_directions(n: int, seed: int) -> np.ndarray:
    """n seeded unit vectors of R^6: normalised standard normal draws."""
    v = np.random.default_rng(seed).standard_normal((n, 6))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def shell_grid(r_lo, r_hi, n_dirs: int, n_radii: int, seed: int) -> np.ndarray:
    """unit_directions(n_dirs, seed) at each of the n_radii Gauss-Legendre
    radii of (r_lo, r_hi), radius-major, as an (n_radii * n_dirs, 6) batch."""
    v = unit_directions(n_dirs, seed)
    t, _ = np.polynomial.legendre.leggauss(n_radii)
    r = 0.5 * (r_hi - r_lo) * t + 0.5 * (r_hi + r_lo)
    return (r[:, None, None] * v[None, :, :]).reshape(-1, 6)


def central_differences(f, x: np.ndarray, h=None) -> np.ndarray:
    """Central-difference partials d_i f at x, with the step local_step(x, h).

    f maps points (..., dim) to an array over the same batch axes and must
    accept any leading batch axes: it receives the 2 dim shifts
    x + step e_i (shift 2i) and x - step e_i (shift 2i + 1) stacked on a
    new leading axis, a chunk of whole shifts at a time, each chunk at
    most _BLOCK points and at least one shift. The chunks' values are
    joined and differenced once, (plus - minus) / (2 step), so the result
    does not depend on the chunking. It is one C-contiguous array with
    the derivative index i right after the batch axes.
    """
    x = np.asarray(x, float)
    dim, nbatch = x.shape[-1], x.ndim - 1
    step = local_step(x, h)
    hp = np.moveaxis(step[..., None, None] * np.eye(dim), -2, 0)
    shifts = np.stack([x + hp, x - hp], axis=1).reshape((2 * dim,) + x.shape)
    per_call = max(1, _BLOCK // max(1, step.size))
    vals = np.concatenate([f(shifts[lo:lo + per_call])
                           for lo in range(0, 2 * dim, per_call)])
    denom = 2.0 * step.reshape(step.shape + (1,) * (vals.ndim - 1 - nbatch))
    diff = (vals[0::2] - vals[1::2]) / denom
    return np.ascontiguousarray(np.moveaxis(diff, 0, nbatch))


def second_differences(f, x: np.ndarray, h=None) -> np.ndarray:
    """Second partials d_i d_j f at x: central_differences applied twice at
    the one step s = local_step(x, h), with f run once per distinct point.

    f maps points (..., dim) to an array over the same batch axes; i and j
    come right after them. The diagonal samples x +- 2 s e_i, the rest the
    corners x +- s e_i +- s e_j, each quotient over 4 s^2.
    """
    x = np.asarray(x, float)
    dim, nbatch = x.shape[-1], x.ndim - 1
    step = local_step(x, h)
    s, e = step[..., None], np.eye(dim)
    center = np.asarray(f(x))
    out = np.empty((dim, dim) + center.shape, np.result_type(center, step))
    for i in range(dim):
        out[i, i] = (f(x + 2.0 * s * e[i]) - 2.0 * center
                     + f(x - 2.0 * s * e[i]))
        for j in range(i + 1, dim):
            out[i, j] = out[j, i] = (f(x + s * (e[i] + e[j]))
                                     - f(x + s * (e[i] - e[j]))
                                     - f(x - s * (e[i] - e[j]))
                                     + f(x - s * (e[i] + e[j])))
    denom = 4.0 * step.reshape(step.shape + (1,) * (center.ndim - nbatch)) ** 2
    return np.moveaxis(out / denom, (0, 1), (nbatch, nbatch + 1))


def fd_exterior_derivative(field, x: np.ndarray, h=None) -> KForm:
    """Central-difference exterior derivative of a k-form field at x:
    d a = sum_i dx_i ^ d_i a, the partials contracted with the wedge table."""
    x = np.asarray(x, float)
    degree = []

    def coeffs(y):
        form = field(y)
        degree.append(form.degree)
        return form.coeffs

    partials = central_differences(coeffs, x, h)
    dim, k = x.shape[-1], degree[0]
    return KForm(dim, k + 1, np.einsum("...iI,iIK->...K", partials,
                                       mi.wedge_tensor(dim, 1, k)))


def _lowered_christoffel(dg: np.ndarray) -> np.ndarray:
    """Gamma_{l,ij} = (1/2) (d_i g_jl + d_j g_il - d_l g_ij) at [..., l, i, j]
    from dg[..., i, a, b] = d_i g_ab; any axes before i pass through."""
    return 0.5 * (np.einsum("...ijl->...lij", dg)
                  + np.einsum("...jil->...lij", dg)
                  - dg)


def christoffel(g_field, x: np.ndarray, h=None) -> np.ndarray:
    """Gamma[..., k, i, j] = (1/2) g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)."""
    dg = central_differences(lambda y: g_field(y).components, x, h)
    return np.einsum("...kl,...lij->...kij", g_field(x).inverse(),
                     _lowered_christoffel(dg))


def covariant_derivative(T_field, g_field, x: np.ndarray, h=None) -> np.ndarray:
    """Levi-Civita covariant derivative of an all-lower tensor field.

    T_field may return a KForm (expanded to its full tensor), a
    MetricTensor, or a plain ndarray whose trailing axes are the tensor
    slots. The derivative index comes first:
    (nabla T)[..., i, a1..aq] = d_i T_{a1..aq} - sum_s Gamma^m_{i a_s} T_{..m..}.
    """
    x = np.asarray(x, float)

    def tensor_of(y):
        val = T_field(y)
        if isinstance(val, KForm):
            return val.as_tensor()
        if isinstance(val, MetricTensor):
            return val.components
        return np.asarray(val)

    base = tensor_of(x)
    q = base.ndim - (x.ndim - 1)
    if q > len(_SLOT_LETTERS):
        raise ConfigInvalid("tensor order %d not supported" % q)
    out = central_differences(tensor_of, x, h)
    gam = christoffel(g_field, x, h)
    letters = _SLOT_LETTERS[:q]
    for s in range(q):
        t_sub = letters[:s] + "m" + letters[s + 1:]
        expr = "...mi%s,...%s->...i%s" % (letters[s], t_sub, letters)
        out = out - np.einsum(expr, gam, base)
    return out


def riemann_ricci(g_field, x: np.ndarray, h=None, richardson: bool = True):
    """Riemann and Ricci tensors from central and second differences of g.

    Returns (R, ric) with R[..., l, k, i, j] = R^l_{kij}, the curvature of
    the Levi-Civita connection,

        R^l_{kij} = d_i Gamma^l_{jk} - d_j Gamma^l_{ik}
                    + Gamma^l_{im} Gamma^m_{jk} - Gamma^l_{jm} Gamma^m_{ik},

    and ric[..., k, j] = R^i_{kij}, where
    d_m Gamma^k_ij = g^kl (d_m Gamma_{l,ij} - d_m g_la Gamma^a_ij). With
    richardson=True the whole computation runs at steps h and h/2 and
    combines as (4 F(h/2) - F(h))/3, cancelling the leading O(h^2)
    truncation error of both stencils.
    """
    x = np.asarray(x, float)
    base_step = local_step(x, h)
    ginv = g_field(x).inverse()

    def components(y):
        return g_field(y).components

    def riem_at(scale):
        st = base_step * scale
        dg = central_differences(components, x, st)
        gam = np.einsum("...kl,...lij->...kij", ginv, _lowered_christoffel(dg))
        d_low = (_lowered_christoffel(second_differences(components, x, st))
                 - np.einsum("...mla,...aij->...mlij", dg, gam))
        dgam = np.einsum("...kl,...mlij->...mkij", ginv, d_low)
        quad = np.einsum("...lim,...mjk->...lkij", gam, gam)
        return (np.einsum("...iljk->...lkij", dgam)
                - np.einsum("...jlik->...lkij", dgam)
                + quad - np.swapaxes(quad, -1, -2))

    R = riem_at(1.0)
    if richardson:
        R = (4.0 * riem_at(0.5) - R) / 3.0
    ric = np.einsum("...ikij->...kj", R)
    return R, ric


def kahler_ricci(log_det_fn, x: np.ndarray, h=None) -> np.ndarray:
    """Ricci tensor -d_k d_lbar (log det h) of a Kaehler metric, from its
    potential's log-determinant field by a central-difference complex
    Hessian, with z_j = u_j + i v_j = x[2j] + i x[2j+1].

    h, the second_differences step, may be a scalar or per-sample array;
    the default |x|/4 is tuned for log-determinants that vanish
    identically, where truncation error is zero and only evaluation noise
    survives division by h^2.
    """
    x = np.asarray(x, float)
    if x.shape[-1] != 6:
        raise ConfigInvalid("kahler_ricci expects 6 real coordinates")
    if h is None:
        h = np.linalg.norm(x, axis=-1) / 4.0
    hess = second_differences(lambda y: np.asarray(log_det_fn(y), float),
                              x, h)
    uu, uv = hess[..., 0::2, 0::2], hess[..., 0::2, 1::2]
    vu, vv = hess[..., 1::2, 0::2], hess[..., 1::2, 1::2]
    return -0.25 * (uu + vv + 1j * (uv - vu))


def region_norms(fields, cone, r_bounds: tuple, n_radial: int = 8,
                 link_level: tuple = (4, 4, 4)) -> dict:
    """C0, L2 and L12 norms of named fields over the annulus (a, b) x link,
    with the cone measure r^5 dr dmu.

    fields maps a batch of nodes to a dict of values, each a KForm batch
    or a plain lowered-tensor ndarray, all measured in one node pass; the
    result maps each name to its NormReport, which does not echo the
    grid. The cone chart is flat with the identity metric, so pointwise
    norms are Euclidean: |coeffs| for a form and the Frobenius norm for a
    tensor, which gives sqrt(k!) |coeffs| for the full tensor of a
    k-form. The scan's grad_* fields are the partials of the coefficients,
    computed exactly with the values at each block's nodes.

    Two passes run, on n_radial and on 2 n_radial radial nodes: C0 is the
    maximum over the nodes of both, the reported L2 and the L12 sum come
    from the doubled pass, and quad_error is the L2 difference between
    the two. fields runs on blocks of at most _BLOCK nodes, the package's
    point budget per evaluation, which bounds the memory of the pointwise
    evaluations. A _SampleError that fields raises at a block offset is
    raised again with sample_index [i], i the node's index in its pass's
    radius-major node list, and the pass named by its radial node count.
    """
    a, b = float(r_bounds[0]), float(r_bounds[1])
    if not (0.0 < a < b):
        raise ConfigInvalid("need 0 < r_min < r_max")
    pts, wts = link_quadrature(cone, *link_level)

    def norms(n_r):
        t, wt = np.polynomial.legendre.leggauss(n_r)
        r = 0.5 * (b - a) * t + 0.5 * (a + b)
        wr = 0.5 * (b - a) * wt
        x = (r[:, None, None] * pts[None, :, :]).reshape(-1, pts.shape[-1])
        meas = ((wr * r ** 5)[:, None] * wts[None, :]).reshape(-1)
        sums = {}
        for lo in range(0, x.shape[0], _BLOCK):
            w = meas[lo:lo + _BLOCK]
            try:
                block = fields(x[lo:lo + _BLOCK])
            except _SampleError as err:
                if err.sample_index is None:
                    raise
                node = [lo + err.sample_index[0]]
                raise type(err)(
                    f"{err} in the block from node {lo}: node {node} of "
                    f"the {n_r}-radial-node pass", sample_index=node) from err
            for name, val in block.items():
                arr = val.coeffs if isinstance(val, KForm) else np.asarray(val)
                vals = np.linalg.norm(arr.reshape(len(w), -1), axis=-1)
                s2, s12, c0 = sums.get(name, (0.0, 0.0, 0.0))
                sums[name] = (s2 + float(np.sum(w * vals ** 2)),
                              s12 + float(np.sum(w * vals ** 12)),
                              max(c0, float(np.max(vals))))
        return {name: (s2 ** 0.5, s12 ** (1.0 / 12.0), c0)
                for name, (s2, s12, c0) in sums.items()}

    coarse, fine = norms(n_radial), norms(2 * n_radial)
    volume = float(np.sum(wts)) * (b ** 6 - a ** 6) / 6.0
    return {
        name: NormReport(c0=max(coarse[name][2], c0), l2=l2, l12=l12,
                         quad_error=abs(l2 - coarse[name][0]), volume=volume)
        for name, (l2, l12, c0) in fine.items()
    }
