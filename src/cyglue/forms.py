"""Pointwise exterior algebra on R^6 and R^7.

Forms are dense coefficient vectors over strictly increasing multi-indices
(lexicographic order).  Every operation broadcasts over leading batch axes, so
a ``KForm`` can hold the value of a field at one point or at a whole grid of
points with identical code paths.

Conventions
-----------
* ``pullback(L, a)(v_1, ..., v_k) = a(L v_1, ..., L v_k)``.
* The Hodge star uses the standard orientation ``dx_0 ^ ... ^ dx_{n-1}``.
* Norms of complex forms treat real and imaginary parts as one long real
  coefficient vector: ``|a|^2 = |Re a|^2 + |Im a|^2``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from . import _multiindex as mi
from .errors import DegenerateMetric, DimensionMismatch

__all__ = [
    "KForm", "MetricTensor", "LinearMap",
    "wedge", "contract", "hodge_star", "form_norm", "pullback",
    "lower_tensor_norm", "metric_distances", "gershgorin_certified",
]

# Gershgorin margin that certifies an eigenvalue rule without an eigensolve
_CERT_MARGIN = 1e-6


@dataclass(frozen=True)
class KForm:
    """A degree-k exterior form with dense increasing-index coefficients.

    Parameters
    ----------
    dim : 6 or 7
    degree : 0 <= degree <= dim
    coeffs : array of shape (..., C(dim, degree)), real or complex.
    """

    dim: int
    degree: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.dim not in (2, 3, 6, 7):
            # 2 and 3 are admitted for the low-dimensional analysis tests
            raise DimensionMismatch(f"unsupported dimension {self.dim}")
        if not 0 <= self.degree <= self.dim:
            raise DimensionMismatch(
                f"degree {self.degree} out of range for dim {self.dim}")
        arr = np.asarray(self.coeffs)
        if arr.dtype.kind == "c":
            arr = arr.astype(np.complex128, copy=False)
        else:
            arr = arr.astype(np.float64, copy=False)
        want = comb(self.dim, self.degree)
        if arr.shape[-1:] != (want,):
            raise DimensionMismatch(
                f"expected {want} coefficients for a {self.degree}-form in "
                f"dimension {self.dim}, got shape {arr.shape}")
        object.__setattr__(self, "coeffs", arr)

    # -- constructors ------------------------------------------------------
    @staticmethod
    def from_components(dim, degree, components):
        """Build from a {multi-index tuple: value} mapping."""
        rank = mi.index_rank(dim, degree)
        vals = list(components.values())
        complex_ = any(isinstance(v, complex) for v in vals)
        c = np.zeros(comb(dim, degree), np.complex128 if complex_ else np.float64)
        for idx, v in components.items():
            key = tuple(idx)
            if key not in rank:
                raise DimensionMismatch(f"multi-index {idx} not increasing in dim {dim}")
            c[rank[key]] = v
        return KForm(dim, degree, c)

    # -- basic structure ---------------------------------------------------
    @property
    def is_complex(self):
        return self.coeffs.dtype.kind == "c"

    def real(self):
        return KForm(self.dim, self.degree, np.real(self.coeffs).copy())

    def imag(self):
        return KForm(self.dim, self.degree, np.imag(self.coeffs).copy())

    def as_tensor(self):
        """Full antisymmetric coefficient array, shape (..., dim^degree)."""
        return mi.coeffs_to_tensor(self.coeffs, self.dim, self.degree)

    # -- arithmetic --------------------------------------------------------
    def _check_mate(self, other):
        if self.dim != other.dim or self.degree != other.degree:
            raise DimensionMismatch("form degree/dimension mismatch")

    def __add__(self, other):
        self._check_mate(other)
        return KForm(self.dim, self.degree, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check_mate(other)
        return KForm(self.dim, self.degree, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        s = np.asarray(scalar)
        if s.ndim:
            s = s[..., None]
        return KForm(self.dim, self.degree, self.coeffs * s)

    __rmul__ = __mul__


@dataclass(frozen=True)
class MetricTensor:
    """Symmetric positive-definite bilinear form, components (..., n, n)."""

    dim: int
    components: np.ndarray
    _checked: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self):
        g = np.asarray(self.components, dtype=np.float64)
        if g.shape[-2:] != (self.dim, self.dim):
            raise DimensionMismatch("metric component shape mismatch")
        object.__setattr__(self, "components", g)
        if not self._checked:
            sym = np.max(np.abs(g - np.swapaxes(g, -1, -2)))
            scale = max(float(np.max(np.abs(g))), 1e-300)
            if sym > 1e-8 * scale:
                raise DegenerateMetric("metric is not symmetric")
            w = np.linalg.eigvalsh(g)
            if np.min(w) <= 0:
                raise DegenerateMetric("metric is not positive definite")
            object.__setattr__(self, "_checked", True)

    def inverse(self):
        return np.linalg.inv(self.components)


@dataclass(frozen=True)
class LinearMap:
    """Endomorphism of R^n acting on vectors, matrix shape (..., n, n)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.dtype.kind != "c":
            m = m.astype(np.float64, copy=False)
        if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
            raise DimensionMismatch("linear map must be square")
        object.__setattr__(self, "matrix", m)


# ---------------------------------------------------------------------------
# operations


def wedge(a: KForm, b: KForm) -> KForm:
    """Exterior product a ^ b.

    Each output coefficient is a signed sum over the C(k + l, k) ways to
    split its index set between a and b, read as one gathered product and
    one signed sum (_multiindex.wedge_terms).
    """
    if a.dim != b.dim:
        raise DimensionMismatch("wedge of forms in different dimensions")
    if a.degree + b.degree > a.dim:
        raise DimensionMismatch("wedge degree exceeds dimension")
    terms = mi.wedge_terms(a.dim, a.degree, b.degree)
    return KForm(a.dim, a.degree + b.degree,
                 mi.signed_gather(a.coeffs, b.coeffs, terms))


def contract(v: np.ndarray, a: KForm) -> KForm:
    """Interior product iota_v a, contracting v into the first slot.

    Each output coefficient is a signed sum over the dim - k + 1 indices
    that can join its index set, read as one gathered product and one
    signed sum (_multiindex.contraction_terms).
    """
    if a.degree == 0:
        raise DimensionMismatch("cannot contract a 0-form")
    v = np.asarray(v)
    if v.shape[-1] != a.dim:
        raise DimensionMismatch("vector dimension mismatch")
    terms = mi.contraction_terms(a.dim, a.degree)
    return KForm(a.dim, a.degree - 1, mi.signed_gather(v, a.coeffs, terms))


def pullback(L, a: KForm) -> KForm:
    """Pull a back through the linear map with matrix L (or LinearMap)."""
    M = L.matrix if isinstance(L, LinearMap) else np.asarray(L, dtype=float)
    if M.shape[-1] != a.dim:
        raise DimensionMismatch("pullback dimension mismatch")
    if a.degree == 0:
        return a
    C = mi.compound_matrix(M, a.degree)
    return KForm(a.dim, a.degree,
                 (a.coeffs[..., None, :] @ C)[..., 0, :])


def _orthonormalizer(g: MetricTensor) -> tuple[np.ndarray, np.ndarray]:
    # P with P^T g P = I and det P > 0, plus its inverse
    L = np.linalg.cholesky(g.components)
    P = np.linalg.inv(np.swapaxes(L, -1, -2))
    return P, np.swapaxes(L, -1, -2)


def hodge_star(g: MetricTensor, a: KForm) -> KForm:
    """Hodge star of a with respect to g (standard orientation)."""
    if g.dim != a.dim:
        raise DimensionMismatch("metric/form dimension mismatch")
    P, P_inv = _orthonormalizer(g)
    if a.is_complex:
        return KForm(a.dim, a.dim - a.degree,
                     hodge_star(g, a.real()).coeffs
                     + 1j * hodge_star(g, a.imag()).coeffs)
    flat = pullback(P, a)
    perm, sign = mi.star_arrays(a.dim, a.degree)
    starred = KForm(a.dim, a.dim - a.degree, sign * flat.coeffs[..., perm])
    return pullback(P_inv, starred)


def _gram(g: MetricTensor, k: int) -> np.ndarray:
    if k == 0:
        return np.ones(g.components.shape[:-2] + (1, 1))
    return mi.compound_matrix(g.inverse(), k)


def form_norm(g: MetricTensor, a: KForm) -> np.ndarray:
    """Pointwise metric norm |a|_g; complex parts add in quadrature."""
    if g.dim != a.dim:
        raise DimensionMismatch("metric/form dimension mismatch")
    G = _gram(g, a.degree)
    if a.is_complex:
        re, im = np.real(a.coeffs), np.imag(a.coeffs)
        q = (np.einsum("...i,...ij,...j->...", re, G, re, optimize=True)
             + np.einsum("...i,...ij,...j->...", im, G, im, optimize=True))
    else:
        q = np.einsum("...i,...ij,...j->...", a.coeffs, G, a.coeffs,
                      optimize=True)
    return np.sqrt(np.maximum(q, 0.0))


def lower_tensor_norm(g: MetricTensor, T: np.ndarray, order: int) -> np.ndarray:
    """Norm of a fully covariant order-q tensor: contract each slot with g^{-1}."""
    T = np.asarray(T)
    ginv = g.inverse()
    letters = "abcdefgh"[:order]
    letters2 = "ijklmnop"[:order]
    spec = ("..." + letters + ",..." + letters2
            + "".join("," + "..." + x + y for x, y in zip(letters, letters2))
            + "->...")
    if T.dtype.kind == "c":
        re = np.einsum(spec, np.real(T), np.real(T), *([ginv] * order),
                       optimize=True)
        im = np.einsum(spec, np.imag(T), np.imag(T), *([ginv] * order),
                       optimize=True)
        q = re + im
    else:
        q = np.einsum(spec, T, T, *([ginv] * order), optimize=True)
    return np.sqrt(np.maximum(q, 0.0))


def metric_distances(g: MetricTensor, g_ref: MetricTensor) -> tuple:
    """(|g - g_ref|, |g^-1 - g_ref^-1|), both measured with g_ref; the
    inverses are compared fully contravariantly, each slot contracted with
    g_ref itself."""
    d_g = lower_tensor_norm(g_ref, g.components - g_ref.components, 2)
    dinv = g.inverse() - g_ref.inverse()
    G = g_ref.components
    q = np.einsum("...ac,...bd,...ab,...cd->...", G, G, dinv, dinv,
                  optimize=True)
    return d_g, np.sqrt(np.maximum(q, 0.0))


def gershgorin_certified(a: np.ndarray) -> np.ndarray:
    """Mask over the leading axes of the symmetric matrices a (..., n, n)
    whose rows certify w_min > _CERT_MARGIN max|w| for their eigenvalues w.

    By Gershgorin's circle theorem every eigenvalue lies within
    sum_{j != i} |a_ij| of some a_ii, so lower = min_i (2 a_ii - sum_j |a_ij|)
    <= w_min, and upper = max_i sum_j |a_ij| = ||a||_inf >= max|w|. The mask
    is lower > _CERT_MARGIN upper.

    It stands in for an eigenvalue rule w_min > rtol max|w| whose rtol is
    far below _CERT_MARGIN. eigvalsh is backward stable: its eigenvalues
    differ from the exact ones by a small multiple of eps ||a||_2 <= eps
    upper. The row sums carry about n eps upper of rounding, as does any
    rounding-level asymmetry of a. All of these are far below
    (_CERT_MARGIN - rtol) upper, so a certified matrix also passes the rule
    as eigvalsh computes it, and only the others need the eigensolve.
    """
    rows = np.sum(np.abs(a), axis=-1)
    diag = np.diagonal(a, axis1=-2, axis2=-1)
    lower = np.min(2.0 * diag - rows, axis=-1)
    upper = np.max(rows, axis=-1)
    return lower > _CERT_MARGIN * upper
