"""Positive 3-forms on R^7, their metrics, and the product structure built
from pointwise SU(3) data on R^6 via phi = ds ^ omega + theta1.

R^7 carries coordinates (s, u1, v1, u2, v2, u3, v3): the circle direction
first, then the interleaved complex coordinates of the R^6 factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from . import _multiindex as mi
from .errors import DimensionMismatch, NotPositive3Form
from .forms import KForm, MetricTensor, form_norm, hodge_star, metric_distances, wedge

__all__ = [
    "TorsionSample", "metric_from_phi", "build_phi_chi", "torsion_psi",
    "compare_g2", "embed_form", "ds_wedge",
]


@lru_cache(maxsize=None)
def _embed_tables(k: int):
    """Rank maps for including R^6 k-forms into R^7 (indices shifted by one)
    and for wedging with ds (index 0 prepended, no sign)."""
    r7k = mi.index_rank(7, k)
    incl = np.array([r7k[tuple(i + 1 for i in I)] for I in mi.index_sets(6, k)])
    r7k1 = mi.index_rank(7, k + 1)
    dsw = np.array([r7k1[(0,) + tuple(i + 1 for i in I)] for I in mi.index_sets(6, k)])
    return incl, dsw


def embed_form(a: KForm) -> KForm:
    """Include a k-form on R^6 into R^7 = <ds> + R^6, no ds component."""
    if a.dim != 6:
        raise DimensionMismatch("embed_form expects a form on R^6")
    incl, _ = _embed_tables(a.degree)
    out = np.zeros(a.coeffs.shape[:-1] + (mi.ncomp(7, a.degree),), dtype=a.coeffs.dtype)
    out[..., incl] = a.coeffs
    return KForm(7, a.degree, out)


def ds_wedge(a: KForm) -> KForm:
    """ds ^ (included a) for a k-form a on R^6."""
    if a.dim != 6:
        raise DimensionMismatch("ds_wedge expects a form on R^6")
    _, dsw = _embed_tables(a.degree)
    out = np.zeros(a.coeffs.shape[:-1] + (mi.ncomp(7, a.degree + 1),), dtype=a.coeffs.dtype)
    out[..., dsw] = a.coeffs
    return KForm(7, a.degree + 1, out)


def _bilinear_candidate(coeffs: np.ndarray) -> np.ndarray:
    """B[a,b] = (1/6) * top(iota_a phi ^ iota_b phi ^ phi)."""
    C = mi.contraction_tensor(7, 3)            # (7, 35, 21)
    A = np.einsum("aIJ,...I->...aJ", C, coeffs)
    W22 = mi.wedge_tensor(7, 2, 2)             # (21, 21, 35)
    W43 = mi.wedge_tensor(7, 4, 3)[..., 0]     # (35, 35)
    fourth = np.einsum("...M,LM->...L", coeffs, W43)
    B = np.einsum("...aJ,...bK,JKL,...L->...ab", A, A, W22, fourth) / 6.0
    return B


def metric_from_phi(phi: KForm) -> MetricTensor:
    """Metric of a positive 3-form on R^7, normalized so phi0 gives g0.

    The candidate bilinear form B(u,v) vol = (1/6) iota_u phi ^ iota_v phi
    ^ phi is density-weighted; dividing by det(B)^{1/9} lands in the frame
    where the volume forms agree.  Raises NotPositive3Form when B fails to
    be positive-definite with positive determinant.
    """
    if phi.dim != 7 or phi.degree != 3:
        raise DimensionMismatch("expected a 3-form on R^7")
    if phi.is_complex:
        raise DimensionMismatch("expected a real 3-form")
    B = _bilinear_candidate(phi.coeffs)
    det = np.linalg.det(B)
    if not np.all(det > 0):
        raise NotPositive3Form("candidate bilinear form has nonpositive determinant")
    g = B * (det ** (-1.0 / 9.0))[..., None, None]
    w = np.linalg.eigvalsh(g)
    if not np.all(w[..., 0] > 0):
        raise NotPositive3Form("candidate metric is not positive-definite")
    return MetricTensor(7, g, _checked=True)


@dataclass(frozen=True)
class TorsionSample:
    """Algebraic torsion carrier psi = phi - *_g chi of a product pair,
    with its pointwise norm."""

    psi: KForm
    psi_norm: np.ndarray


def build_phi_chi(omega: KForm, theta1: KForm, theta2: KForm):
    """(phi, chi) = (ds^omega + theta1, omega^omega/2 - ds^theta2) on R^7."""
    for a, k in ((omega, 2), (theta1, 3), (theta2, 3)):
        if a.dim != 6 or a.degree != k:
            raise DimensionMismatch("expected (2-form, 3-form, 3-form) on R^6")
    phi = ds_wedge(omega) + embed_form(theta1)
    chi = embed_form(0.5 * wedge(omega, omega)) - ds_wedge(theta2)
    return phi, chi


def torsion_psi(omega: KForm, Omega: KForm) -> TorsionSample:
    """psi = phi - *_g chi with g = metric_from_phi(phi); zero exactly when
    (omega, Omega) is genuine pointwise Calabi-Yau data."""
    phi, chi = build_phi_chi(omega, Omega.real(), Omega.imag())
    g = metric_from_phi(phi)
    psi = phi - hodge_star(g, chi)
    return TorsionSample(psi, form_norm(g, psi))


def compare_g2(phi: KForm, phi_prime: KForm, g_prime: MetricTensor,
               chi: Optional[KForm] = None):
    """Closeness quantities of two positive 3-forms, measured with g_prime.

    Returns (|phi - phi'|, |g - g'|, |g^-1 - g'^-1|, |*_g phi - chi|) where
    g = metric_from_phi(phi) and chi defaults to *_{g'} phi'.
    """
    e1 = form_norm(g_prime, phi - phi_prime)
    g = metric_from_phi(phi)
    e2, e3 = metric_distances(g, g_prime)
    if chi is None:
        chi = hodge_star(g_prime, phi_prime)
    e4 = form_norm(g_prime, hodge_star(g, phi) - chi)
    return e1, e2, e3, e4
