"""Recovery of an SU(3)-structure from a pointwise (2-form, 3-form) pair.

Given a real 2-form omega and a complex 3-form Omega = theta1 + i theta2 on
R^6, the pipeline extracts the almost complex structure determined by theta1
(when its quartic invariant is negative), the compatible normalized Kaehler
form, and the induced metric, together with the defect numbers measuring how
far the pair is from a genuine Calabi-Yau structure at the point.

Sign convention: the companion 3-form that _acs_batch and SU3Structure
return as theta2_prime is theta2_prime(u, v, w) = -theta1(Ju, v, w),
antisymmetrized, with the sign of J itself fixed so that
theta1 ^ theta2_prime is positively oriented. This is the unique choice
under which the flat pair (omega0, Omega0) recovers the standard complex
structure, theta2_prime = Im(Omega0), and a positive metric
simultaneously. The J-invariant part omega_11 = (omega + omega(J., J.))/2
of omega is returned beside them by _recover_batch.

The recovery is a polynomial in theta1 followed by one square root, one
quotient and one cube root (N. Hitchin, The geometry of three-forms in six
dimensions, J. Diff. Geom. 55, 2000), so its derivative along a variation
of Omega is exact in forward mode. Hitchin's identities fix everything
but K: for a stable theta1, K^2 = lam 1, so J = -K / sqrt(-lam) squares to
-1, and theta1 ^ theta2_prime = 2 sqrt(-lam) vol exactly. The sign of J is
the same on every stable theta1: the sign of theta1 ^ theta2_prime is
invariant under GL(6), and the stable forms make up one orbit. Given
directions, _recover_batch carries the tangent in the same pass: dK is
one product per sample with theta1 @ _K_POLAR, a constant table built
once at import from the polarization of the quadratic form K(theta1),
the pairing moves by tr(J dK) / 3, and every other factor is read off the
value pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _multiindex as mi
from .errors import DimensionMismatch, NotPositive, NotStable
from .forms import (KForm, LinearMap, MetricTensor, form_norm,
                    gershgorin_certified, metric_distances, wedge)

__all__ = [
    "SU3Structure", "NearlyCYReport", "Prop32Record",
    "recover_su3", "check_prop32",
]

_STABLE_RTOL = 1e-13
_POS_RTOL = 1e-12
# (-1)^i, the sign of row i of K
_K_SIGN = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])


@dataclass(frozen=True)
class SU3Structure:
    """Pointwise SU(3)-structure data recovered from (omega, Omega)."""

    J_prime: LinearMap
    omega_prime: KForm
    theta2_prime: KForm
    g_M: MetricTensor
    f: np.ndarray


@dataclass(frozen=True)
class NearlyCYReport:
    """Defect numbers for a pointwise (omega, Omega) pair.

    All norms are taken with the recovered metric g_M.  ``stable`` records
    that the construction itself succeeded; ``within_eps0`` compares the
    defects against the configured nearly-Calabi-Yau threshold.
    """

    defect_theta2: np.ndarray
    defect_omega20: np.ndarray
    defect_normalization: np.ndarray
    f_deviation: np.ndarray
    stable: bool
    within_eps0: bool
    eps0: float = 0.2


@dataclass(frozen=True)
class Prop32Record:
    """Metric comparison of a perturbed pair against a reference structure."""

    metric_diff: np.ndarray
    inverse_diff: np.ndarray
    eps: np.ndarray
    ratio: np.ndarray


_W22 = mi.wedge_tensor(6, 2, 2)
_W24 = mi.wedge_tensor(6, 2, 4)[..., 0]
# signed table taking a 2-form's 15 coefficients to its flat (6, 6) tensor;
# its transpose takes a flat (6, 6) array X to the coefficients of X - X^T
_TWO_FORM = mi.coeffs_to_tensor(np.eye(15), 6, 2).reshape(15, 36)


def _iota_table(coeffs: np.ndarray) -> np.ndarray:
    """Row a holds the 15 coefficients of iota_{e_a} theta, batched over
    leading axes; each entry is zero or one coefficient of theta, signed."""
    C = mi.contraction_tensor(6, 3)          # (6, 20, 15)
    return (coeffs @ C.transpose(1, 0, 2).reshape(20, 90)).reshape(
        coeffs.shape[:-1] + (6, 15))


def _k_endomorphism(coeffs: np.ndarray, t1: np.ndarray) -> np.ndarray:
    """K with iota_{K(v)} vol = iota_v theta ^ theta, batched over leading
    axes, from theta and its table t1 = _iota_table(theta).

    t1 may be the table of another 3-form eta, for the K of
    iota_v eta ^ theta, or a stack of such tables on axes between the
    batch axes of coeffs and its own two, for one K per table.
    """
    W = mi.wedge_tensor(6, 2, 3)             # (15, 20, 6)
    # mu[..., a, m] = coefficients of iota_{e_a} theta ^ theta,
    # assembled as a vector-matrix product and a batched matmul
    t2 = (coeffs @ W.transpose(1, 0, 2).reshape(20, 90)).reshape(
        coeffs.shape[:-1] + (15, 6))
    mu = (t1.reshape(coeffs.shape[:-1] + (-1, 15)) @ t2).reshape(
        t1.shape[:-2] + (6, 6))
    # the 5-form omitting index i sits at storage position 5 - i, so row i
    # of K is (-1)^i times column 5 - i of mu
    return np.swapaxes(mu[..., ::-1], -1, -2) * _K_SIGN[:, None]


@lru_cache(maxsize=None)
def _companion_positions() -> np.ndarray:
    """Flat positions in a (6, 15) table of (a, bc), (c, ab) and (b, ac),
    for each increasing (a, b, c) in storage order, as three rows of 20."""
    rank = mi.index_rank(6, 2)
    return np.array(
        [15 * I[p] + rank[I[q], I[s]] for p, q, s in
         ((0, 1, 2), (2, 0, 1), (1, 0, 2)) for I in mi.index_sets(6, 3)],
        dtype=np.intp)


def _theta2(J: np.ndarray, t1: np.ndarray) -> np.ndarray:
    """-theta(J., ., .), antisymmetrized, from the table t1 of theta."""
    # P[..., d, bc] = theta(J e_d, e_b, e_c)
    P = np.swapaxes(J, -1, -2) @ t1
    lead = P.shape[:-2]
    # P is antisymmetric in b, c, so the alternation is the cyclic mean
    # (P[a, bc] + P[c, ab] - P[b, ac]) / 3
    cyc = P.reshape(lead + (90,))[..., _companion_positions()].reshape(
        lead + (3, 20))
    return -((cyc[..., 0, :] + cyc[..., 1, :]) - cyc[..., 2, :]) / 3.0


def _polarization_table() -> np.ndarray:
    """_K_POLAR (20, 20 * 36): the polarization Q + Q^T of the quadratic
    form K(theta)^T = sum_ab theta_a theta_b Q[a, b], so that K(theta)^T =
    theta . (theta @ _K_POLAR) / 2, assembled by one batched call of
    _k_endomorphism on basis elements. It gives K transposed because the
    tangent needs dJ^T."""
    E20 = np.eye(20)
    Q = _k_endomorphism(E20, np.broadcast_to(_iota_table(E20),
                                             (20, 20, 6, 15)))
    table = np.swapaxes(Q + Q.transpose(1, 0, 2, 3), -1, -2).reshape(20, 720)
    table.setflags(write=False)
    return table


_K_POLAR = _polarization_table()


def _acs_batch(coeffs: np.ndarray) -> dict:
    """The almost complex structure of theta, its companion and the
    scalars that fix them, without raising; J and theta2_prime are
    garbage where unstable.

    The table of iota_{e_a} theta builds both K and theta2_prime;
    J = -K / sqrt(-lam), and pairing, the coefficient of theta ^
    theta2_prime on the volume form, is 2 sqrt(-lam) (module docstring).
    Returned as a dict of J, lam, stable, theta2_prime and pairing, with
    sqrt_neg_lam, the sqrt(-lam) that divides K (1 where unstable, so
    that pairing is 2 there).
    """
    t1 = _iota_table(coeffs)
    K = _k_endomorphism(coeffs, t1)
    lam = np.einsum("...ij,...ji->...", K, K) / 6.0
    scale = np.einsum("...i,...i->...", coeffs, coeffs)  # |theta|^2, flat frame
    stable = lam < -_STABLE_RTOL * (scale ** 2 + 1e-300)
    denom = np.sqrt(np.where(stable, -lam, 1.0))
    J = -K / denom[..., None, None]
    return {"J": J, "lam": lam, "stable": stable,
            "theta2_prime": _theta2(J, t1), "pairing": 2.0 * denom,
            "sqrt_neg_lam": denom}


def _wedge_square(om: np.ndarray) -> np.ndarray:
    """om ^ om for a batch of 2-forms."""
    tmp = om @ _W22.reshape(15, 225)
    tmp = tmp.reshape(tmp.shape[:-1] + (15, 15))
    return (om[..., None, :] @ tmp)[..., 0, :]


def _recover_batch(omega_c: np.ndarray, Omega_c: np.ndarray,
                   dOmega_c: np.ndarray | None = None) -> dict:
    """Vectorized recovery pipeline on raw coefficient arrays, and its
    tangent along the directions dOmega_c when they are given.

    omega_c may be unbatched, one 2-form for every sample of Omega_c, as
    the flat Kaehler form is on the neck; it broadcasts against J.
    theta2_prime is read off the table of iota_{e_a} theta1 that builds J.

    Returns a dict of arrays: the recovered fields and the values of
    _acs_batch. ``stable`` and ``positive`` are masks rather than raised
    errors so grid evaluations can report the offending sample
    (_raise_failures turns them into errors); f, like J, is garbage on
    the samples that are not stable, and the masks decide. ``positive``
    is the eigenvalue rule w_min > _POS_RTOL max|w| on the samples with
    f > 0. A Gershgorin certificate decides it without an eigensolve
    wherever it can: the rows of g bound w_min from below and max|w| from
    above, and a sample whose bounds clear a margin far above _POS_RTOL
    always passes the rule (argument in forms.gershgorin_certified).

    With J^2 = -1 the metric sym(T' J) of omega_prime's tensor T' is
    scl sym(W J) for the tensor W of omega_c and scl = f^(-1/3): the
    tensor of omega_11 is (W + J^T W J) / 2, and W J is J^T W J J
    transposed.

    With dOmega_c, Omega_c is one batch axis of samples, (n, 20), and
    dOmega_c carries directions on one axis after it, (n, m, 20); the
    dict then also holds the derivatives of omega_prime and g along them
    with omega_c held fixed, d_omega_prime (n, m, 15) and d_g
    (n, m, 6, 6). Only the real parts of Omega_c and dOmega_c enter.
    Forward mode through this pass: K is quadratic in theta, K^T = theta
    . (theta @ _K_POLAR) / 2, so dK^T = dtheta . (theta @ _K_POLAR), one
    product with a per-sample (20, 36) matrix, and d lam = tr(K dK) / 3;
    omega_11 is quadratic in J and omega_11^3 cubic in omega_11.
    J = -K / sqrt(-lam), pairing = 2 sqrt(-lam), f = omega_11^3 /
    (3/2 pairing), omega_prime = omega_11 scl and g = scl sym(W J)
    follow by the chain rule; the masks are locally constant. The
    derivatives are garbage where the sample is not stable and positive.
    """
    theta = np.real(Omega_c)
    acs = _acs_batch(theta)
    J = acs["J"]

    # omega(J., J.) has the tensor J^T W J of omega's tensor W
    W = mi.coeffs_to_tensor(omega_c, 6, 2)
    WJ = W @ J
    om11 = 0.5 * (omega_c + mi.tensor_to_coeffs(
        np.swapaxes(J, -1, -2) @ WJ, 6, 2))

    om11_sq = _wedge_square(om11)
    num = np.einsum("...k,...k->...", om11 @ _W24, om11_sq)
    # omega'^3 = (3/2) theta1 ^ theta2_prime fixes the scale f
    den = 1.5 * acs["pairing"]
    f = num / den

    positive_f = np.where(acs["stable"], f > 0, False)
    scl = np.where(positive_f, np.abs(f), 1.0) ** (-1.0 / 3.0)
    sym_WJ = 0.5 * (WJ + np.swapaxes(WJ, -1, -2))
    g = scl[..., None, None] * sym_WJ
    out = {
        **acs, "f": f, "omega_11": om11,
        "omega_prime": om11 * scl[..., None],
        "g": g, "positive": _positive_metric(g, positive_f),
    }
    if dOmega_c is None:
        return out

    dtheta = np.real(dOmega_c)
    n, m = dtheta.shape[:2]
    # J = -K / s with s = sqrt(-lam), and d lam = tr(K dK) / 3 =
    # -s tr(J dK) / 3, give ds = tr(J dK) / 6, d pairing = tr(J dK) / 3
    # and dJ = -(dK + J tr(J dK) / 6) / s. K is quadratic in theta, so
    # -dK^T / s comes from theta scaled by -1 / s
    s = acs["sqrt_neg_lam"]
    dJt = (dtheta @ ((theta / -s[:, None]) @ _K_POLAR).reshape(
        n, 20, 36)).reshape(n, m, 6, 6)
    tr_s = np.einsum("nij,nmij->nm", J, dJt)
    dJt += np.swapaxes(J, -1, -2)[:, None] * (tr_s / 6.0)[..., None, None]
    dJt = dJt.reshape(n, 6 * m, 6)

    # d(J^T W J) = X - X^T with X = dJ^T W J: one product with the signed
    # (36, 15) table _TWO_FORM.T
    X = (dJt @ WJ).reshape(n, m, 36)
    dom11 = X @ (0.5 * _TWO_FORM.T)
    dnum = 3.0 * np.einsum("nmk,nk->nm", dom11 @ _W24, om11_sq)
    df = (dnum + (0.5 * f * s)[:, None] * tr_s) / den[:, None]

    dscl = np.where(positive_f, -scl / (3.0 * np.where(positive_f, f, 1.0)),
                    0.0)[:, None] * df
    out["d_omega_prime"] = (dom11 * scl[:, None, None]
                            + om11[:, None] * dscl[..., None])
    # sym(W dJ) = -sym(dJ^T W), W antisymmetric
    Y = (dJt @ W).reshape(n, m, 6, 6)
    d_g = Y + np.swapaxes(Y, -1, -2)
    d_g *= (-0.5 * scl)[:, None, None, None]
    d_g += dscl[..., None, None] * sym_WJ[:, None]
    out["d_g"] = d_g
    return out


def _positive_metric(g: np.ndarray, candidate: np.ndarray) -> np.ndarray:
    """Mask of the candidate samples whose symmetric metric g has
    w_min > _POS_RTOL max|w| for its eigenvalues w.

    The candidates that forms.gershgorin_certified certifies pass without
    an eigensolve; only the remaining candidates go to eigvalsh.
    """
    gf = g.reshape((-1, 6, 6))
    cand = candidate.reshape(-1)
    positive = cand & gershgorin_certified(gf)
    todo = cand & ~positive
    if np.any(todo):
        w = np.linalg.eigvalsh(gf[todo])
        positive[todo] = w[:, 0] > _POS_RTOL * np.max(np.abs(w), axis=-1)
    return positive.reshape(candidate.shape)


def _raise_failures(masks: dict, nbatch=None):
    """Raise NotStable, then NotPositive, at the first sample whose
    ``stable`` or ``positive`` entry of masks is False. Its sample_index
    is the sample's last nbatch indices, or all of them when nbatch is
    None."""
    for key, error in (("stable", NotStable), ("positive", NotPositive)):
        if key in masks and not np.all(masks[key]):
            bad = np.argwhere(~np.atleast_1d(masks[key]))[0].tolist()
            if nbatch is not None:
                bad = bad[len(bad) - nbatch:]
            raise error(f"recovery not {key} at sample {bad}",
                        sample_index=bad)


def recover_su3(omega: KForm, Omega: KForm, eps0: float = 0.2):
    """Full pointwise recovery.

    Parameters
    ----------
    omega : real 2-form on R^6
    Omega : complex 3-form on R^6
    eps0 : threshold used only for the report flag ``within_eps0``.

    Returns
    -------
    (SU3Structure, NearlyCYReport)

    Raises
    ------
    NotStable
        when Re(Omega) has nonnegative quartic invariant at some sample.
    NotPositive
        when the normalized (1,1) part fails positivity at some sample.
    """
    if omega.dim != 6 or omega.degree != 2:
        raise DimensionMismatch("omega must be a 2-form on R^6")
    if Omega.dim != 6 or Omega.degree != 3:
        raise DimensionMismatch("Omega must be a 3-form on R^6")
    Omega_c = Omega.coeffs.astype(np.complex128, copy=False)
    out = _recover_batch(omega.coeffs, Omega_c)
    _raise_failures(out)

    J = LinearMap(out["J"])
    omega_p = KForm(6, 2, out["omega_prime"])
    t2p = KForm(6, 3, out["theta2_prime"])
    g = MetricTensor(6, out["g"], _checked=True)
    struct = SU3Structure(J, omega_p, t2p, g, out["f"])

    theta1, theta2 = Omega.real(), Omega.imag()
    d_t2 = form_norm(g, theta2 - t2p)
    d_20 = form_norm(g, omega - KForm(6, 2, out["omega_11"]))
    lhs = wedge(wedge(omega, omega), omega)
    rhs = 1.5 * wedge(theta1, theta2)
    d_norm = form_norm(g, lhs - rhs)
    f_dev = np.abs(out["f"] - 1.0)
    within = bool(np.all(d_t2 < eps0) and np.all(d_20 < eps0)
                  and np.all(d_norm < eps0) and np.all(f_dev < eps0))
    report = NearlyCYReport(d_t2, d_20, d_norm, f_dev,
                            stable=True, within_eps0=within, eps0=eps0)
    return struct, report


def check_prop32(omega: KForm, Omega: KForm,
                 omega_ref: KForm, Omega_ref: KForm) -> Prop32Record:
    """Compare the recovered metric of (omega, Omega) against the metric of a
    reference pair, both measured with the reference metric.

    The ratio field reports max(metric_diff, inverse_diff) / eps where eps is
    the larger input deviation; it is the empirical comparison constant and
    is nan when the inputs coincide.
    """
    ref, _ = recover_su3(omega_ref, Omega_ref)
    cur, _ = recover_su3(omega, Omega)
    g_ref = ref.g_M
    eps = np.maximum(form_norm(g_ref, omega - omega_ref),
                     form_norm(g_ref, Omega - Omega_ref))
    d_g, d_ginv = metric_distances(cur.g_M, g_ref)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(eps > 0, np.maximum(d_g, d_ginv) / np.where(eps > 0, eps, 1.0), np.nan)
    return Prop32Record(d_g, d_ginv, eps, ratio)
