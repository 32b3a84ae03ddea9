"""Radial splitting, radial primitives, and the Moser flow chart."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cyglue.cones as cn
import cyglue.moser as mo
from cyglue import _multiindex as mi
from cyglue import analysis as an
from cyglue import cli
from cyglue.analysis import fd_exterior_derivative
from cyglue.errors import (ConfigInvalid, Degenerate, DomainEscape, NotClosed,
                           RateOutOfRange)
from cyglue.forms import KForm, contract, wedge

ROOT = Path(__file__).resolve().parents[1]
C_VEC = np.array([0.3, -0.7, 0.2, 0.5, -0.4, 0.6])


def unit_dirs(n, seed, radius=1.0):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, 6))
    return radius * v / np.linalg.norm(v, axis=-1, keepdims=True)


def fit_slope(radii, values):
    return np.polyfit(np.log(radii), np.log(values), 1)[0]


def beta_field(y):
    # the link 1-form d(c . xhat), closed and radially tangential
    r = np.linalg.norm(y, axis=-1, keepdims=True)
    xh = y / r
    return KForm(6, 1, (C_VEC - xh * (xh @ C_VEC)[..., None]) / r)


def eta_weight(w, amp=1.0):
    # amp * d(r^w beta) = amp w r^(w-1) dr ^ beta, exactly closed
    def f(y):
        r = np.linalg.norm(y, axis=-1)
        dr = KForm(6, 1, y / r[..., None])
        return wedge(dr, beta_field(y)) * (amp * w * r ** (w - 1))
    return f


def weighted_primitive(w, x, amp=1.0):
    r = np.linalg.norm(x, axis=-1)
    return beta_field(x) * (amp * r ** w)


def not_closed_field(y):
    y = np.asarray(y, float)
    co = np.zeros(y.shape[:-1] + (15,))
    co[..., 0] = y[..., 2]
    return KForm(6, 2, co)


class TestSplitForm:

    def setup_method(self):
        self.cone = cn.flat_c3_cone()
        self.x = unit_dirs(5, seed=3, radius=0.8)

    def test_kahler_form_split(self):
        def om(y):
            return self.cone.fields_at(y).omega
        sp = mo.split_form(om, self.x)
        assert sp.closure_residual == 0.0
        assert sp.compatibility_residual < 1e-12
        # eta1 = iota_xhat omega = r alpha, normalized by alpha(Z) = 1
        r = np.linalg.norm(self.x, axis=-1)
        Z = self.x @ cn.J_STANDARD.T
        pair = np.einsum("...i,...i->...", sp.eta1.coeffs, Z)
        assert np.abs(pair / r - 1.0).max() < 1e-14
        # eta0 is tangential and the pieces reassemble the input
        xh = self.x / r[..., None]
        assert np.abs(contract(xh, sp.eta0).coeffs).max() < 1e-14
        back = sp.eta0 + wedge(KForm(6, 1, xh), sp.eta1)
        assert np.abs(back.coeffs - om(self.x).coeffs).max() < 1e-14

    def test_weighted_link_form_split(self):
        # d(r^2 beta) is purely radial: eta1 = 2 r beta, eta0 = 0
        sp = mo.split_form(eta_weight(2.0), self.x, h=1e-4)
        want = weighted_primitive(1.0, self.x) * 2.0
        assert np.abs(sp.eta1.coeffs - want.coeffs).max() < 1e-13
        assert np.abs(sp.eta0.coeffs).max() < 1e-13
        assert sp.compatibility_residual < 1e-6

    def test_zero_field(self):
        def zero(y):
            return KForm(6, 2, np.zeros(np.asarray(y).shape[:-1] + (15,)))
        sp = mo.split_form(zero, self.x)
        assert sp.closure_residual == 0.0
        assert np.abs(sp.eta0.coeffs).max() == 0.0
        assert np.abs(sp.eta1.coeffs).max() == 0.0

    def test_unpacking(self):
        def om(y):
            return self.cone.fields_at(y).omega
        e0, e1 = mo.split_form(om, self.x)
        assert e0.degree == 2 and e1.degree == 1

    def test_not_closed_raises(self):
        with pytest.raises(NotClosed):
            mo.split_form(not_closed_field, self.x)


class TestRadialPrimitive:

    def setup_method(self):
        self.x = unit_dirs(5, seed=3, radius=0.8)
        self.r = np.linalg.norm(self.x, axis=-1)

    def test_from_zero_reproduces_weighted_form(self):
        # for eta = d(r^4 beta) the homotopy returns exactly r^4 beta
        prim = mo.radial_primitive(eta_weight(4.0), "from_zero", 2.0)
        sig = prim(self.x)
        assert np.abs(sig.coeffs - weighted_primitive(4.0, self.x).coeffs).max() < 1e-12

    def test_from_zero_d_sigma_is_eta(self):
        prim = mo.radial_primitive(eta_weight(4.0), "from_zero", 2.0)
        d_sig = fd_exterior_derivative(prim, self.x, 1e-4)
        eta = eta_weight(4.0)(self.x)
        assert np.abs(d_sig.coeffs - eta.coeffs).max() < 1e-7

    def test_from_infinity_reproduces_weighted_form(self):
        prim = mo.radial_primitive(eta_weight(-2.0), "from_infinity", -4.0,
                                   fd_h=1e-4)
        sig = prim(self.x)
        assert np.abs(sig.coeffs - weighted_primitive(-2.0, self.x).coeffs).max() < 1e-12

    def test_from_infinity_decay_slope(self):
        prim = mo.radial_primitive(eta_weight(-2.0), "from_infinity", -4.0,
                                   fd_h=1e-4)
        radii = np.array([2.0, 4.0, 8.0])
        dirs = unit_dirs(6, seed=5)
        mags = []
        for rv in radii:
            s = prim(rv * dirs)
            mags.append(np.sqrt((s.coeffs ** 2).sum(-1)).max())
        assert abs(fit_slope(radii, mags) - (-3.0)) < 0.3

    def test_degree_three_primitive(self):
        # the synthetic orbifold perturbation dA recovers its primitive A
        patch = cn.t6_z3_orbifold_patch(0)
        pert = patch.synthetic_perturbation(nu=2.0, amplitude=0.05, seed=1)
        pts = unit_dirs(4, seed=7, radius=0.1)
        prim = mo.radial_primitive(pert.dA, "from_zero", 2.0,
                                   check_points=pts, fd_h=1e-5)
        sig = prim(pts)
        want = pert.primitive_A(pts)
        assert sig.degree == 2
        assert np.abs(sig.coeffs - want.coeffs).max() < 1e-10

    @pytest.mark.parametrize("direction,rate", [
        ("from_zero", 0.0),
        ("from_zero", -1.0),
        ("from_infinity", -2.0),
        ("from_infinity", -0.5),
    ])
    def test_rate_refusals(self, direction, rate):
        with pytest.raises(RateOutOfRange):
            mo.radial_primitive(eta_weight(4.0), direction, rate)

    def test_bad_direction(self):
        with pytest.raises(ConfigInvalid):
            mo.radial_primitive(eta_weight(4.0), "sideways", 2.0)

    def test_not_closed_probe(self):
        with pytest.raises(NotClosed):
            mo.radial_primitive(not_closed_field, "from_zero", 2.0)

    def test_zero_field(self):
        def zero(y):
            return KForm(6, 2, np.zeros(np.asarray(y).shape[:-1] + (15,)))
        prim = mo.radial_primitive(zero, "from_zero", 1.0)
        assert np.abs(prim(self.x).coeffs).max() == 0.0

    def test_non_homogeneous_data_take_quadrature(self, monkeypatch):
        calls, quad_vec = [], mo.quad_vec

        def counted_quad_vec(*args, **kwargs):
            calls.append(1)
            return quad_vec(*args, **kwargs)

        monkeypatch.setattr(mo, "quad_vec", counted_quad_vec)
        # a sum of two rates is closed but homogeneous of no degree
        e4, e5 = eta_weight(4.0), eta_weight(5.0)
        prim = mo.radial_primitive(lambda y: e4(y) + e5(y), "from_zero", 2.0)
        want = (weighted_primitive(4.0, self.x).coeffs
                + weighted_primitive(5.0, self.x).coeffs)
        assert np.abs(prim(self.x).coeffs - want).max() < 1e-12
        assert calls
        # a mis-stated rate fails the homogeneity probe, not the primitive
        calls.clear()
        exact = mo.radial_primitive(e4, "from_zero", 2.0)(self.x)
        assert not calls
        misstated = mo.radial_primitive(e4, "from_zero", 1.0)(self.x)
        assert calls
        assert np.abs(misstated.coeffs - exact.coeffs).max() < 1e-12


class TestMoserVectorField:

    def setup_method(self):
        self.cone = cn.flat_c3_cone()
        self.x = unit_dirs(5, seed=3, radius=0.8)
        self.om = self.cone.fields_at(self.x).omega

    def test_radial_sigma_gives_reeb(self):
        # sigma = r dr pairs with iota(Z) omega = -r dr, so X = +Z
        sigma = KForm(6, 1, self.x.copy())
        X = mo.moser_vector_field(sigma, self.om)
        assert np.abs(X - self.x @ cn.J_STANDARD.T).max() == 0.0
        assert np.abs(contract(X, self.om).coeffs + self.x).max() == 0.0

    def test_zero_sigma(self):
        sigma = KForm(6, 1, np.zeros((5, 6)))
        X = mo.moser_vector_field(sigma, self.om)
        assert np.abs(X).max() == 0.0

    def test_linear_residual(self):
        rng = np.random.default_rng(11)
        sigma = KForm(6, 1, 0.1 * rng.standard_normal((5, 6)))
        om_t = self.om + eta_weight(4.0, amp=0.2)(self.x)
        X = mo.moser_vector_field(sigma, om_t)
        resid = sigma.coeffs + contract(X, om_t).coeffs
        assert np.abs(resid).max() < 1e-12

    def test_degenerate_raises(self):
        rank2 = KForm(6, 2, np.zeros((5, 15)))
        rank2.coeffs[:, 0] = 1.0
        with pytest.raises(Degenerate) as err:
            mo.moser_vector_field(KForm(6, 1, self.x.copy()), rank2)
        assert err.value.sample_index == [0]

    @pytest.mark.parametrize("offset,raises", [(-1e-3, True), (1e-3, False)])
    def test_degeneracy_boundary(self, offset, raises):
        # dx0^dx1 + dx2^dx3 + s dx4^dx5: singular values (1, 1, s), twice
        s = mo._DEGENERACY_RATIO * (1.0 + offset)
        om = KForm(6, 2, mi.tensor_to_coeffs(np.array([
            [0, 1, 0, 0, 0, 0], [-1, 0, 0, 0, 0, 0],
            [0, 0, 0, 1, 0, 0], [0, 0, -1, 0, 0, 0],
            [0, 0, 0, 0, 0, s], [0, 0, 0, 0, -s, 0]], float), 6, 2))
        sigma = KForm(6, 1, np.ones(6))
        if raises:
            with pytest.raises(Degenerate):
                mo.moser_vector_field(sigma, om)
        else:
            X = mo.moser_vector_field(sigma, om)
            assert np.abs(sigma.coeffs + contract(X, om).coeffs).max() < 1e-9


def two_forms_with_singular_values(s, Q):
    """2-forms Q D Q^T with D the blocks [[0, s_i], [-s_i, 0]]: singular
    values s_i, each twice."""
    D = np.zeros(s.shape[:-1] + (6, 6))
    for i in range(3):
        D[..., 2 * i, 2 * i + 1] = s[..., i]
        D[..., 2 * i + 1, 2 * i] = -s[..., i]
    return KForm(6, 2, mi.tensor_to_coeffs(Q @ D @ np.swapaxes(Q, -1, -2),
                                           6, 2))


def degeneracy_rule(om):
    # the eigenvalue rule moser_vector_field applies to W^T W
    W = om.as_tensor()
    ev = np.linalg.eigvalsh(np.swapaxes(W, -1, -2) @ W)
    return ev[..., 0] < mo._DEGENERACY_RATIO ** 2 * ev[..., -1]


class TestDegeneracyCertificate:
    """The invariant certificate against the eigenvalue rule it skips."""

    def _batch(self, n_certified, s_min):
        # n_certified near-Kaehler forms, then rotated forms with singular
        # values (2, u, s_min) for u in [0.5, 2]
        rng = np.random.default_rng(43)
        x = unit_dirs(n_certified, seed=5, radius=0.7)
        near = (cn.flat_c3_cone().fields_at(x).omega.coeffs
                + 0.02 * rng.standard_normal((n_certified, 15)))
        s = np.stack([np.full(len(s_min), 2.0),
                      rng.uniform(0.5, 2.0, len(s_min)), s_min], axis=-1)
        Q, _ = np.linalg.qr(rng.standard_normal((len(s_min), 6, 6)))
        rotated = two_forms_with_singular_values(s, Q).coeffs
        om = KForm(6, 2, np.concatenate([near, rotated]))
        sigma = KForm(6, 1, rng.standard_normal((len(om.coeffs), 6)))
        return sigma, om

    def test_certified_batch_skips_the_eigensolve(self, count_eigvalsh):
        sigma, om = self._batch(12, np.empty(0))
        sent = count_eigvalsh()
        X = mo.moser_vector_field(sigma, om)
        assert not sent
        assert np.abs(sigma.coeffs + contract(X, om).coeffs).max() < 1e-12

    def test_only_uncertified_rows_reach_eigvalsh(self, count_eigvalsh):
        # singular value ratios 1e-4 and 2e-5: nondegenerate, but below
        # the reach of the invariant certificate
        sigma, om = self._batch(12, np.array([2e-4, 4e-5, 2e-4, 4e-5]))
        W = om.as_tensor()
        A = np.swapaxes(W, -1, -2) @ W
        sent = count_eigvalsh()
        X = mo.moser_vector_field(sigma, om)
        assert len(sent) == 1
        assert np.array_equal(sent[0], A[12:])
        assert np.abs(sigma.coeffs + contract(X, om).coeffs).max() < 1e-6

    def test_verdict_equals_eigenvalue_rule(self, count_eigvalsh):
        # smallest singular value within 1 % of the threshold on either side
        sides = np.where(np.arange(16) % 2, 1.0, -1.0)
        sigma, om = self._batch(
            12, mo._DEGENERACY_RATIO * 2.0 * (1.0 + 0.01 * sides))
        rule = degeneracy_rule(om)
        assert not np.any(rule[:12])
        assert np.any(rule[12:]) and not np.all(rule[12:])
        # each rotated form, judged alone after the certified ones
        for i in range(12, len(rule)):
            keep = np.r_[np.arange(12), i]
            one_sigma = KForm(6, 1, sigma.coeffs[keep])
            one_om = KForm(6, 2, om.coeffs[keep])
            if rule[i]:
                with pytest.raises(Degenerate) as err:
                    mo.moser_vector_field(one_sigma, one_om)
                assert err.value.sample_index == [12]
            else:
                mo.moser_vector_field(one_sigma, one_om)
        # the whole batch names its first degenerate sample and the
        # smallest singular value ratio
        W = om.as_tensor()
        ev = np.linalg.eigvalsh(np.swapaxes(W, -1, -2) @ W)
        ratio = np.sqrt(np.clip(ev[:, 0], 0.0, None) / ev[:, -1])
        sent = count_eigvalsh()
        with pytest.raises(Degenerate) as err:
            mo.moser_vector_field(sigma, om)
        assert err.value.sample_index == [int(np.argmax(rule))]
        assert f"{float(np.min(ratio)):.2e}" in str(err.value)
        assert len(sent) == 1 and len(sent[0]) == 16

    def test_unbatched_form(self, count_eigvalsh):
        sigma, om = self._batch(1, np.array([1e-8]))
        sent = count_eigvalsh()
        X = mo.moser_vector_field(KForm(6, 1, sigma.coeffs[0]),
                                  KForm(6, 2, om.coeffs[0]))
        assert X.shape == (6,)
        assert not sent
        with pytest.raises(Degenerate) as err:
            mo.moser_vector_field(KForm(6, 1, sigma.coeffs[1]),
                                  KForm(6, 2, om.coeffs[1]))
        assert err.value.sample_index == [0]
        assert len(sent) == 1 and sent[0].shape == (1, 6, 6)


def well_conditioned_forms(n, seed):
    """n rotated 2-forms with singular values in [0.5, 2]."""
    rng = np.random.default_rng(seed)
    s = rng.uniform(0.5, 2.0, (n, 3))
    Q, _ = np.linalg.qr(rng.standard_normal((n, 6, 6)))
    return two_forms_with_singular_values(s, Q)


class TestPfaffianSolve:
    """The closed-form solve and its invariants against linear algebra."""

    def test_invariants_are_symmetric_functions_of_the_spectrum(self):
        om = well_conditioned_forms(40, seed=7)
        q, pf, _ = mo._pfaffian_invariants(om.coeffs)
        assert np.allclose(q, (wedge(om, om) * 0.5).coeffs,
                           rtol=0.0, atol=1e-13)
        assert np.allclose(pf, wedge(om, KForm(6, 4, q)).coeffs[:, 0] / 3.0,
                           rtol=0.0, atol=1e-13)
        W = om.as_tensor()
        # each eigenvalue of W^T W appears twice; keep one of each pair
        ev = np.linalg.eigvalsh(np.swapaxes(W, -1, -2) @ W)[:, ::2]
        e1 = ev.sum(axis=-1)
        e2 = ev[:, 0] * ev[:, 1] + ev[:, 0] * ev[:, 2] + ev[:, 1] * ev[:, 2]
        e3 = ev.prod(axis=-1)
        for got, want in ((np.sum(om.coeffs ** 2, axis=-1), e1),
                          (np.sum(q ** 2, axis=-1), e2), (pf ** 2, e3)):
            assert np.abs(got / want - 1.0).max() < 1e-12

    def test_matches_the_linear_solve(self):
        om = well_conditioned_forms(40, seed=8)
        rng = np.random.default_rng(9)
        sigma = KForm(6, 1, rng.standard_normal((40, 6)))
        X = mo.moser_vector_field(sigma, om)
        W = om.as_tensor()
        want = np.linalg.solve(np.swapaxes(W, -1, -2),
                               -sigma.coeffs[..., None])[..., 0]
        assert np.abs(X - want).max() < 1e-12 * np.abs(want).max()
        assert np.abs(sigma.coeffs + contract(X, om).coeffs).max() < 1e-12

    def test_no_linear_solve(self, monkeypatch):
        calls = []
        solve = np.linalg.solve

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)
        monkeypatch.setattr(np.linalg, "solve", counted)
        # certified samples, then ratios 1e-4 that go to the eigensolve
        s = np.array([[1.0, 1.0, 1.0], [2.0, 1.0, 2e-4]])
        om = two_forms_with_singular_values(s, np.eye(6))
        X = mo.moser_vector_field(KForm(6, 1, np.ones((2, 6))), om)
        assert not calls
        assert np.abs(1.0 + contract(X, om).coeffs).max() < 1e-9

    def test_certified_samples_pass_the_eigenvalue_rule(self):
        # singular values (2, u, s): the certificate's bound
        # Pf^2 / (|omega|^2 |q|^2) crosses _CERT_MARGIN inside the batch
        rng = np.random.default_rng(21)
        n = 64
        s = np.stack([np.full(n, 2.0), rng.uniform(0.5, 2.0, n),
                      np.logspace(-3.5, -1.5, n)], axis=-1)
        Q, _ = np.linalg.qr(rng.standard_normal((n, 6, 6)))
        om = two_forms_with_singular_values(s, Q)
        q, pf, certified = mo._pfaffian_invariants(om.coeffs)
        assert np.any(certified) and not np.all(certified)
        assert not np.any(degeneracy_rule(om)[certified])
        # the bound is below the squared singular value ratio
        W = om.as_tensor()
        ev = np.linalg.eigvalsh(np.swapaxes(W, -1, -2) @ W)
        bound = pf ** 2 / (np.sum(om.coeffs ** 2, axis=-1)
                           * np.sum(q ** 2, axis=-1))
        assert np.all(bound <= ev[:, 0] / ev[:, -1] * (1.0 + 1e-9))

    def test_zero_form_is_degenerate(self):
        om = KForm(6, 2, np.zeros((3, 15)))
        om.coeffs[:2] = well_conditioned_forms(2, seed=4).coeffs
        with pytest.raises(Degenerate) as err:
            mo.moser_vector_field(KForm(6, 1, np.ones((3, 6))), om)
        assert err.value.sample_index == [2]
        assert "ratio 0.00e+00" in str(err.value)


class TestMoserIntegrate:

    def setup_method(self):
        self.cone = cn.flat_c3_cone()

    def test_zero_perturbation_is_identity(self):
        def zero(y):
            return KForm(6, 2, np.zeros(np.asarray(y).shape[:-1] + (15,)))
        res = mo.moser_integrate(self.cone, zero, 1.0, (0.2, 0.8),
                                 steps=8, n_dirs=4, n_radii=2)
        assert np.array_equal(res.images, res.points)
        assert res.pullback_residual < 1e-9
        assert res.halvings == 0
        assert res.shrunk_domain == (0.2, 0.8)

    def test_order_four_convergence(self):
        # rate-3 perturbation: halving the step cuts the residual ~16x
        eta = eta_weight(5.0, amp=0.3)
        r8 = mo.moser_integrate(self.cone, eta, 3.0, (0.1, 0.6),
                                steps=8, n_dirs=6, n_radii=4, fd_h=1e-4)
        r16 = mo.moser_integrate(self.cone, eta, 3.0, (0.1, 0.6),
                                 steps=16, n_dirs=6, n_radii=4, fd_h=1e-4)
        ratio = r8.pullback_residual / r16.pullback_residual
        assert 10.0 < ratio < 22.0

    def test_residual_at_reference_steps(self):
        eta = eta_weight(5.0, amp=0.3)
        res = mo.moser_integrate(self.cone, eta, 3.0, (0.1, 0.6),
                                 steps=64, n_dirs=6, n_radii=4, fd_h=1e-4)
        assert res.pullback_residual < 1e-6
        assert res.halvings == 0

    def test_displacement_decay_matches_sigma(self):
        # |psi - id| tracks |sigma| = O(r^(nu+1)) on the sample ladder
        eta = eta_weight(5.0, amp=0.3)
        res = mo.moser_integrate(self.cone, eta, 3.0, (0.1, 0.6),
                                 steps=16, n_dirs=6, n_radii=4, fd_h=1e-4)
        r = np.linalg.norm(res.points, axis=-1)
        disp = np.linalg.norm(res.images - res.points, axis=-1)
        radii = np.unique(np.round(r, 12))
        peak = np.array([disp[np.isclose(r, rv)].max() for rv in radii])
        assert fit_slope(radii, peak) > 4.0 - 0.3

    def test_escape_shrinks_domain(self):
        # a stronger perturbation pushes the outermost samples past r_max
        eta = eta_weight(5.0, amp=1.0)
        res = mo.moser_integrate(self.cone, eta, 3.0, (0.1, 0.6),
                                 steps=16, n_dirs=6, n_radii=4, fd_h=1e-4)
        assert res.halvings == 1
        assert res.shrunk_domain == (0.1, 0.35)
        assert res.pullback_residual < 1e-6

    def test_homogeneous_data_skip_quadrature(self, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("quad_vec called on homogeneous data")
        monkeypatch.setattr(mo, "quad_vec", no_quadrature)
        res = mo.moser_integrate(self.cone, eta_weight(5.0, amp=0.3), 3.0,
                                 (0.1, 0.6), steps=4, n_dirs=2, n_radii=2,
                                 fd_h=1e-4)
        assert res.halvings == 0
        assert res.pullback_residual < 1e-6

    def test_eta_read_once_per_stage(self):
        eta = eta_weight(5.0, amp=0.3)
        calls = []

        def counted(y):
            calls.append(len(y))
            return eta(y)
        # the probes of radial_primitive at moser_integrate's check points
        mo.radial_primitive(counted, "from_zero", 3.0, fd_h=1e-4,
                            check_points=an.shell_grid(0.1, 0.6, 4, 2, 0))
        n_probe = len(calls)
        for steps in (4, 8):
            calls.clear()
            res = mo.moser_integrate(self.cone, counted, 3.0, (0.1, 0.6),
                                     steps=steps, n_dirs=2, n_radii=2,
                                     fd_h=1e-4)
            assert res.halvings == 0
            # four RK4 stages per step, then omega_V + eta at the images
            assert len(calls) == n_probe + 4 * steps + 1

    def test_cone_form_built_once_per_attempt(self, monkeypatch):
        fields_at = cn.ConeGeometry.fields_at
        calls = []

        def counted(cone, y):
            calls.append(len(y))
            return fields_at(cone, y)
        monkeypatch.setattr(cn.ConeGeometry, "fields_at", counted)
        counts = {}
        for steps in (4, 8, 16):
            calls.clear()
            res = mo.moser_integrate(self.cone, eta_weight(5.0, amp=0.3), 3.0,
                                     (0.1, 0.6), steps=steps, n_dirs=2,
                                     n_radii=2, fd_h=1e-4)
            assert res.halvings == 0
            counts[steps] = len(calls)
        # omega_V of the whole batch, then omega_V and g at the points
        assert counts == {4: 2, 8: 2, 16: 2}

    def test_suite_residuals_at_seed_0(self):
        report = cli.run(cli.RunConfig(command="moser", seed=0))
        want = {"8": 6.068271015674588e-08, "16": 4.08812898686384e-09,
                "64": 2.263568766902407e-10}
        # the residuals are below 1e-7, so approx's absolute tolerance
        # decides and rel=1e-12 never would: each value is pinned to 1e-12
        assert report.fitted["residuals"] == pytest.approx(want, abs=1e-12)

    def test_suite_passes_every_check_at_seed_12(self):
        # seed 12's flow reaches r = 0.60015, past r_max = 0.6 but inside
        # the escape annulus, so domain_intact holds
        report = cli.run(cli.RunConfig(command="moser", seed=12))
        assert [c.name for c in report.checks if not c.passed] == []

    def test_suite_passes_every_check_at_seeds_0_to_33(self):
        failed = {}
        for seed in range(34):
            report = cli.run(cli.RunConfig(command="moser", seed=seed))
            failed[seed] = [c.name for c in report.checks if not c.passed]
        assert failed == {seed: [] for seed in range(34)}

    @pytest.mark.parametrize("seed", [0, 12])
    def test_suite_eta_closed_form_matches_wedge(self, seed):
        # the suite's eta = 0.3 d(r^w beta) = 0.3 w r^(w-1) dr ^ beta with
        # beta = d(xhat . c), built here from the wedge it replaces
        rng = np.random.default_rng(seed)
        c = rng.standard_normal(6)
        c /= np.linalg.norm(c)
        y = an.shell_grid(0.05, 1.2, 6, 4, seed + 1)
        r = np.linalg.norm(y, axis=-1)
        xh = y / r[:, None]
        beta = KForm(6, 1, (c - xh * (xh @ c)[:, None]) / r[:, None])
        for nu in (1.5, 3.0):
            eta, w = cli._synthetic_closed_two_form(nu, seed)
            want = (wedge(KForm(6, 1, xh), beta).coeffs
                    * (0.3 * w * r ** (w - 1.0))[:, None])
            got = eta(y).coeffs
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_suite_takes_the_exact_primitive(self, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("quad_vec called by the moser suite")
        monkeypatch.setattr(mo, "quad_vec", no_quadrature)
        for seed in (0, 12):
            report = cli.run(cli.RunConfig(command="moser", seed=seed))
            assert all(c.passed for c in report.checks)

    def test_domain_escape_raises(self):
        eta = eta_weight(5.0, amp=3.0)
        with pytest.raises(DomainEscape) as err:
            mo.moser_integrate(self.cone, eta, 3.0, (0.5, 0.5001),
                               steps=4, n_dirs=2, n_radii=2, fd_h=1e-4)
        # samples are radius-major: sample 1 is the second direction at
        # the inner radius; the first direction alone flows inwards and
        # stays in the chart, so sample 0 never escapes
        assert err.value.sample_index == [1]
        # the message names the annulus the trajectories left, a factor 2
        # outside the sample annulus (0.5, 0.5001) on each side
        assert "escape annulus (0.25, 1.0002)" in str(err.value)
        inward = mo.moser_integrate(self.cone, eta, 3.0, (0.5, 0.5001),
                                    steps=4, n_dirs=1, n_radii=2, fd_h=1e-4)
        assert inward.halvings == 0

    def test_bad_bounds(self):
        def zero(y):
            return KForm(6, 2, np.zeros(np.asarray(y).shape[:-1] + (15,)))
        with pytest.raises(ConfigInvalid):
            mo.moser_integrate(self.cone, zero, 1.0, (0.8, 0.2))
        with pytest.raises(ConfigInvalid):
            mo.moser_integrate(self.cone, zero, 1.0, (0.0, 0.5))


def test_import_and_moser_run_leave_scipy_unloaded(tmp_path):
    # scipy is imported by radial_primitive's quadrature path alone, which
    # the moser suite's homogeneous eta never takes
    code = ("import sys\n"
            "import cyglue\n"
            "from cyglue import cli\n"
            "status = cli.main(['moser', '--out', sys.argv[1]])\n"
            "print(status, 'scipy' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 False"
