import numpy as np
import pytest

from cyglue.errors import NotPositive3Form
from cyglue.forms import (
    KForm, LinearMap, form_norm, hodge_star, pullback, wedge,
)
from cyglue.g2 import (
    build_phi_chi, compare_g2, ds_wedge, embed_form,
    metric_from_phi, torsion_psi,
)
from cyglue.su3 import recover_su3

import oracles as oc

PHI0 = oc.to_kform(oc.PHI0, 7, 3)
STAR_PHI0 = oc.to_kform(oc.STAR_PHI0, 7, 4)
OM0 = oc.to_kform(oc.FLAT_OMEGA0, 6, 2)
RE0 = oc.to_kform(oc.FLAT_RE_OMEGA0, 6, 3)
IM0 = oc.to_kform(oc.FLAT_IM_OMEGA0, 6, 3)


class TestMetricFromPhi:
    def test_flat_model_exact(self):
        g = metric_from_phi(PHI0)
        assert np.array_equal(g.components, np.eye(7))

    def test_homogeneity(self):
        for c in (0.5, 2.0, 10.0):
            g = metric_from_phi(KForm(7, 3, c ** 3 * PHI0.coeffs))
            assert np.allclose(g.components, c ** 2 * np.eye(7), rtol=1e-12, atol=1e-12)

    def test_equivariance(self):
        rng = np.random.default_rng(31)
        for _ in range(4):
            L = np.eye(7) + 0.25 * rng.standard_normal((7, 7))
            if np.linalg.det(L) < 0:
                L[0] *= -1
            g = metric_from_phi(pullback(LinearMap(L), PHI0))
            assert np.allclose(g.components, L.T @ L, atol=1e-12)

    def test_batched(self):
        rng = np.random.default_rng(32)
        pert = PHI0.coeffs + 0.05 * rng.standard_normal((6, 35))
        g = metric_from_phi(KForm(7, 3, pert))
        assert g.components.shape == (6, 7, 7)
        w = np.linalg.eigvalsh(g.components)
        assert np.all(w > 0)

    def test_negative_phi_rejected(self):
        with pytest.raises(NotPositive3Form):
            metric_from_phi(KForm(7, 3, -PHI0.coeffs))

    def test_degenerate_phi_rejected(self):
        a = oc.to_kform({(0, 1, 2): 1.0}, 7, 3)
        with pytest.raises(NotPositive3Form):
            metric_from_phi(a)

    def test_structure_norms(self):
        rng = np.random.default_rng(33)
        L = np.eye(7) + 0.2 * rng.standard_normal((7, 7))
        if np.linalg.det(L) < 0:
            L[0] *= -1
        phi = pullback(LinearMap(L), PHI0)
        g = metric_from_phi(phi)
        assert form_norm(g, phi) == pytest.approx(np.sqrt(7.0), abs=1e-10)
        assert form_norm(g, hodge_star(g, phi)) \
            == pytest.approx(np.sqrt(7.0), abs=1e-10)


class TestBuildPhiChi:
    def test_flat_pair_gives_model_forms(self):
        phi, chi = build_phi_chi(OM0, RE0, IM0)
        assert np.array_equal(phi.coeffs, PHI0.coeffs)
        assert np.array_equal(chi.coeffs, STAR_PHI0.coeffs)

    def test_zero_omega(self):
        phi, chi = build_phi_chi(KForm(6, 2, np.zeros(15)), RE0,
                                 KForm(6, 3, np.zeros(20)))
        assert np.array_equal(phi.coeffs, embed_form(RE0).coeffs)
        assert np.all(chi.coeffs == 0)

    def test_embedding_wedge_consistency(self):
        # ds_wedge and embed_form agree with wedging in R^7 by hand
        rng = np.random.default_rng(34)
        a = KForm(6, 2, rng.standard_normal(15))
        ds = KForm.from_components(7, 1, {(0,): 1.0})
        lhs = ds_wedge(a).coeffs
        rhs = wedge(ds, embed_form(a)).coeffs
        assert np.allclose(lhs, rhs, atol=1e-15)


class TestTorsion:
    def test_flat_pair_torsion_free(self):
        ts = torsion_psi(OM0, RE0 + 1j * IM0)
        assert float(ts.psi_norm) <= 1e-11

    def test_generic_genuine_structures_torsion_free(self):
        rng = np.random.default_rng(35)
        for _ in range(5):
            L = LinearMap(np.eye(6) + 0.2 * rng.standard_normal((6, 6)))
            theta1 = pullback(L, RE0)
            st, _ = recover_su3(pullback(L, OM0), theta1 + 1j * pullback(L, IM0))
            Om = KForm(6, 3, theta1.coeffs + 1j * st.theta2_prime.coeffs)
            ts = torsion_psi(st.omega_prime, Om)
            assert float(np.max(ts.psi_norm)) <= 1e-10

    def test_perturbed_pair_nonzero(self):
        pert = OM0 + oc.to_kform({(0, 2): 0.05}, 6, 2)
        ts = torsion_psi(pert, RE0 + 1j * IM0)
        assert 0.0 < float(ts.psi_norm) < 1.0

    def test_torsion_controlled_by_defects(self):
        # |psi| <= C (|omega-omega'|^2 + |omega-omega'| + |theta2-theta2'|)
        rng = np.random.default_rng(36)
        d2 = rng.standard_normal(15)
        d3 = rng.standard_normal(20)
        ratios = []
        for delta in (1e-1, 1e-2, 1e-3):
            om = KForm(6, 2, OM0.coeffs + delta * d2)
            Om = KForm(6, 3, RE0.coeffs + 1j * (IM0.coeffs + delta * d3))
            st, rep = recover_su3(om, Om)
            ts = torsion_psi(om, Om)
            bound = (rep.defect_omega20 ** 2 + rep.defect_omega20
                     + rep.defect_theta2 + np.abs(st.f ** (1 / 3) - 1))
            ratios.append(float(ts.psi_norm) / float(bound))
        assert all(0.0 < r < 50.0 for r in ratios)


class TestCompareG2:
    def test_self_comparison_zero(self):
        g0 = metric_from_phi(PHI0)
        out = compare_g2(PHI0, PHI0, g0)
        for v in out:
            assert float(v) == pytest.approx(0.0, abs=1e-13)

    def test_epsilon_linearity(self):
        rng = np.random.default_rng(37)
        d = rng.standard_normal(35)
        g0 = metric_from_phi(PHI0)
        eps = np.array([1e-1, 1e-2, 1e-3])
        vals = np.array([[float(v) for v in
                          compare_g2(KForm(7, 3, PHI0.coeffs + e * d), PHI0, g0)]
                         for e in eps])
        slopes = np.diff(np.log(vals), axis=0) / np.diff(np.log(eps))[:, None]
        assert np.all(np.abs(slopes[-1] - 1.0) < 0.15)

    def test_rotation_equivariant_difference(self):
        rng = np.random.default_rng(38)
        q, _ = np.linalg.qr(rng.standard_normal((7, 7)))
        if np.linalg.det(q) < 0:
            q[:, 0] *= -1
        g0 = metric_from_phi(PHI0)
        phi = pullback(LinearMap(q), PHI0)
        e1, e2, e3, e4 = compare_g2(phi, PHI0, g0)
        # rotations preserve g0, so the metric terms vanish identically
        assert float(e2) == pytest.approx(0.0, abs=1e-12)
        assert float(e3) == pytest.approx(0.0, abs=1e-12)
        expected = form_norm(g0, phi - PHI0)
        assert float(e1) == pytest.approx(float(expected), rel=1e-12)
