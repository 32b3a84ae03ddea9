import itertools

import numpy as np
import pytest

from cyglue import analysis as an
from cyglue import cones as cn
from cyglue.errors import ConfigInvalid, DegenerateMetric
from cyglue.forms import KForm, LinearMap, form_norm, contract, pullback, wedge


def unit_dirs(n, seed=0, dim=6):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, dim))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def fit_slope(radii, values):
    return np.polyfit(np.log(radii), np.log(values), 1)[0]


def richardson_partials(f, x, rel_step=1e-3):
    """(4 D(s/2) - D(s)) / 3 for the central difference D(s) of f at x,
    s = rel_step |x| per sample, the derivative index after the batch."""
    def central(scale):
        s = scale * rel_step * np.linalg.norm(x, axis=-1)[:, None]
        return np.stack([(f(x + s * e) - f(x - s * e)) / (2.0 * s)
                         for e in np.eye(6)], axis=1)

    return (4.0 * central(0.5) - central(1.0)) / 3.0


def assert_partials_exact(jet, x, rtol=1e-8):
    """jet returns n complex values and then the n closed-form partials of
    their real parts; each partial is real and matches the real part of
    Richardson differences of its value to rtol of the largest partial."""
    out = jet(x)
    n = len(out) // 2
    for i, got in enumerate(out[n:]):
        want = np.real(richardson_partials(lambda y: jet(y)[i], x))
        assert got.dtype == np.float64, i
        assert got.shape == x.shape[:-1] + (6,) + want.shape[2:]
        assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want)), i


class TestConeGeometry:
    def test_flat_link_volume_is_pi_cubed(self):
        cone = cn.flat_c3_cone()
        pts, wts = cn.link_quadrature(cone)
        assert pts.shape == (len(wts), 6)
        assert np.allclose(np.linalg.norm(pts, axis=-1), 1.0, atol=1e-14)
        assert wts.sum() == pytest.approx(np.pi ** 3, rel=1e-10)

    def test_quotient_link_volume_is_one_third(self):
        vol = cn.quotient_cone_z3().link_volume
        assert vol == pytest.approx(np.pi ** 3 / 3.0, rel=1e-10)

    def test_quadrature_level_convergence(self):
        cone = cn.flat_c3_cone()
        errs = []
        for lvl in ((4, 4, 4), (6, 6, 6), (8, 6, 6)):
            _, w = cn.link_quadrature(cone, *lvl)
            errs.append(abs(w.sum() - np.pi ** 3))
        assert errs[0] > errs[1] > errs[2]

    @pytest.mark.parametrize("build", [cn.flat_c3_cone, cn.quotient_cone_z3])
    def test_weights_match_numerical_jacobian(self, build):
        # oracle: product-rule weight times sqrt(det J^T J) of a
        # central-difference Jacobian of the patch map
        cone = build()
        n = 3
        pts, wts = cn.link_quadrature(cone, n, n, n)
        t, wt = np.polynomial.legendre.leggauss(n)
        rho, ang = 0.5 * (t + 1.0), 2.0 * np.pi * np.arange(n) / n
        psi = cone.psi_period * np.arange(n) / n
        grid = [a.ravel() for a in
                np.meshgrid(rho, ang, rho, ang, psi, indexing="ij")]
        w1, _, w2, _, _ = np.meshgrid(0.5 * wt, ang, 0.5 * wt, ang, psi,
                                      indexing="ij")
        w_prod = ((w1 * w2).ravel() * (2.0 * np.pi / n) ** 2
                  * cone.psi_period / n)
        h = 1e-6
        per_patch = np.split(wts, 3)
        for axis, w in enumerate(per_patch):
            cols = []
            for k in range(5):
                up = [a + (h if j == k else 0.0) for j, a in enumerate(grid)]
                dn = [a - (h if j == k else 0.0) for j, a in enumerate(grid)]
                cols.append(cn.as_real(cn._patch_points(axis, *up))
                            - cn.as_real(cn._patch_points(axis, *dn)))
            J = np.stack(cols, axis=-1) / (2.0 * h)
            dens = np.sqrt(np.linalg.det(np.einsum("nia,nib->nab", J, J)))
            np.testing.assert_allclose(w, w_prod * dens, rtol=1e-8)
            np.testing.assert_array_equal(w, per_patch[0])
            assert np.array_equal(np.split(pts, 3)[axis],
                                  cn.as_real(cn._patch_points(axis, *grid)))

    def test_deck_generator_has_order_three(self):
        deck = cn.quotient_cone_z3().deck
        assert deck.order == 3
        A = deck.generator
        assert np.allclose(A @ A @ A, np.eye(6), atol=1e-14)
        assert not np.allclose(A, np.eye(6))

    def test_deck_action_is_free_away_from_tip(self):
        A = cn.quotient_cone_z3().deck.generator
        x = unit_dirs(50, seed=3)
        moved = np.linalg.norm(x @ A.T - x, axis=-1)
        # |zeta - 1| = sqrt(3) on every nonzero vector
        assert np.allclose(moved, np.sqrt(3.0), atol=1e-12)

    def test_fields_invariant_under_deck(self):
        cone = cn.quotient_cone_z3()
        L = LinearMap(cone.deck.generator)
        s = cone.fields_at(np.zeros(6))
        for form in (s.omega, s.Omega):
            pulled = pullback(L, form)
            assert np.allclose(pulled.coeffs, form.coeffs, atol=1e-13)

    def test_descriptor(self):
        d = cn.quotient_cone_z3().descriptor()
        assert d["deck_order"] == 3
        assert d["psi_period"] == pytest.approx(2.0 * np.pi / 3.0)
        assert cn.flat_c3_cone().descriptor()["deck_order"] == 1


class TestRadialAndReeb:
    def setup_method(self):
        self.cone = cn.flat_c3_cone()
        self.gamma = unit_dirs(12, seed=5)
        self.r = np.linspace(0.3, 4.0, 12)
        self.x = self.r[:, None] * self.gamma
        # the Euler field X = r d/dr and the Reeb field Z = J X
        self.X, self.Z = self.x, self.x @ cn.J_STANDARD.T
        self.fields = self.cone.fields_at(self.x)

    def test_euler_field_metric_identities(self):
        g = self.fields.g.components
        gXX = np.einsum("...i,...ij,...j->...", self.X, g, self.X)
        gXZ = np.einsum("...i,...ij,...j->...", self.X, g, self.Z)
        gZZ = np.einsum("...i,...ij,...j->...", self.Z, g, self.Z)
        assert np.allclose(gXX, self.r ** 2, atol=1e-12)
        assert np.allclose(gXZ, 0.0, atol=1e-12)
        assert np.allclose(gZZ, self.r ** 2, atol=1e-12)

    def test_reeb_is_rotated_euler(self):
        # Z generates the rotation exp(theta Z) of complex_dilation
        h = 1e-4
        rot = [cn.complex_dilation(self.cone, 1.0, s).matrix for s in (h, -h)]
        velocity = self.x @ ((rot[0] - rot[1]) / (2.0 * h)).T
        assert np.allclose(velocity, self.Z, atol=1e-8)

    def test_contact_form_normalization(self):
        # iota(X) omega = r^2 alpha with alpha(Z) = 1, so omega(X, Z) = r^2
        alpha_r2 = contract(self.X, self.fields.omega)
        val = np.einsum("...i,...i->...", alpha_r2.coeffs, self.Z)
        assert np.allclose(val, self.r ** 2, atol=1e-12)

    def test_reeb_contraction_is_minus_r_dr(self):
        # first-slot interior product: iota(Z) omega = -r dr = -x_i dx_i
        got = contract(self.Z, self.fields.omega)
        assert np.allclose(got.coeffs, -self.x, atol=1e-12)


class TestLieDerivativeChecks:
    @pytest.mark.parametrize("selector", ["LX_omega", "LX_Omega",
                                          "LZ_omega", "LZ_Omega"])
    def test_residual_is_second_order(self, selector):
        cone = cn.flat_c3_cone()
        h = 1e-3
        res_h = cn.lie_derivative_check(cone, selector, h=h)
        res_2h = cn.lie_derivative_check(cone, selector, h=2 * h)
        assert res_h < 1e-4
        if res_h > 1e-12:
            assert res_2h / res_h == pytest.approx(4.0, abs=0.2)

    def test_unknown_selector_rejected(self):
        with pytest.raises(ConfigInvalid):
            cn.lie_derivative_check(cn.flat_c3_cone(), "LX_nonsense")


class TestComplexDilation:
    def test_scaling_laws_exact(self):
        cone = cn.flat_c3_cone()
        L = cn.complex_dilation(cone, 2.0, np.pi / 3.0)
        s = cone.fields_at(np.zeros(6))
        om_p = pullback(L, s.omega)
        Om_p = pullback(L, s.Omega)
        # t^2 e^{i0} on omega; t^3 e^{3 i theta} = -8 on Omega
        assert np.allclose(om_p.coeffs, 4.0 * s.omega.coeffs, atol=1e-12)
        assert np.allclose(Om_p.coeffs, -8.0 * s.Omega.coeffs, atol=1e-12)

    def test_composition(self):
        cone = cn.flat_c3_cone()
        L1 = cn.complex_dilation(cone, 2.0, 0.3)
        L2 = cn.complex_dilation(cone, 1.5, 0.4)
        L12 = cn.complex_dilation(cone, 3.0, 0.7)
        assert np.allclose(L1.matrix @ L2.matrix, L12.matrix, atol=1e-13)

    def test_invalid_factor(self):
        with pytest.raises(ConfigInvalid):
            cn.complex_dilation(cn.flat_c3_cone(), -1.0, 0.0)


class TestHermitianConversions:
    def test_identity_form(self):
        om = cn.hermitian_to_omega(np.eye(3))
        g = cn.hermitian_to_metric(np.eye(3))
        assert np.allclose(om.coeffs, cn.FLAT_OMEGA.coeffs, atol=1e-15)
        assert np.allclose(g.components, np.eye(6), atol=1e-15)

    def test_metric_omega_compatibility(self):
        # omega(u, v) = g(J u, v) for every hermitian H > 0
        rng = np.random.default_rng(11)
        M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        H = np.eye(3) + 0.1 * (M + M.conj().T)
        om_t = cn.hermitian_to_omega(H).as_tensor()
        g = cn.hermitian_to_metric(H).components
        want = np.einsum("ai,aj->ij", cn.J_STANDARD, g)
        assert np.allclose(om_t, want, atol=1e-13)

    def test_omega_matches_index_pair_expansion(self):
        # (i/2) H_kl dz_k ^ dzbar_l written out pair by pair in the real
        # coordinates (u_k, v_k): P_kl du_k ^ dv_l, and -Q_kl on both
        # du_k ^ du_l and dv_k ^ dv_l for k < l; indefinite H included
        rng = np.random.default_rng(12)
        M = rng.standard_normal((40, 3, 3)) + 1j * rng.standard_normal(
            (40, 3, 3))
        H = M + np.conj(np.swapaxes(M, -1, -2))
        P, Q = H.real, H.imag
        rank = {I: n for n, I in enumerate(itertools.combinations(range(6),
                                                                  2))}
        want = np.zeros((40, 15))
        for k in range(3):
            for l in range(3):
                uk, vl = 2 * k, 2 * l + 1
                if uk < vl:
                    want[:, rank[(uk, vl)]] += P[:, k, l]
                else:
                    want[:, rank[(vl, uk)]] -= P[:, k, l]
            for l in range(k + 1, 3):
                want[:, rank[(2 * k, 2 * l)]] -= Q[:, k, l]
                want[:, rank[(2 * k + 1, 2 * l + 1)]] -= Q[:, k, l]
        assert np.array_equal(cn.hermitian_to_omega(H).coeffs, want)

    def test_rejects_indefinite_form(self):
        H = np.diag([1.0, -2.0, 1.0]).astype(complex)
        with pytest.raises(DegenerateMetric):
            cn.hermitian_to_metric(H)


class TestCalabiALE:
    def setup_method(self):
        self.ale = cn.calabi_ale_o3()
        self.dirs = unit_dirs(6, seed=2)

    def test_monge_ampere_solution(self):
        # det H == 1 for the scale-one solution in double precision
        for r in (0.5, 1.0, 3.0, 10.0):
            d = np.linalg.det(self.ale.hermitian_at(r * self.dirs)).real
            assert np.allclose(d, 1.0, atol=1e-9)

    def test_log_det_extended_precision_floor(self):
        # the claim behind the Ricci check: extended evaluation leaves
        # orders of magnitude less noise near the exceptional set
        x = 0.1 * self.dirs
        noise_d = np.abs(self.ale.log_det_h(x)).max()
        noise_e = np.abs(np.asarray(self.ale.log_det_h(x, extended=True),
                                    float)).max()
        assert noise_e < 1e-12
        assert noise_e < noise_d

    def test_log_det_extended_matches_longdouble_pipeline(self):
        # the extended path as it was written out before it shared
        # hermitian_at and the cofactor determinant
        def reference(x):
            x = np.asarray(x, np.longdouble)
            z = x[..., 0::2] + np.clongdouble(1j) * x[..., 1::2]
            rho = np.einsum("...k,...k->...", z, z.conj()).real
            a6 = np.longdouble(self.ale.resolution_scale) ** 6
            up = np.cbrt(np.longdouble(1.0) + a6 / rho ** 3)
            us = -a6 / (rho ** 4 * up ** 2)
            H = up[..., None, None] * np.eye(3, dtype=np.clongdouble)
            H = H + us[..., None, None] * np.einsum("...k,...l->...kl",
                                                    z.conj(), z)
            det = (H[..., 0, 0] * (H[..., 1, 1] * H[..., 2, 2]
                                   - H[..., 1, 2] * H[..., 2, 1])
                   - H[..., 0, 1] * (H[..., 1, 0] * H[..., 2, 2]
                                     - H[..., 1, 2] * H[..., 2, 0])
                   + H[..., 0, 2] * (H[..., 1, 0] * H[..., 2, 1]
                                     - H[..., 1, 1] * H[..., 2, 0]))
            return np.log(det.real)

        x = np.geomspace(0.05, 10.0, 25)[:, None, None] * self.dirs
        got = self.ale.log_det_h(x, extended=True)
        assert got.dtype == np.longdouble
        # float128 carries padding bytes, so compare values, not bytes
        assert np.array_equal(got, reference(x))
        assert self.ale.hermitian_at(x).dtype == complex

    def test_darboux_pullback_matches_cone_kahler_form(self):
        cone = cn.flat_c3_cone()
        for r in (1.2, 2.0, 5.0):
            x = r * self.dirs
            pb = self.ale.pulled_back_fields(x, chart="darboux")
            want = cone.fields_at(x).omega
            assert np.max(np.abs(pb.omega.coeffs - want.coeffs)) < 1e-13

    def test_raw_pullback_matches_cone_volume_form(self):
        cone = cn.flat_c3_cone()
        x = 1.7 * self.dirs
        pb = self.ale.pulled_back_fields(x, chart="raw")
        want = cone.fields_at(x).Omega
        assert np.max(np.abs(pb.Omega.coeffs - want.coeffs)) < 1e-14

    def test_darboux_chart_needs_room(self):
        with pytest.raises(ConfigInvalid):
            self.ale.darboux_radius(0.9)
        with pytest.raises(ConfigInvalid):
            self.ale.chart_map(0.5 * self.dirs, chart="darboux")
        with pytest.raises(ConfigInvalid):
            self.ale.chart_map(self.dirs, chart="spiral")

    def test_correction_db_is_the_darboux_defect(self):
        # dB must equal Upsilon_D^* Omega_Y - Omega_V pointwise
        cone = cn.flat_c3_cone()
        for r in (1.5, 2.5):
            x = r * self.dirs
            defect = (self.ale.pulled_back_fields(x, "darboux").Omega
                      - cone.fields_at(x).Omega)
            got = self.ale.correction_dB(x)
            assert np.max(np.abs(got.coeffs - defect.coeffs)) < 1e-13

    def test_closed_forms_match_generic_kernels(self):
        # B = c iota_x Omega_V / 3 and dB = dr ^ c' iota_x Omega_V / 3
        # + c Omega_V with c(r) = sqrt(1 - r^-6) - 1, generic kernels
        rng = np.random.default_rng(8)
        x = rng.uniform(1.05, 6.0, (24, 1)) * unit_dirs(24, seed=8)
        r = np.linalg.norm(x, axis=-1)
        c = np.sqrt(1.0 - r ** -6) - 1.0
        cp = 3.0 / (r ** 7 * np.sqrt(1.0 - r ** -6))
        Om = KForm(6, 3, np.tile(cn.FLAT_OMEGA3.coeffs, (24, 1)))
        dr = KForm(6, 1, x / r[:, None])
        iota = contract(x, Om)
        B = iota * (c / 3.0)
        want = {"correction_B": B,
                "correction_dB": wedge(dr, iota * (cp / 3.0)) + Om * c,
                "dr ^ correction_B": wedge(dr, B)}
        got = {"correction_B": self.ale.correction_B(x).coeffs,
               "correction_dB": self.ale.correction_dB(x).coeffs,
               "dr ^ correction_B": self.ale.correction_terms(x)[1]}
        for name, form in want.items():
            assert np.max(np.abs(got[name] - form.coeffs)) \
                <= 1e-13 * np.max(np.abs(form.coeffs)), name

    def test_correction_term_partials_match_richardson_differences(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(1.05, 6.0, (24, 1)) * unit_dirs(24, seed=9)
        assert_partials_exact(self.ale.correction_terms, x)

    def test_correction_db_is_derivative_of_b(self):
        x = 2.5 * self.dirs
        fd = an.fd_exterior_derivative(self.ale.correction_B, x)
        assert np.max(np.abs(fd.coeffs - self.ale.correction_dB(x).coeffs)) < 1e-7

    def test_kahler_form_decay_rate(self):
        cone = cn.flat_c3_cone()
        radii = np.array([2.0, 4.0, 8.0, 16.0, 32.0])
        sup = []
        for r in radii:
            x = r * self.dirs
            s = cone.fields_at(x)
            diff = self.ale.pulled_back_fields(x, "raw").omega - s.omega
            sup.append(np.max(form_norm(s.g, diff)))
        assert fit_slope(radii, sup) == pytest.approx(-6.0, abs=0.3)

    def test_volume_form_decay_rate_in_darboux_chart(self):
        cone = cn.flat_c3_cone()
        radii = np.array([2.0, 4.0, 8.0, 16.0, 32.0])
        sup = []
        for r in radii:
            x = r * self.dirs
            s = cone.fields_at(x)
            diff = self.ale.pulled_back_fields(x, "darboux").Omega - s.Omega
            sup.append(np.max(form_norm(s.g, diff)))
        assert fit_slope(radii, sup) == pytest.approx(-6.0, abs=0.3)

    def test_far_field_metric_flattens(self):
        x = 32.0 * self.dirs
        g = self.ale.metric_on_target(x).components
        assert np.max(np.abs(g - np.eye(6))) < 1e-7

    def test_metric_accessor_agrees_with_fields(self):
        x = 1.3 * self.dirs
        lean = self.ale.metric_on_target(x).components
        full = self.ale.fields_on_target(x).g.components
        assert np.array_equal(lean, full)

    def test_config_validation(self):
        with pytest.raises(ConfigInvalid):
            cn.calabi_ale_o3(resolution_scale=0.0)
        d = self.ale.descriptor()
        assert d["rate"] == -6.0
        assert d["cone"]["deck_order"] == 3


def brute_force_fixed_points():
    """Independent search: scan a fine fundamental-domain grid per factor
    for points with zeta w == w mod (Z + Z zeta)."""
    zeta = np.exp(2j * np.pi / 3.0)
    found = []
    for p in range(6):
        for q in range(6):
            w = (p + q * zeta) / 6.0
            d = (zeta - 1.0) * w
            b = d.imag / zeta.imag
            a = d.real - b * zeta.real
            if abs(a - round(a)) < 1e-9 and abs(b - round(b)) < 1e-9:
                # reduce to the fundamental cell used by the package
                found.append(((p % 6) / 6.0, (q % 6) / 6.0))
    return sorted(set(found))


class TestTorusOrbifold:
    def test_twenty_seven_fixed_points(self):
        pts = cn.t6_fixed_points()
        assert pts.shape == (27, 6)
        zeta = np.exp(2j * np.pi / 3.0)
        for x in pts:
            rotated = cn.as_real(zeta * cn.as_complex(x))
            assert cn._torus_distance(rotated, x) < 1e-12

    def test_fixed_points_match_independent_search(self):
        # per complex factor the fixed set has exactly 3 orbits
        assert len(brute_force_fixed_points()) == 3
        z = cn.as_complex(cn.t6_fixed_points())
        assert len(set(np.round(z[:, 0], 12))) == 3

    def test_points_are_distinct_and_spread(self):
        pts = cn.t6_fixed_points()
        dmin = min(cn._torus_distance(pts[i], pts[j])
                   for i in range(27) for j in range(i + 1, 27))
        assert dmin == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-12)

    def test_patch_neighbor_distance(self):
        patch = cn.t6_z3_orbifold_patch(0)
        assert patch.neighbor_distance == pytest.approx(1.0 / np.sqrt(3.0),
                                                        abs=1e-12)
        assert patch.cone.deck.order == 3

    def test_patch_index_validation(self):
        with pytest.raises(ConfigInvalid):
            cn.t6_z3_orbifold_patch(27)

    def test_chart_centers_and_flat_fields(self):
        patch = cn.t6_z3_orbifold_patch(5)
        assert np.array_equal(patch.center, cn.t6_fixed_points()[5])
        x = 0.05 * unit_dirs(4, seed=9)
        s = patch.cone.fields_at(x)
        assert np.allclose(s.omega.coeffs, cn.FLAT_OMEGA.coeffs, atol=1e-15)


class TestSyntheticPerturbation:
    def setup_method(self):
        self.patch = cn.t6_z3_orbifold_patch(0)
        self.pert = self.patch.synthetic_perturbation(nu=2.0, amplitude=0.1)
        self.dirs = unit_dirs(8, seed=4)

    def test_rate_validation(self):
        with pytest.raises(ConfigInvalid):
            self.patch.synthetic_perturbation(nu=0.0, amplitude=0.1)

    def test_primitive_and_derivative_decay_rates(self):
        g0 = cn.flat_c3_cone().fields_at(self.dirs).g
        radii = np.array([0.02, 0.04, 0.08, 0.16])
        nA, ndA = [], []
        for r in radii:
            x = r * self.dirs
            s = cn.flat_c3_cone().fields_at(x)
            nA.append(np.max(form_norm(s.g, self.pert.primitive_A(x))))
            ndA.append(np.max(form_norm(s.g, self.pert.dA(x))))
        assert fit_slope(radii, nA) == pytest.approx(3.0, abs=1e-8)
        assert fit_slope(radii, ndA) == pytest.approx(2.0, abs=1e-8)
        assert g0.dim == 6

    def test_derivative_cross_check(self):
        x = 0.08 * self.dirs
        fd = an.fd_exterior_derivative(self.pert.primitive_A, x, h=1e-4)
        assert np.max(np.abs(fd.coeffs - self.pert.dA(x).coeffs)) < 1e-8

    def test_perturbation_is_closed(self):
        x = 0.08 * self.dirs
        dd = an.fd_exterior_derivative(self.pert.dA, x, h=1e-4)
        assert np.max(np.abs(dd.coeffs)) < 1e-7

    def test_deck_invariance(self):
        A = cn.quotient_cone_z3().deck.generator
        L = LinearMap(A)
        x = 0.08 * self.dirs
        pulled = pullback(L, self.pert.primitive_A(x @ A.T))
        assert np.max(np.abs(pulled.coeffs - self.pert.primitive_A(x).coeffs)) < 1e-13

    def test_closed_form_pullback_matches_generic(self):
        # q^*(b) through the Jacobian dq = (1 - xhat xhat^T)/r of q(x) = x/|x|,
        # and A = amplitude r^(nu+3) q^*(b), dA and dr ^ A built from it
        # with the generic kernels
        rng = np.random.default_rng(21)
        x = rng.uniform(0.05, 2.0, (16, 1)) * unit_dirs(16, seed=21)
        r = np.linalg.norm(x, axis=-1)
        xhat = x / r[:, None]
        dq = (np.eye(6) - xhat[:, :, None] * xhat[:, None, :]) / r[:, None, None]
        b = (cn.hermitian_to_omega(self.pert.b_re).coeffs
             + 1j * cn.hermitian_to_omega(self.pert.b_im).coeffs)
        qb = pullback(LinearMap(dq), KForm(6, 2, np.tile(b, (16, 1))))
        nu, amp = self.pert.nu, self.pert.amplitude
        dr = KForm(6, 1, xhat)
        A = qb * (amp * r ** (nu + 3))
        want = {"_pullback_b": qb, "primitive_A": A,
                "dA": wedge(dr, qb * (amp * (nu + 3) * r ** (nu + 2))),
                "dr ^ primitive_A": wedge(dr, A)}
        got = {"_pullback_b": self.pert._pullback_b(x).coeffs,
               "primitive_A": self.pert.primitive_A(x).coeffs,
               "dA": self.pert.dA(x).coeffs,
               "dr ^ primitive_A": self.pert.correction_terms(x)[1]}
        for name, form in want.items():
            assert np.max(np.abs(got[name] - form.coeffs)) \
                < 1e-13 * np.max(np.abs(form.coeffs)), name

    def test_correction_term_partials_match_richardson_differences(self):
        rng = np.random.default_rng(23)
        x = rng.uniform(0.05, 2.0, (24, 1)) * unit_dirs(24, seed=23)
        assert_partials_exact(self.pert.correction_terms, x)
        r = np.linalg.norm(x, axis=-1)
        for got, want in zip(self.pert.correction_terms(x, r),
                             self.pert.correction_terms(x)):
            assert np.array_equal(got, want)

    def test_real_tables_match_complex_matmul(self):
        # the real-arithmetic product against numpy's complex matmul of the
        # same tables, for FLAT_OMEGA3's radial and iota tables and b's
        rng = np.random.default_rng(22)
        xhat = unit_dirs(64, seed=22)
        outer = (xhat[:, :, None] * xhat[:, None, :]).reshape(64, 36)
        cases = [(outer, cn._RADIAL_OMEGA3), (xhat, cn._IOTA_OMEGA3),
                 (xhat, self.pert._wedge_b), (outer, self.pert._radial_b),
                 (rng.standard_normal(6), self.pert._wedge_b)]
        for a, table in cases:
            assert table.dtype == np.float64
            want = a @ table.view(np.complex128)
            got = cn._table_product(a, table)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) \
                <= 1e-15 * np.max(np.abs(want))

    def test_seed_reproducibility(self):
        p2 = self.patch.synthetic_perturbation(nu=2.0, amplitude=0.1, seed=0)
        assert np.array_equal(p2.b_re, self.pert.b_re)
        p3 = self.patch.synthetic_perturbation(nu=2.0, amplitude=0.1, seed=1)
        assert not np.array_equal(p3.b_re, self.pert.b_re)
