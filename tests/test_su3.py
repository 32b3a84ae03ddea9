import numpy as np
import pytest

from cyglue import _multiindex as mi
from cyglue import su3
from cyglue.errors import NotPositive, NotStable
from cyglue.forms import KForm, LinearMap, pullback, wedge
from cyglue.su3 import check_prop32, recover_su3

import oracles as oc

OM0 = oc.to_kform(oc.FLAT_OMEGA0, 6, 2)
RE0 = oc.to_kform(oc.FLAT_RE_OMEGA0, 6, 3)
IM0 = oc.to_kform(oc.FLAT_IM_OMEGA0, 6, 3)
OMEGA0 = RE0 + 1j * IM0

J0 = np.zeros((6, 6))
for _k in range(3):
    J0[2 * _k + 1, 2 * _k] = 1.0
    J0[2 * _k, 2 * _k + 1] = -1.0


def oracle_k_endo(theta: dict) -> np.ndarray:
    """K(v) defined by iota_{K(v)} vol = (iota_v theta) ^ theta, built from
    the exact dict algebra with no shared code."""
    K = np.zeros((6, 6))
    for a in range(6):
        mu = oc.o_wedge(oc.o_contract(a, theta), theta)
        for I, c in mu.items():
            missing = next(j for j in range(6) if j not in I)
            comp = tuple(j for j in range(6) if j != missing)
            K[missing, a] = (-1) ** missing * float(c) * (1 if I == comp else 0)
    return K


def acs(theta: KForm) -> dict:
    """The recovery's almost complex structure of theta: J, lam,
    theta2_prime and the rest of su3._acs_batch."""
    return su3._acs_batch(theta.coeffs)


class TestQuarticInvariant:
    def test_flat_value_frozen(self):
        assert acs(RE0)["lam"] == pytest.approx(-4.0, abs=0)

    def test_matches_exact_oracle_on_random_forms(self):
        rng = np.random.default_rng(21)
        for _ in range(8):
            d = oc.rand_exact_form(rng, 6, 3)
            K = oracle_k_endo(d)
            lam = np.trace(K @ K) / 6.0
            got = acs(oc.to_kform(d, 6, 3))["lam"]
            assert got == pytest.approx(lam, rel=1e-12, abs=1e-12)

    def test_quartic_scaling(self):
        lam = acs(RE0)["lam"]
        for c in (2.0, 0.3, -1.5):
            assert acs(KForm(6, 3, c * RE0.coeffs))["lam"] \
                == pytest.approx(c ** 4 * lam, rel=1e-13)

    def test_unstable_example_positive(self):
        # dx123 + dy123 in interleaved coordinates
        uns = oc.to_kform({(0, 2, 4): 1, (1, 3, 5): 1}, 6, 3)
        assert acs(uns)["lam"] == pytest.approx(1.0, abs=0)


class TestAlmostComplexStructure:
    def test_flat_recovers_standard_J(self):
        assert np.array_equal(acs(RE0)["J"], J0)

    def test_J_squared_is_minus_identity(self):
        rng = np.random.default_rng(22)
        L = LinearMap(np.eye(6) + 0.25 * rng.standard_normal((5, 6, 6)))
        J = acs(pullback(L, RE0))["J"]
        JJ = np.einsum("...ij,...jk->...ik", J, J)
        assert np.allclose(JJ, -np.eye(6), atol=1e-12)

    def test_equivariance(self):
        rng = np.random.default_rng(23)
        L = np.eye(6) + 0.2 * rng.standard_normal((4, 6, 6))
        J = acs(pullback(LinearMap(L), RE0))["J"]
        expected = np.einsum("bij,jk,bkl->bil", np.linalg.inv(L), J0, L)
        assert np.allclose(J, expected, atol=1e-12)

    def test_scale_invariance_of_J(self):
        J = acs(KForm(6, 3, 2.5 * RE0.coeffs))["J"]
        assert np.allclose(J, J0, atol=1e-14)
        # K is quadratic in theta, so negating theta leaves J unchanged
        Jm = acs(KForm(6, 3, -RE0.coeffs))["J"]
        assert np.allclose(Jm, J0, atol=1e-14)

    def test_unstable_raises(self):
        uns = oc.to_kform({(0, 2, 4): 1, (1, 3, 5): 1}, 6, 3)
        with pytest.raises(NotStable):
            recover_su3(OM0, uns)

    def test_batched_failure_reports_sample(self):
        coeffs = np.stack([RE0.coeffs, oc.to_kform({(0, 2, 4): 1, (1, 3, 5): 1}, 6, 3).coeffs])
        with pytest.raises(NotStable) as ei:
            su3._raise_failures(su3._acs_batch(coeffs))
        assert ei.value.sample_index == [1]


class TestCompanionForm:
    def test_flat_companion_is_imaginary_part(self):
        assert np.array_equal(acs(RE0)["theta2_prime"], IM0.coeffs)

    def test_recovered_Omega_is_decomposable(self):
        # iota_v Omega' ^ Omega' = 0 characterizes decomposable 3-forms
        rng = np.random.default_rng(24)
        L = LinearMap(np.eye(6) + 0.3 * rng.standard_normal((6, 6)))
        th = pullback(L, RE0)
        Om = th + 1j * KForm(6, 3, acs(th)["theta2_prime"])
        from cyglue.forms import contract
        for i in range(6):
            v = np.zeros(6)
            v[i] = 1.0
            w = wedge(contract(v, Om), Om)
            assert np.allclose(w.coeffs, 0.0, atol=1e-10)

    def test_recovered_Omega_is_30_type(self):
        rng = np.random.default_rng(25)
        L = LinearMap(np.eye(6) + 0.3 * rng.standard_normal((6, 6)))
        th = pullback(L, RE0)
        rec = acs(th)
        Jm = rec["J"]
        Om = th + 1j * KForm(6, 3, rec["theta2_prime"])
        T = Om.as_tensor()
        lhs = np.einsum("da,dbc->abc", Jm, T)
        assert np.allclose(lhs, 1j * T, atol=1e-10)

    def test_positive_orientation(self):
        rng = np.random.default_rng(26)
        L = LinearMap(np.eye(6) + 0.3 * rng.standard_normal((8, 6, 6)))
        th = pullback(L, RE0)
        t2 = KForm(6, 3, acs(th)["theta2_prime"])
        tops = wedge(th, t2).coeffs[..., 0]
        assert np.all(tops > 0)


class TestRecovery:
    def test_flat_pair_is_exact_fixed_point(self):
        st, rep = recover_su3(OM0, OMEGA0)
        assert np.array_equal(np.asarray(st.J_prime.matrix), J0)
        assert np.array_equal(st.omega_prime.coeffs, OM0.coeffs)
        assert np.array_equal(st.theta2_prime.coeffs, IM0.coeffs)
        assert np.array_equal(st.g_M.components, np.eye(6))
        assert st.f == pytest.approx(1.0, abs=0)
        for val in (rep.defect_theta2, rep.defect_omega20,
                    rep.defect_normalization, rep.f_deviation):
            assert np.all(val == 0.0)
        assert rep.within_eps0

    def test_scaled_omega_normalizes_back(self):
        d = 0.07
        st, rep = recover_su3(KForm(6, 2, (1 + d) * OM0.coeffs), OMEGA0)
        assert st.f == pytest.approx((1 + d) ** 3, rel=1e-13)
        assert np.allclose(st.omega_prime.coeffs, OM0.coeffs, atol=1e-14)
        assert rep.defect_theta2 == pytest.approx(0.0, abs=1e-14)

    def test_20_perturbation_defect_frozen(self):
        pert = OM0 + oc.to_kform({(0, 2): 0.01}, 6, 2)
        st, rep = recover_su3(pert, OMEGA0)
        # (2,0)+(0,2) part of du1^du2 is half of du1^du2 - dv1^dv2
        assert rep.defect_omega20 == pytest.approx(0.005 * np.sqrt(2.0), rel=1e-3)
        assert rep.defect_theta2 == pytest.approx(0.0, abs=1e-14)
        assert rep.within_eps0

    def test_omega11_projection(self):
        def omega_11(omega):
            return su3._recover_batch(omega.coeffs,
                                      OMEGA0.coeffs)["omega_11"]

        a = oc.to_kform({(0, 2): 1.0}, 6, 2)  # du1 ^ du2
        p = KForm(6, 2, omega_11(a))
        expect = {(0, 2): 0.5, (1, 3): 0.5}  # (du1 du2 + dv1 dv2)/2
        got = oc.from_kform(p)
        assert got == pytest.approx(expect)
        # idempotent and identity on (1,1) forms
        assert np.allclose(omega_11(p), p.coeffs, atol=1e-15)
        assert np.allclose(omega_11(OM0), OM0.coeffs, atol=1e-15)

    def test_negative_omega_raises_not_positive(self):
        with pytest.raises(NotPositive):
            recover_su3(KForm(6, 2, -OM0.coeffs), OMEGA0)

    def test_degenerate_omega_raises_not_positive(self):
        with pytest.raises(NotPositive):
            recover_su3(oc.to_kform({(0, 1): 1.0}, 6, 2), OMEGA0)

    def test_indefinite_metric_raises_not_positive_at_its_sample(self):
        # omega = e01 - e23 - e45 has signature (1, 2) and omega^3 > 0, so
        # f > 0 and only the metric's eigenvalues can refuse it
        indefinite = oc.to_kform({(0, 1): 1.0, (2, 3): -1.0, (4, 5): -1.0},
                                 6, 2)
        om = np.tile(OM0.coeffs, (4, 1))
        om[2] = indefinite.coeffs
        Om = KForm(6, 3, np.tile(OMEGA0.coeffs, (4, 1)))
        out = su3._recover_batch(om, Om.coeffs)
        assert np.all(out["f"] > 0)
        with pytest.raises(NotPositive) as err:
            recover_su3(KForm(6, 2, om), Om)
        assert err.value.sample_index == [2]
        with pytest.raises(NotPositive):
            recover_su3(indefinite, OMEGA0)

    def test_homothety_covariance(self):
        # (c^2 omega, c^3 Omega) recovers g = c^2 g and identical defects
        c = 1.3
        st, rep = recover_su3(KForm(6, 2, c ** 2 * OM0.coeffs),
                              KForm(6, 3, c ** 3 * OMEGA0.coeffs))
        assert np.allclose(st.g_M.components, c ** 2 * np.eye(6), atol=1e-13)
        assert rep.defect_theta2 == pytest.approx(0.0, abs=1e-13)
        assert st.f == pytest.approx(1.0, rel=1e-13)

    def test_batched_recovery(self):
        rng = np.random.default_rng(27)
        eps = 0.008 * rng.standard_normal((5, 15))
        om = KForm(6, 2, OM0.coeffs + eps)
        Om = KForm(6, 3, np.broadcast_to(OMEGA0.coeffs, (5, 20)).copy())
        st, rep = recover_su3(om, Om)
        assert st.g_M.components.shape == (5, 6, 6)
        assert rep.defect_omega20.shape == (5,)
        assert rep.within_eps0

    def test_defects_scale_invariant(self):
        pert = OM0 + oc.to_kform({(0, 2): 0.01}, 6, 2)
        _, rep1 = recover_su3(pert, OMEGA0)
        c = 2.2
        _, rep2 = recover_su3(KForm(6, 2, c ** 2 * pert.coeffs),
                              KForm(6, 3, c ** 3 * OMEGA0.coeffs))
        assert rep2.defect_omega20 == pytest.approx(rep1.defect_omega20, rel=1e-12)
        assert rep2.defect_normalization == pytest.approx(rep1.defect_normalization, rel=1e-12)


class TestRecoveryKernels:
    """The batched recovery against direct constructions of its parts."""

    def setup_method(self):
        rng = np.random.default_rng(31)
        self.theta = RE0.coeffs + 0.3 * rng.standard_normal((32, 20))
        self.omega = OM0.coeffs + 0.3 * rng.standard_normal((32, 15))

    def test_oriented_companion_is_recomputed_bitwise(self):
        acs = su3._acs_batch(self.theta)
        assert np.any(acs["stable"])
        assert np.array_equal(acs["theta2_prime"],
                              su3._theta2(acs["J"],
                                          su3._iota_table(self.theta)))

    def test_companion_gather_matches_full_alternation(self):
        # the whole alternated (6, 6, 6) array, read off at increasing
        # indices, as the companion was computed before reading only those
        rng = np.random.default_rng(32)
        J = rng.standard_normal((32, 6, 6))
        T = KForm(6, 3, self.theta).as_tensor()
        U = (np.swapaxes(J, -1, -2) @ T.reshape(32, 6, 36)).reshape(T.shape)
        U = (U + np.moveaxis(U, [-3, -2, -1], [-1, -3, -2])
             + np.moveaxis(U, [-3, -2, -1], [-2, -1, -3])) / 3.0
        want = -mi.tensor_to_coeffs(U, 6, 3)
        assert np.array_equal(su3._theta2(J, su3._iota_table(self.theta)),
                              want)

    @pytest.mark.parametrize("lead", [(), (32,), (4, 8)])
    def test_iota_gather_matches_cyclic_tensor_sums(self, lead):
        # the companion from the whole (6, 6, 6) tensor of theta and its 20
        # cyclic sums at increasing indices, as computed before it was read
        # off the iota table
        rng = np.random.default_rng(33)
        theta = self.theta[:max(1, int(np.prod(lead)))].reshape(lead + (20,))
        J = rng.standard_normal(lead + (6, 6))
        T = mi.coeffs_to_tensor(theta, 6, 3)
        U = (np.swapaxes(J, -1, -2) @ T.reshape(lead + (6, 36))).reshape(
            lead + (216,))
        sets = mi.index_sets(6, 3)
        abc, cab, bca = (
            np.array([36 * I[p] + 6 * I[q] + I[r] for I in sets])
            for p, q, r in ((0, 1, 2), (2, 0, 1), (1, 2, 0)))
        want = -((U[..., abc] + U[..., cab] + U[..., bca]) / 3.0)
        got = su3._theta2(J, su3._iota_table(theta))
        assert got.shape == lead + (20,)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("lead", [(32,), (4, 8)])
    def test_unbatched_omega_is_its_broadcast_bytewise(self, lead):
        rng = np.random.default_rng(34)
        Om = (self.theta + 1j * (IM0.coeffs + 0.3 * rng.standard_normal(
            (32, 20)))).reshape(lead + (20,))
        one = su3._recover_batch(OM0.coeffs, Om)
        wide = su3._recover_batch(
            np.broadcast_to(OM0.coeffs, lead + (15,)), Om)
        assert one.keys() == wide.keys()
        for key in one:
            assert one[key].shape == wide[key].shape, key
            assert one[key].tobytes() == wide[key].tobytes(), key

    def test_k_gather_matches_row_loop(self):
        # K filled row by row from the 5-form that omits each index i,
        # as _k_endomorphism did before its one signed gather
        C = mi.contraction_tensor(6, 3)
        W = mi.wedge_tensor(6, 2, 3)
        t1 = (self.theta @ C.transpose(1, 0, 2).reshape(20, 90)).reshape(
            32, 6, 15)
        t2 = (self.theta @ W.transpose(1, 0, 2).reshape(20, 90)).reshape(
            32, 15, 6)
        mu = t1 @ t2
        rank5 = mi.index_rank(6, 5)
        want = np.empty((32, 6, 6))
        for i in range(6):
            comp = tuple(j for j in range(6) if j != i)
            want[:, i, :] = (-1.0 if i % 2 else 1.0) * mu[:, :, rank5[comp]]
        assert np.array_equal(
            su3._k_endomorphism(self.theta, su3._iota_table(self.theta)), want)

    def test_congruence_matches_omega_11(self):
        out = su3._recover_batch(self.omega, self.theta + 0j)
        # the J-invariant part (omega + omega(J., J.)) / 2
        omega = KForm(6, 2, self.omega)
        want = 0.5 * (omega + pullback(LinearMap(out["J"]), omega)).coeffs
        assert np.max(np.abs(out["omega_11"] - want)) \
            <= 1e-14 * np.max(np.abs(want))


    def test_metric_table_matches_tensor_gather(self):
        # g = sym(T J) from the signed coefficient table, against the
        # tensor gather of omega_prime it replaced
        out = su3._recover_batch(self.omega, self.theta + 0j)
        T = mi.coeffs_to_tensor(out["omega_prime"], 6, 2) @ out["J"]
        want = 0.5 * (T + np.swapaxes(T, -1, -2))
        got = out["g"]
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_tangent_matches_richardson_differences(self):
        # forward mode against (4 D(h/2) - D(h)) / 3 of central differences
        # of the value pass along 6 random directions per sample
        rng = np.random.default_rng(36)
        Om = (RE0.coeffs + 0.05 * rng.standard_normal((24, 20))
              + 1j * (IM0.coeffs + 0.05 * rng.standard_normal((24, 20))))
        dOm = (rng.standard_normal((24, 6, 20))
               + 1j * rng.standard_normal((24, 6, 20)))
        rec = su3._recover_batch(OM0.coeffs, Om, dOm)
        assert np.all(rec["positive"])
        got = {"omega_prime": rec["d_omega_prime"], "g": rec["d_g"]}

        def central(h):
            out = {"omega_prime": [], "g": []}
            for k in range(6):
                up = su3._recover_batch(OM0.coeffs, Om + h * dOm[:, k])
                down = su3._recover_batch(OM0.coeffs, Om - h * dOm[:, k])
                for key in out:
                    out[key].append((up[key] - down[key]) / (2 * h))
            return {key: np.stack(v, axis=1) for key, v in out.items()}

        coarse, fine = central(1e-4), central(5e-5)
        for key, shape in (("omega_prime", (24, 6, 15)), ("g", (24, 6, 6, 6))):
            want = (4.0 * fine[key] - coarse[key]) / 3.0
            assert got[key].shape == shape
            assert np.max(np.abs(got[key] - want)) \
                <= 1e-8 * np.max(np.abs(want)), key

    @pytest.mark.parametrize("seed", [39, 40])
    def test_directions_leave_the_values_bytewise(self, seed):
        # the tangent reads the value pass and writes none of its arrays
        rng = np.random.default_rng(seed)
        Om = (RE0.coeffs + 0.05 * rng.standard_normal((24, 20))
              + 1j * (IM0.coeffs + 0.05 * rng.standard_normal((24, 20))))
        dOm = rng.standard_normal((24, 6, 20)) + 0j
        plain = su3._recover_batch(OM0.coeffs, Om)
        carried = su3._recover_batch(OM0.coeffs, Om, dOm)
        assert np.all(plain["stable"] & plain["positive"])
        # without directions the dict holds no tangent keys
        assert not {"d_omega_prime", "d_g"} & plain.keys()
        assert carried.keys() == plain.keys() | {"d_omega_prime", "d_g"}
        for key in plain:
            assert plain[key].tobytes() == carried[key].tobytes(), key


class TestTangentTables:
    """The constant tables that _recover_batch's tangent composes, against the
    iota and wedge kernels of the value pass they are built from, on
    seeded random stable theta."""

    def setup_method(self):
        rng = np.random.default_rng(37)
        self.theta = RE0.coeffs + 0.1 * rng.standard_normal((32, 20))
        self.dtheta = rng.standard_normal((32, 6, 20))
        self.acs = su3._acs_batch(self.theta)
        assert np.all(self.acs["stable"])

    @staticmethod
    def assert_close(got, want):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_k_is_half_its_polarization(self):
        M = (self.theta @ su3._K_POLAR).reshape(32, 20, 36)
        self.assert_close(
            0.5 * (self.theta[:, None] @ M).reshape(32, 6, 6),
            su3._k_endomorphism(self.theta, su3._iota_table(self.theta)))

    def test_companion_from_either_contraction(self):
        J = self.acs["J"].reshape(32, 1, 36)
        want = su3._theta2(self.acs["J"], su3._iota_table(self.theta))
        by_J = (J @ su3._T2_J).reshape(32, 20, 20)
        by_theta = (self.theta @ su3._T2_THETA).reshape(32, 36, 20)
        self.assert_close((self.theta[:, None] @ by_J)[:, 0], want)
        self.assert_close((J @ by_theta)[:, 0], want)

    def test_composed_derivatives_match_the_kernel_formulas(self):
        # before the tables: dK = 2 K(iota dtheta ^ theta) + p Id for
        # theta ^ dtheta = p vol, and dtheta2' = theta2'(dJ, theta) +
        # theta2'(J, dtheta), each through the iota and wedge tables
        theta, dtheta, J = self.theta, self.dtheta, self.acs["J"]
        dJ = np.random.default_rng(38).standard_normal((32, 6, 6, 6))
        p = np.einsum("nj,nmj->nm", theta @ su3._W33, dtheta)
        want_dK = 2.0 * su3._k_endomorphism(theta, su3._iota_table(dtheta))
        want_dK[..., range(6), range(6)] += p[..., None]
        got_dK = dtheta @ (theta @ su3._K_POLAR).reshape(32, 20, 36)
        self.assert_close(got_dK.reshape(32, 6, 6, 6), want_dK)

        want_dt2 = (su3._theta2(dJ, su3._iota_table(theta)[:, None])
                    + su3._theta2(J[:, None], su3._iota_table(dtheta)))
        got_dt2 = (dJ.reshape(32, 6, 36)
                   @ (theta @ su3._T2_THETA).reshape(32, 36, 20)
                   + dtheta @ (J.reshape(32, 36) @ su3._T2_J).reshape(
                       32, 20, 20))
        self.assert_close(got_dt2, want_dt2)


class TestPositivityCertificate:
    """The Gershgorin certificate against the eigenvalue rule it skips."""

    def _mixed_batch(self):
        # 12 diagonally dominant metrics, 16 with w_min within 1 % of
        # _POS_RTOL max|w| on either side, 8 indefinite ones
        rng = np.random.default_rng(41)
        noise = rng.standard_normal((12, 6, 6))
        dominant = (rng.uniform(0.5, 2.0, (12, 1, 1)) * np.eye(6)
                    + 0.02 * (noise + np.swapaxes(noise, -1, -2)))
        w = rng.uniform(0.5, 2.0, (24, 6))
        w[:, 5] = 2.0
        w[:16, 0] = (su3._POS_RTOL * 2.0
                     * (1.0 + 0.01 * np.where(np.arange(16) % 2, 1, -1)))
        w[16:, 0] = -rng.uniform(0.1, 1.0, 8)
        Q, _ = np.linalg.qr(rng.standard_normal((24, 6, 6)))
        # diagonal ones, where the row bound is exact
        Q[:4] = np.eye(6)
        rotated = Q @ (w[:, :, None] * np.swapaxes(Q, -1, -2))
        g = np.concatenate([dominant, rotated])
        return 0.5 * (g + np.swapaxes(g, -1, -2)), 12

    def test_mask_equals_eigenvalue_rule(self, count_eigvalsh):
        g, n_certified = self._mixed_batch()
        w = np.linalg.eigvalsh(g)
        rule = w[:, 0] > su3._POS_RTOL * np.max(np.abs(w), axis=-1)
        # both sides of the threshold are present
        assert np.any(rule[n_certified:28]) and not np.all(rule[n_certified:28])
        sent = count_eigvalsh()
        got = su3._positive_metric(g, np.ones(len(g), bool))
        assert np.array_equal(got, rule)
        assert len(sent) == 1
        assert np.array_equal(sent[0], g[n_certified:])

    def test_rejected_candidates_skip_the_eigensolve(self, count_eigvalsh):
        g, n_certified = self._mixed_batch()
        candidate = np.ones(len(g), bool)
        candidate[n_certified:] = False
        sent = count_eigvalsh()
        got = su3._positive_metric(g, candidate)
        assert np.array_equal(got, candidate)
        assert not sent

    def test_unbatched_metric(self, count_eigvalsh):
        g, n_certified = self._mixed_batch()
        sent = count_eigvalsh()
        ok = su3._positive_metric(g[0], np.array(True))
        assert ok.shape == () and ok
        assert not sent
        bad = su3._positive_metric(g[-1], np.array(True))
        assert bad.shape == () and not bad
        assert len(sent) == 1


class TestMetricComparison:
    def test_identity_on_equal_pairs(self):
        rec = check_prop32(OM0, OMEGA0, OM0, OMEGA0)
        assert rec.eps == pytest.approx(0.0, abs=0)
        assert rec.metric_diff == pytest.approx(0.0, abs=0)
        assert np.isnan(rec.ratio)

    def test_small_perturbation_linear_response(self):
        rng = np.random.default_rng(28)
        d_om = rng.standard_normal(15)
        d_Om = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        from cyglue.forms import MetricTensor, form_norm
        g = MetricTensor(6, np.eye(6))
        unit = max(float(form_norm(g, KForm(6, 2, d_om))),
                   float(form_norm(g, KForm(6, 3, d_Om))))
        ratios = []
        for eps in (1e-3, 1e-4):
            rec = check_prop32(KForm(6, 2, OM0.coeffs + eps * d_om),
                               KForm(6, 3, OMEGA0.coeffs + eps * d_Om),
                               OM0, OMEGA0)
            assert rec.eps == pytest.approx(eps * unit, rel=1e-12)
            ratios.append(float(rec.ratio))
        # empirical comparison constant stabilizes as eps -> 0
        assert ratios[0] == pytest.approx(ratios[1], rel=0.02)
        assert 0.1 < ratios[1] < 10.0
