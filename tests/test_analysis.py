import numpy as np
import pytest

from cyglue import _multiindex as mi
from cyglue import analysis as an
from cyglue import cones as cn
from cyglue.errors import ConfigInvalid
from cyglue.forms import KForm, MetricTensor, lower_tensor_norm


def unit_dirs(n, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, 6))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def flat6(x):
    return MetricTensor(6, np.broadcast_to(np.eye(6),
                                           np.asarray(x).shape[:-1] + (6, 6)))


def polar_metric(x):
    """diag(1, r^2) on coordinates (r, theta)."""
    r = x[..., 0]
    comps = np.zeros(x.shape[:-1] + (2, 2))
    comps[..., 0, 0] = 1.0
    comps[..., 1, 1] = r ** 2
    return MetricTensor(2, comps)


class TestLocalStep:
    def test_default_scales_with_radius(self):
        x = np.array([[3.0, 0.0, 0.0, 0.0, 0.0, 4.0]])
        assert an.local_step(x, None) == pytest.approx(5e-3)

    def test_explicit_override_broadcasts(self):
        x = np.zeros((4, 6))
        assert np.allclose(an.local_step(x, 1e-2), 1e-2)


class TestSeededSamples:
    @pytest.mark.parametrize("seed", [0, 7, 41])
    @pytest.mark.parametrize("n_dirs", [4, 12])
    def test_shell_grid_keeps_the_draw_order(self, seed, n_dirs):
        # the body the neck sup grid and the Moser sample grid each had
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((n_dirs, 6))
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        nodes, _ = np.polynomial.legendre.leggauss(4)
        r = 0.5 * (0.3 - 0.1) * nodes + 0.5 * (0.3 + 0.1)
        want = (r[:, None, None] * v[None, :, :]).reshape(-1, 6)
        got = an.shell_grid(0.1, 0.3, n_dirs, 4, seed)
        assert got.tobytes() == want.tobytes()
        assert an.unit_directions(n_dirs, seed).tobytes() == v.tobytes()


def outer_field(y):
    """A (..., 3, 3) array field, nonlinear in every coordinate."""
    return np.einsum("...i,...j->...ij", np.sin(y[..., :3]),
                     np.exp(0.5 * y[..., 3:]))


class TestCentralDifferences:
    """central_differences against the stencil each operator used to carry
    inline: one shift x +- step e_i at a time, the quotient divided by
    twice the step broadcast over the value axes."""

    def test_array_output_matches_inline_stencil(self):
        x = 1.3 * unit_dirs(5, seed=6)
        step = an.local_step(x, None)
        want = np.empty((5, 6, 3, 3))
        for i in range(6):
            hp = step[..., None] * np.eye(6)[i]
            want[..., i, :, :] = ((outer_field(x + hp) - outer_field(x - hp))
                                  / (2.0 * step[..., None, None]))
        got = an.central_differences(outer_field, x)
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    def test_dict_output_matches_inline_stencil(self):
        # a dict of named fields, each differenced by its own call: the
        # scalar, complex and tensor values the stencil must carry
        x = 0.4 * unit_dirs(7, seed=7)
        step = an.local_step(x, None)
        diffs = {}
        for i in range(6):
            hp = step[:, None] * np.eye(6)[i]
            plus, minus = named_field(x + hp), named_field(x - hp)
            for name, p in plus.items():
                denom = (2.0 * step).reshape((-1,) + (1,) * (p.ndim - 1))
                diffs.setdefault(name, []).append((p - minus[name]) / denom)
        got = named_differences(x, None)
        assert set(got) == set(diffs)
        for name, d in diffs.items():
            want = np.stack(d, axis=1)
            assert got[name].shape == want.shape
            assert got[name].dtype == want.dtype
            assert got[name].flags.c_contiguous
            assert np.array_equal(got[name], want)

    def test_two_dimensional_batch(self):
        x = (0.8 * unit_dirs(12, seed=8)).reshape(3, 4, 6)
        step = an.local_step(x, None)
        denom = (2.0 * step).reshape(step.shape + (1, 1))
        want = np.stack(
            [(outer_field(x + step[..., None] * np.eye(6)[i])
              - outer_field(x - step[..., None] * np.eye(6)[i])) / denom
             for i in range(6)], axis=2)
        got = an.central_differences(outer_field, x)
        assert got.shape == (3, 4, 6, 3, 3)
        assert np.array_equal(got, want)

    def test_explicit_step(self):
        x = 2.0 * unit_dirs(4, seed=9)
        for h in (1e-4, np.array([1e-3, 2e-3, 5e-4, 1e-2])):
            st = an.local_step(x, h)
            want = np.empty((4, 6, 3, 3))
            for i in range(6):
                hp = st[..., None] * np.eye(6)[i]
                want[..., i, :, :] = (
                    (outer_field(x + hp) - outer_field(x - hp))
                    / (2.0 * st[..., None, None]))
            assert np.array_equal(an.central_differences(outer_field, x, h),
                                  want)

    def test_dimension_two(self):
        pts = np.array([[0.7, 0.3], [2.0, 1.1], [5.0, -0.4]])
        step = an.local_step(pts, None)
        want = np.empty((3, 2, 2, 2))
        for i in range(2):
            hp = step[..., None] * np.eye(2)[i]
            want[..., i, :, :] = ((polar_metric(pts + hp).components
                                   - polar_metric(pts - hp).components)
                                  / (2.0 * step[..., None, None]))
        got = an.central_differences(lambda y: polar_metric(y).components,
                                     pts)
        assert np.array_equal(got, want)
        # d_r g_tt = 2r is exact for a quadratic
        assert np.allclose(got[:, 0, 1, 1], 2.0 * pts[:, 0], rtol=1e-12)

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_exterior_derivative_matches_double_loop(self, k):
        rng = np.random.default_rng(k)
        n = mi.ncomp(6, k)
        A, B = rng.standard_normal((2, n, 6))

        def field(y):
            return KForm(6, k, np.sin(y @ A.T) + 1j * np.cos(y @ B.T) * k)

        x = 0.9 * unit_dirs(8, seed=10 + k)
        # the exterior derivative as a double loop over index sets
        step = an.local_step(x, None)
        probe = field(x)
        partials = [(field(x + step[..., None] * np.eye(6)[i]).coeffs
                     - field(x - step[..., None] * np.eye(6)[i]).coeffs)
                    / (2.0 * step[..., None]) for i in range(6)]
        rank_k = mi.index_rank(6, k)
        want = np.zeros((8, mi.ncomp(6, k + 1)), dtype=probe.coeffs.dtype)
        for pos, J in enumerate(mi.index_sets(6, k + 1)):
            acc = 0.0
            for p, i in enumerate(J):
                rest = J[:p] + J[p + 1:]
                acc = acc + (-1.0) ** p * partials[i][..., rank_k[rest]]
            want[..., pos] = acc
        got = an.fd_exterior_derivative(field, x)
        assert got.degree == k + 1 and got.coeffs.shape == want.shape
        assert np.max(np.abs(got.coeffs - want)) \
            <= 1e-15 * np.max(np.abs(want))


def named_field(y):
    return {"outer": outer_field(y),
            "scalar": np.cos(y[..., 0] * y[..., 5]),
            "complex": np.exp(1j * y[..., :4])}


def named_differences(x, h):
    """central_differences of each value of named_field, one call each."""
    return {name: an.central_differences(lambda y, name=name:
                                         named_field(y)[name], x, h)
            for name in ("outer", "scalar", "complex")}


class TestStencilBudget:
    """central_differences gives the same bits whatever the point budget:
    one shift per call, or chunks that split the 12 shifts unevenly and
    separate x + step e_i from x - step e_i."""

    @staticmethod
    def budgets(x):
        n = int(np.prod(np.shape(x)[:-1]))
        return (1, 5 * n, 11 * n)

    @staticmethod
    def assert_same(got, want):
        if isinstance(want, dict):
            assert set(got) == set(want)
            for name in want:
                assert np.array_equal(got[name], want[name])
                assert got[name].dtype == want[name].dtype
        else:
            assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "differences",
        [lambda x, h: an.central_differences(outer_field, x, h),
         named_differences], ids=["array", "dict"])
    @pytest.mark.parametrize("shape", [(), (5,), (3, 4)],
                             ids=["0d", "1d", "2d"])
    @pytest.mark.parametrize("h", [None, 1e-3, "per-sample"])
    def test_budget_does_not_change_the_result(self, monkeypatch,
                                               differences, shape, h):
        n = int(np.prod(shape))
        x = (0.9 * unit_dirs(n, seed=25)).reshape(shape + (6,))
        if h == "per-sample":
            h = 1e-3 * (1.0 + np.arange(n).reshape(shape))
        want = differences(x, h)
        for budget in self.budgets(x):
            monkeypatch.setattr(an, "_BLOCK", budget)
            self.assert_same(differences(x, h), want)

    def test_nested_per_sample_step(self, monkeypatch):
        # the nested use TestSecondDifferences compares against
        x = 2.0 * unit_dirs(4, seed=23)
        st = an.local_step(x, np.array([1e-3, 2e-3, 5e-4, 1e-2]))

        def nested():
            return an.central_differences(
                lambda y: an.central_differences(outer_field, y, st), x, st)

        want = nested()
        for budget in self.budgets(x):
            monkeypatch.setattr(an, "_BLOCK", budget)
            self.assert_same(nested(), want)

    def test_calls_hold_whole_shifts_within_the_budget(self, monkeypatch):
        calls = []

        def counted(y):
            calls.append(y.shape)
            return outer_field(y)

        x = unit_dirs(5, seed=26)
        for budget, want in ((1, [(1, 5, 6)] * 12),
                             (25, [(5, 5, 6)] * 2 + [(2, 5, 6)]),
                             (4096, [(12, 5, 6)])):
            calls.clear()
            monkeypatch.setattr(an, "_BLOCK", budget)
            an.central_differences(counted, x)
            assert calls == want


class TestSecondDifferences:
    """second_differences against central_differences nested at one step."""

    def test_matches_nested_central_differences_on_ac_metric(self):
        ale = cn.calabi_ale_o3()
        x = 1.3 * unit_dirs(6, seed=20)
        step = an.local_step(x, None)

        def comps(y):
            return ale.metric_on_target(y).components

        want = an.central_differences(
            lambda y: an.central_differences(comps, y, step), x, step)
        got = an.second_differences(comps, x)
        assert got.shape == want.shape == (6, 6, 6, 6, 6)
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    def test_quadratic_is_exact(self):
        rng = np.random.default_rng(21)
        A = rng.standard_normal((6, 6))
        A = A + A.T
        b = rng.standard_normal(6)
        x = 0.9 * unit_dirs(4, seed=22)
        got = an.second_differences(
            lambda y: 0.5 * np.einsum("...i,ij,...j->...", y, A, y) + y @ b,
            x)
        assert got.shape == (4, 6, 6)
        # only rounding survives: about eps |f| / step^2, step ~ 1e-3
        assert np.max(np.abs(got - A)) < 1e-9 * np.max(np.abs(A))

    def test_scalar_and_per_sample_steps(self):
        x = 2.0 * unit_dirs(4, seed=23)
        for h in (1e-3, np.array([1e-3, 2e-3, 5e-4, 1e-2])):
            st = an.local_step(x, h)
            want = an.central_differences(
                lambda y: an.central_differences(outer_field, y, st), x, st)
            got = an.second_differences(outer_field, x, h)
            assert got.shape == (4, 6, 6, 3, 3)
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    def test_one_call_per_distinct_point(self):
        calls = []

        def counted(y):
            calls.append(y.copy())
            return outer_field(y)

        an.second_differences(counted, 1.1 * unit_dirs(3, seed=24))
        assert len(calls) == 1 + 2 * 6 + 4 * 15 == 73
        pts = np.concatenate(calls)
        assert len(np.unique(pts, axis=0)) == len(pts)


class TestChristoffel:
    def test_flat_metric_vanishes(self):
        x = unit_dirs(5, seed=1) * 2.0
        assert np.max(np.abs(an.christoffel(flat6, x))) < 1e-13

    def test_polar_coordinates_oracle(self):
        # Gamma^r_tt = -r, Gamma^t_rt = Gamma^t_tr = 1/r, all others zero
        pts = np.array([[0.7, 0.3], [2.0, 1.1], [5.0, -0.4]])
        gam = an.christoffel(polar_metric, pts)
        want = np.zeros((3, 2, 2, 2))
        want[:, 0, 1, 1] = -pts[:, 0]
        want[:, 1, 0, 1] = want[:, 1, 1, 0] = 1.0 / pts[:, 0]
        assert np.max(np.abs(gam - want)) < 1e-10

    def test_symmetry_in_lower_indices(self):
        ale = cn.calabi_ale_o3()
        x = 1.4 * unit_dirs(4, seed=2)
        gam = an.christoffel(ale.metric_on_target, x)
        assert np.max(np.abs(gam - np.swapaxes(gam, -1, -2))) < 1e-9


class TestFdExteriorDerivative:
    def test_linear_coefficient_is_exact(self):
        # eta = x_2 dx_0 ^ dx_1 has d eta = dx_2 ^ dx_0 ^ dx_1 = +dx_0^dx_1^dx_2 ... sign by position
        def field(x):
            c = np.zeros(x.shape[:-1] + (15,))
            c[..., 0] = x[..., 2]
            return KForm(6, 2, c)

        x = unit_dirs(5, seed=3)
        got = an.fd_exterior_derivative(field, x)
        want = KForm(6, 3, np.zeros((5, 20)))
        from cyglue._multiindex import index_rank
        want.coeffs[..., index_rank(6, 3)[(0, 1, 2)]] = 1.0
        assert np.max(np.abs(got.coeffs - want.coeffs)) < 1e-12

    def test_closed_model_form(self):
        cone = cn.flat_c3_cone()
        x = 1.5 * unit_dirs(5, seed=4)
        d_om = an.fd_exterior_derivative(lambda y: cone.fields_at(y).omega, x)
        assert np.max(np.abs(d_om.coeffs)) == 0.0

    def test_matches_analytic_derivative(self):
        ale = cn.calabi_ale_o3()
        x = 2.5 * unit_dirs(5, seed=5)
        fd = an.fd_exterior_derivative(ale.correction_B, x)
        assert np.max(np.abs(fd.coeffs - ale.correction_dB(x).coeffs)) < 1e-7


class TestCovariantDerivative:
    def test_metric_compatibility(self):
        ale = cn.calabi_ale_o3()
        x = 1.5 * unit_dirs(5, seed=7)
        nd = an.covariant_derivative(ale.metric_on_target,
                                     ale.metric_on_target, x)
        assert np.max(np.abs(nd)) < 1e-8

    def test_constant_form_in_flat_metric(self):
        def const(y):
            return KForm(6, 2, np.broadcast_to(
                cn.FLAT_OMEGA.coeffs, np.asarray(y).shape[:-1] + (15,)).copy())

        x = 2.0 * unit_dirs(4, seed=8)
        nd = an.covariant_derivative(const, flat6, x)
        assert np.max(np.abs(nd)) == 0.0

    def test_cone_kahler_form_is_parallel(self):
        cone = cn.flat_c3_cone()
        x = 1.5 * unit_dirs(4, seed=9)
        nd = an.covariant_derivative(lambda y: cone.fields_at(y).omega,
                                     lambda y: cone.fields_at(y).g, x)
        assert np.max(np.abs(nd)) < 1e-8

    def test_kform_and_tensor_inputs_agree(self):
        ale = cn.calabi_ale_o3()
        x = 1.5 * unit_dirs(3, seed=10)
        as_form = an.covariant_derivative(
            lambda y: ale.pulled_back_fields(y, "raw").omega,
            ale.metric_on_target, x)
        as_tensor = an.covariant_derivative(
            lambda y: ale.pulled_back_fields(y, "raw").omega.as_tensor(),
            ale.metric_on_target, x)
        assert np.allclose(as_form, as_tensor, atol=1e-12)

    def test_derivative_index_comes_first(self):
        ale = cn.calabi_ale_o3()
        x = 1.5 * unit_dirs(3, seed=11)
        nd = an.covariant_derivative(ale.metric_on_target,
                                     ale.metric_on_target, x)
        assert nd.shape == (3, 6, 6, 6)


class TestRiemannRicci:
    def test_flat_space_vanishes(self):
        x = 2.0 * unit_dirs(4, seed=12)
        R, ric = an.riemann_ricci(flat6, x)
        assert np.max(np.abs(R)) == 0.0
        assert np.max(np.abs(ric)) == 0.0

    def test_ale_is_ricci_flat_but_curved(self):
        ale = cn.calabi_ale_o3()
        dirs = unit_dirs(5, seed=13)
        for r0, h in ((0.7, 1.4e-3), (1.0, None), (1.5, None), (3.0, None)):
            x = r0 * dirs
            R, ric = an.riemann_ricci(ale.metric_on_target, x, h=h)
            g = ale.metric_on_target(x)
            assert np.max(lower_tensor_norm(g, ric, 2)) < 1e-7
        assert np.max(np.abs(R)) > 1e-4  # r = 3 still visibly curved

    def test_richardson_extrapolation_helps(self):
        ale = cn.calabi_ale_o3()
        x = 1.5 * unit_dirs(5, seed=13)
        g = ale.metric_on_target(x)
        _, ric_plain = an.riemann_ricci(ale.metric_on_target, x,
                                        richardson=False)
        _, ric_rich = an.riemann_ricci(ale.metric_on_target, x)
        err_plain = np.max(lower_tensor_norm(g, ric_plain, 2))
        err_rich = np.max(lower_tensor_norm(g, ric_rich, 2))
        assert err_rich < 0.01 * err_plain

    def test_first_bianchi_identity(self):
        ale = cn.calabi_ale_o3()
        x = 1.0 * unit_dirs(4, seed=14)
        R, _ = an.riemann_ricci(ale.metric_on_target, x)
        cyc = (R + np.einsum("...lkij->...lijk", R)
               + np.einsum("...lkij->...ljki", R))
        assert np.max(np.abs(cyc)) < 1e-6 * np.max(np.abs(R))

    def test_antisymmetry_in_last_pair(self):
        ale = cn.calabi_ale_o3()
        x = 1.0 * unit_dirs(4, seed=15)
        R, _ = an.riemann_ricci(ale.metric_on_target, x)
        assert np.max(np.abs(R + np.swapaxes(R, -1, -2))) < 1e-6 * np.max(np.abs(R))

    def test_homothety_scaling(self):
        ale = cn.calabi_ale_o3()
        x = 1.5 * unit_dirs(4, seed=16)
        c = 2.0

        def scaled(y):
            return MetricTensor(6, c ** 2 * ale.metric_on_target(y).components)

        Ra, _ = an.riemann_ricci(ale.metric_on_target, x)
        Rb, _ = an.riemann_ricci(scaled, x)
        # the (1,3) curvature tensor is scale invariant
        assert np.allclose(Ra, Rb, atol=1e-9)
        ga, gb = ale.metric_on_target(x), scaled(x)
        low_a = np.einsum("...lkij,...lm->...mkij", Ra, ga.components)
        low_b = np.einsum("...lkij,...lm->...mkij", Rb, gb.components)
        ratio = (lower_tensor_norm(gb, low_b, 4)
                 / lower_tensor_norm(ga, low_a, 4))
        assert np.allclose(ratio, c ** -2, atol=1e-8)


class TestKahlerRicci:
    def test_analytic_potential_oracle(self):
        # f = |z_0|^4 + 2 |z_1|^4 + Re(z_0 conj(z_1)) has complex Hessian
        # diag(4 |z_0|^2, 8 |z_1|^2, 0) plus 1/2 in the (0,1) and (1,0) slots
        def f(x):
            z = cn.as_complex(x)
            return (np.abs(z[..., 0]) ** 4 + 2.0 * np.abs(z[..., 1]) ** 4
                    + (z[..., 0] * z[..., 1].conj()).real)

        x = np.array([[1.0, 0.5, -0.3, 0.2, 0.1, 0.4],
                      [0.2, -1.0, 0.7, 0.3, -0.5, 0.6]])
        z = cn.as_complex(x)
        want = np.zeros((2, 3, 3), complex)
        want[:, 0, 0] = 4.0 * np.abs(z[:, 0]) ** 2
        want[:, 1, 1] = 8.0 * np.abs(z[:, 1]) ** 2
        want[:, 0, 1] = want[:, 1, 0] = 0.5
        # sign convention: returns minus the Hessian; truncation is O(h^2)
        err_h = np.max(np.abs(an.kahler_ricci(f, x, h=1e-3) + want))
        err_h2 = np.max(np.abs(an.kahler_ricci(f, x, h=5e-4) + want))
        assert err_h < 1e-5
        assert err_h / err_h2 == pytest.approx(4.0, abs=0.2)

    def test_result_is_hermitian(self):
        ale = cn.calabi_ale_o3()
        x = 0.8 * unit_dirs(3, seed=17)
        out = an.kahler_ricci(ale.log_det_h, x)
        assert np.max(np.abs(out - np.swapaxes(out, -1, -2).conj())) < 1e-10

    def test_ale_ricci_flat_double_precision(self):
        ale = cn.calabi_ale_o3()
        dirs = unit_dirs(5, seed=18)
        for r0 in (0.5, 1.0, 3.0, 10.0):
            out = an.kahler_ricci(ale.log_det_h, r0 * dirs)
            assert np.max(np.abs(out)) < 1e-8

    def test_ale_ricci_flat_extended_precision_near_tip(self):
        ale = cn.calabi_ale_o3()
        dirs = unit_dirs(5, seed=19)

        def f(x):
            return ale.log_det_h(x, extended=True)

        for r0 in (0.1, 0.2, 0.5):
            out = an.kahler_ricci(f, r0 * dirs)
            assert np.max(np.abs(out)) < 1e-8

    def test_dimension_validation(self):
        with pytest.raises(ConfigInvalid):
            an.kahler_ricci(lambda x: np.zeros(x.shape[:-1]), np.zeros((2, 7)))


class TestRegionNorms:
    def test_closed_forms_for_model_kahler_form(self):
        cone = cn.flat_c3_cone()
        om = lambda y: {"omega": cone.fields_at(y).omega}
        rep = an.region_norms(om, cone, (0.5, 1.5))["omega"]
        vol = np.pi ** 3 * (1.5 ** 6 - 0.5 ** 6) / 6.0
        assert rep.c0 == pytest.approx(np.sqrt(3.0), rel=1e-12)
        assert rep.l2 == pytest.approx(np.sqrt(3.0 * vol), rel=1e-3)
        assert rep.l12 == pytest.approx((3.0 ** 6 * vol) ** (1 / 12), rel=1e-3)
        assert rep.volume == pytest.approx(vol, rel=1e-3)
        assert rep.quad_error < 1e-10  # radially constant integrand

    def test_hoelder_sanity_bounds(self):
        patch = cn.t6_z3_orbifold_patch(0)
        pert = patch.synthetic_perturbation(nu=2.0, amplitude=0.3)
        cone = patch.cone
        dA = lambda y: {"dA": pert.dA(y)}
        rep = an.region_norms(dA, cone, (0.05, 0.2))["dA"]
        assert rep.l2 <= rep.volume ** 0.5 * rep.c0 * (1 + 1e-9)
        assert rep.l12 <= rep.volume ** (1 / 12) * rep.c0 * (1 + 1e-9)

    def test_quotient_volume_is_one_third(self):
        flat, quot = cn.flat_c3_cone(), cn.quotient_cone_z3()
        om = lambda y: {"omega": flat.fields_at(y).omega}
        a = an.region_norms(om, flat, (0.5, 1.0))["omega"]
        b = an.region_norms(om, quot, (0.5, 1.0))["omega"]
        assert b.volume == pytest.approx(a.volume / 3.0, rel=1e-6)

    def test_radial_scaling_of_l2(self):
        # |dA| ~ r^nu gives squared mass ~ r^(2 nu + 6) integrated
        patch = cn.t6_z3_orbifold_patch(0)
        pert = patch.synthetic_perturbation(nu=2.0, amplitude=0.3)
        cone = patch.cone
        dA = lambda y: {"dA": pert.dA(y)}
        reps = [an.region_norms(dA, cone, (a, 2 * a))["dA"]
                for a in (0.02, 0.04, 0.08)]
        vals = np.array([r.l2 for r in reps])
        slope = np.polyfit(np.log([0.02, 0.04, 0.08]), np.log(vals), 1)[0]
        assert slope == pytest.approx(2.0 + 3.0, abs=1e-6)

    def test_tensor_valued_fields_supported(self):
        ale = cn.calabi_ale_o3()
        cone = cn.flat_c3_cone()
        g = lambda y: cone.fields_at(y).g
        grad = lambda y: {
            "grad": an.covariant_derivative(ale.metric_on_target, g, y)}
        rep = an.region_norms(grad, cone, (2.0, 3.0), n_radial=4)["grad"]
        assert 0 < rep.c0 < 1.0
        assert 0 < rep.l2

    def test_bounds_validation(self):
        cone = cn.flat_c3_cone()
        om = lambda y: {"omega": cone.fields_at(y).omega}
        with pytest.raises(ConfigInvalid):
            an.region_norms(om, cone, (1.0, 0.5))
        with pytest.raises(ConfigInvalid):
            an.region_norms(om, cone, (0.0, 0.5))
