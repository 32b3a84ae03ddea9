import collections
import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest

from cyglue import _multiindex as mi
from cyglue import analysis as an
from cyglue import cones as cn
from cyglue import forms
from cyglue import gluing as gl
from cyglue.errors import (ConfigInvalid, NotPositive, NotStable,
                           RateOutOfRange)
from cyglue.forms import KForm, form_norm, wedge


def unit_dirs(n, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, 6))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


SMALL = dict(n_radial=2, link_level=(2, 2, 2), n_sup_dirs=4)
SCAN_TS = [0.4, 0.25, 0.16, 0.1]


@pytest.fixture(scope="module")
def geometry():
    return gl._standard_geometry(gl.GluingConfig(t=0.1))


@pytest.fixture(scope="module")
def glued(geometry):
    cone, ac, pert = geometry
    return gl.build_glued(gl.GluingConfig(t=0.1), cone, ac, pert)


@pytest.fixture(scope="module")
def small_scan():
    return gl.defect_scan(gl.GluingConfig(t=0.1, **SMALL), SCAN_TS)


class TestGluingConfig:
    def test_default_alpha_closes_volume_ladder(self):
        assert gl.default_alpha(2.0) == pytest.approx(0.8, abs=1e-15)
        cfg = gl.GluingConfig(t=0.1)
        assert cfg.alpha == pytest.approx(0.8, abs=1e-15)
        assert cfg.kappa == pytest.approx(0.6, abs=1e-12)
        assert cfg.gamma == pytest.approx(1.2, abs=1e-12)

    def test_neck_bounds(self):
        cfg = gl.GluingConfig(t=0.1)
        lo, hi = cfg.neck_bounds
        assert lo == pytest.approx(0.1 ** 0.8, rel=1e-14)
        assert hi == pytest.approx(2 * lo, rel=1e-14)

    @pytest.mark.parametrize("kw", [
        dict(t=-0.1), dict(t=0.0),
        dict(t=0.1, alpha=0.0), dict(t=0.1, alpha=1.0),
        dict(t=0.1, nu=-1.0),
        dict(t=0.1, lam=-2.0), dict(t=0.1, lam=-3.0),
        dict(t=0.9),                 # t R crosses the inner seam
        dict(t=0.1, alpha=0.2),      # neck sticks out of the outer chart
    ])
    def test_rejects_inadmissible(self, kw):
        with pytest.raises(ConfigInvalid):
            gl.GluingConfig(**kw)

    def test_custom_rate_pair(self):
        cfg = gl.GluingConfig(t=0.1, nu=4.0, lam=-6.0)
        assert cfg.alpha == pytest.approx(5 / 7, rel=1e-14)
        assert cfg.kappa == pytest.approx(6 / 7, rel=1e-12)
        assert cfg.gamma == pytest.approx(12 / 7, rel=1e-12)


class TestCutoff:
    def test_locked_outside_transition(self):
        s = np.array([0.0, 0.5, 1.0])
        assert np.array_equal(gl.cutoff_F(s), np.zeros(3))
        assert np.array_equal(gl.cutoff_F(s + 2.0), np.ones(3))
        assert np.array_equal(gl.cutoff_F_prime(s), np.zeros(3))
        assert np.array_equal(gl.cutoff_F_prime(s + 2.0), np.zeros(3))

    def test_symmetric_midpoint(self):
        assert gl.cutoff_F(1.5) == pytest.approx(0.5, abs=1e-15)

    def test_monotone(self):
        s = np.linspace(0.5, 2.5, 201)
        F = gl.cutoff_F(s)
        assert np.all(np.diff(F) >= 0.0)
        assert np.all(gl.cutoff_F_prime(s) >= 0.0)

    def test_derivative_matches_finite_difference(self):
        s = np.array([1.2, 1.5, 1.8])
        h = 1e-6
        fd = (gl.cutoff_F(s + h) - gl.cutoff_F(s - h)) / (2 * h)
        assert np.allclose(gl.cutoff_F_prime(s), fd, rtol=1e-7, atol=1e-12)

    def test_second_derivative_matches_richardson_differences(self):
        s = np.linspace(0.9, 2.1, 25)

        def central(h):
            return (gl.cutoff_F_prime(s + h) - gl.cutoff_F_prime(s - h)) / (2 * h)

        want = (4.0 * central(5e-5) - central(1e-4)) / 3.0
        assert np.max(np.abs(gl.cutoff_F_second(s) - want)) \
            <= 1e-8 * np.max(np.abs(want))
        assert np.array_equal(gl.cutoff_F_second(np.array([0.5, 1.0, 2.0])),
                              np.zeros(3))


class TestCorrectionForms:
    def test_unperturbed_conical_side_is_zero(self, geometry):
        cone, ac, _ = geometry
        cfg = gl.GluingConfig(t=0.1, conical_amplitude=0.0)
        glued = gl.build_glued(cfg, cone, ac)
        x = 0.3 * unit_dirs(5)
        # no primitive A, so no dA: the cone-side branch is Omega_V itself
        assert glued.perturbation is None
        assert not np.any(glued.Omega_q(x).coeffs - cn.FLAT_OMEGA3.coeffs)
        assert not np.any(glued.Omega_t(0.5 * unit_dirs(5)).coeffs
                          - cn.FLAT_OMEGA3.coeffs)
        assert glued.ac is ac

    def test_refuses_slow_ac_rate(self, geometry):
        cone, ac, _ = geometry
        slow = dataclasses.replace(ac, rate=-3.0)
        with pytest.raises(RateOutOfRange):
            gl.build_glued(gl.GluingConfig(t=0.1), cone, slow)

    def test_refuses_mismatched_cone(self, geometry):
        _, ac, _ = geometry
        with pytest.raises(ConfigInvalid):
            gl.build_glued(gl.GluingConfig(t=0.1), cn.flat_c3_cone(), ac)

    def test_refuses_mismatched_perturbation_rate(self, geometry):
        cone, ac, _ = geometry
        pert = cn.t6_z3_orbifold_patch(0).synthetic_perturbation(
            3.0, 0.003, seed=0)
        with pytest.raises(ConfigInvalid):
            gl.build_glued(gl.GluingConfig(t=0.1), cone, ac, pert)

    def test_conical_primitive_grows_at_rate_nu_plus_one(self, geometry):
        cone, _, pert = geometry
        radii = np.array([0.15, 0.25, 0.4, 0.6])
        x = radii[:, None, None] * unit_dirs(3, seed=2)[None, :, :]
        vals = np.max(form_norm(cone.fields_at(x).g, pert.primitive_A(x)),
                      axis=-1)
        slope = np.polyfit(np.log(radii), np.log(vals), 1)[0]
        assert slope == pytest.approx(3.0, abs=0.05)

    def test_ac_primitive_decays_at_rate_lam_plus_one(self, geometry):
        cone, ac, _ = geometry
        radii = np.array([1.5, 2.5, 4.0, 6.0])
        y = radii[:, None, None] * unit_dirs(4)[None, :, :]
        vals = np.max(form_norm(cone.fields_at(y).g, ac.correction_B(y)),
                      axis=-1)
        slope = np.polyfit(np.log(radii), np.log(vals), 1)[0]
        assert slope == pytest.approx(-5.0, abs=0.1)


class TestGluedStructure:
    def test_region_tags(self, glued):
        dirs = unit_dirs(3, seed=1)
        assert np.all(glued.region(0.12 * dirs) == "P")
        assert np.all(glued.region(0.2 * dirs) == "neck")
        assert np.all(glued.region(0.5 * dirs) == "Q")

    def test_rejects_samples_outside_shared_chart(self, glued):
        with pytest.raises(ConfigInvalid):
            glued.region(0.09 * unit_dirs(2))
        with pytest.raises(ConfigInvalid):
            glued.region(1.2 * unit_dirs(2))

    def test_collapses_to_pure_branches(self, glued):
        dirs = unit_dirs(4, seed=5)
        xP, xQ = 0.12 * dirs, 0.5 * dirs
        assert np.array_equal(glued.Omega_t(xP).coeffs,
                              glued.Omega_p(xP).coeffs)
        assert np.array_equal(glued.Omega_t(xQ).coeffs,
                              glued.Omega_q(xQ).coeffs)

    def test_volume_form_is_closed_on_the_neck(self, glued):
        lo, hi = glued.config.neck_bounds
        pts = 0.5 * (lo + hi) * unit_dirs(6, seed=2)
        dOm = an.fd_exterior_derivative(glued.Omega_t, pts, h=1e-4)
        g = glued.cone.fields_at(pts).g
        assert np.max(form_norm(g, dOm)) < 1e-6

    def test_seam_term_present_only_in_transition(self, glued, geometry):
        lo, hi = glued.config.neck_bounds
        mid = 0.5 * (lo + hi) * unit_dirs(4, seed=3)
        _, ac, pert = geometry
        t, alpha = glued.config.t, glued.config.alpha
        r = np.linalg.norm(mid, axis=-1)
        F = gl.cutoff_F(r * t ** (-alpha))
        plain = (glued.cone.fields_at(mid).Omega.coeffs
                 + F[..., None] * pert.dA(mid).coeffs
                 + (1 - F)[..., None] * ac.correction_dB(mid / t).coeffs)
        assert np.any(glued.Omega_t(mid).coeffs != plain)

    def _across_chart(self, glued, seed):
        """Samples on the resolved side, across the neck and on the cone
        side, with the neck's transition region well covered."""
        lo, hi = glued.config.neck_bounds
        rng = np.random.default_rng(seed)
        radii = np.concatenate([rng.uniform(0.11, lo, 8),
                                rng.uniform(lo, hi, 16),
                                rng.uniform(hi, 0.9, 8)])
        return radii[:, None] * unit_dirs(32, seed=seed)

    @pytest.mark.parametrize(
        "perturbed, side",
        [(True, "P"), (True, "neck"), (True, "Q"),
         (False, "P"), (False, "neck"), (False, "Q")],
        ids=["P", "neck", "Q",
             "unperturbed-P", "unperturbed-neck", "unperturbed-Q"])
    def test_partials_match_richardson_differences(self, glued, geometry,
                                                   perturbed, side):
        # (4 D(s/2) - D(s)) / 3 of the central difference D(s) of Omega_t,
        # s = 1e-3 |x|, on each side of the neck and across its seam; the
        # unperturbed structure has no A, so its seam is -dr ^ B_t alone
        if not perturbed:
            cone, ac, _ = geometry
            glued = gl.build_glued(
                gl.GluingConfig(t=0.1, conical_amplitude=0.0), cone, ac)
            assert glued.perturbation is None
        x = self._across_chart(glued, 14)
        x = x[glued.region(x) == side]
        s = 1e-3 * np.linalg.norm(x, axis=-1)[:, None]

        def central(scale):
            return np.stack([
                (glued.Omega_t(x + scale * s * e).coeffs
                 - glued.Omega_t(x - scale * s * e).coeffs) / (2 * scale * s)
                for e in np.eye(6)], axis=1)

        want = (4.0 * central(0.5) - central(1.0)) / 3.0
        got = glued.Omega_t_jet(x)[1]
        assert len(x) >= 8
        assert got.shape == (len(x), 6, 20)
        assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))

    def test_closed_form_assembly_matches_generic(self, glued, geometry):
        # Omega_V + F dA + (1 - F) dB(x/t) + F' t^-alpha dr ^ (A - t B(x/t)),
        # the seam wedged by the generic kernel
        x = self._across_chart(glued, 12)
        r = np.linalg.norm(x, axis=-1)
        t, alpha = glued.config.t, glued.config.alpha
        s = r * t ** (-alpha)
        F, Fp = gl.cutoff_F(s), gl.cutoff_F_prime(s)
        _, ac, pert = geometry
        y = x / t
        seam = (Fp * t ** (-alpha))[:, None] * wedge(
            KForm(6, 1, x / r[:, None]),
            pert.primitive_A(x) - ac.correction_B(y) * t).coeffs
        want = (glued.cone.fields_at(x).Omega.coeffs
                + F[:, None] * pert.dA(x).coeffs
                + (1 - F)[:, None] * ac.correction_dB(y).coeffs + seam)
        got = glued.Omega_t(x).coeffs
        assert np.sum(Fp != 0.0) >= 8
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        got_seam = (Fp * t ** (-alpha))[:, None] * (
            pert.correction_terms(x)[1] - t * ac.correction_terms(y)[1])
        assert np.max(np.abs(got_seam - seam)) \
            <= 1e-13 * np.max(np.abs(seam))

    def test_closed_form_pass_makes_no_generic_kernel_call(self, glued,
                                                           geometry,
                                                           monkeypatch):
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module in (forms, mi, cn, gl, gl.su3):
            for name in ("wedge", "contract", "pullback", "compound_matrix"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name,
                                        counted(name, getattr(module, name)))
        monkeypatch.setattr(cn.ConeGeometry, "fields_at",
                            counted("fields_at", cn.ConeGeometry.fields_at))
        monkeypatch.setattr(gl.su3, "_theta2",
                            counted("_theta2", gl.su3._theta2))
        Om = glued.Omega_t(self._across_chart(glued, 13)).coeffs
        assert not calls
        gl.su3._recover_batch(
            np.broadcast_to(cn.FLAT_OMEGA.coeffs, (len(Om), 15)), Om)
        assert calls == {"_theta2": 1}

        # on the neck nodes: one xhat ^ iota_xhat Omega_V, one product
        # with the table of its partials and one xhat ^ b per Omega_t
        # call, and a recovery that certifies positivity without an
        # eigensolve
        calls.clear()
        neck = gl._sup_grid(glued.config)
        tables = {id(cn._RADIAL_OMEGA3): "radial_Omega",
                  id(cn._SYM_RADIAL_OMEGA3): "sym_radial_Omega",
                  id(geometry[2]._wedge_b): "xhat_b"}
        table_product = cn._table_product

        def counted_product(a, table):
            calls[tables.get(id(table), "other")] += 1
            return table_product(a, table)

        monkeypatch.setattr(cn, "_table_product", counted_product)
        monkeypatch.setattr(cn, "_radial_wedge",
                            counted("_radial_wedge", cn._radial_wedge))
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            counted("eigvalsh", np.linalg.eigvalsh))
        Om = glued.Omega_t(neck).coeffs
        assert calls == {"_radial_wedge": 1, "radial_Omega": 1,
                         "sym_radial_Omega": 1, "xhat_b": 1}
        out = gl.su3._recover_batch(
            np.broadcast_to(cn.FLAT_OMEGA.coeffs, (len(Om), 15)), Om)
        assert np.all(out["positive"])
        assert calls["eigvalsh"] == 0

    def test_kaehler_form_equals_cone_form_off_the_resolved_side(self, glued):
        x = 0.5 * unit_dirs(3)
        flat = glued.cone.fields_at(x).omega.coeffs
        assert np.array_equal(glued.omega_t(x).coeffs, flat)
        assert np.array_equal(glued.metric_t(x).components,
                              np.broadcast_to(np.eye(6), (3, 6, 6)))

    def test_resolved_side_metric_is_ale(self, glued):
        x = 0.12 * unit_dirs(3, seed=7)
        expect = glued.ac.metric_on_target(x / glued.config.t).components
        assert np.array_equal(glued.metric_t(x).components, expect)
        w = np.linalg.eigvalsh(glued.metric_t(x).components)
        assert np.all(w > 0)

    def test_unperturbed_family_matches_cone_volume_form_outside(self,
                                                                 geometry):
        cone, ac, _ = geometry
        cfg = gl.GluingConfig(t=0.1, conical_amplitude=0.0)
        bare = gl.build_glued(cfg, cone, ac)
        x = 0.5 * unit_dirs(3, seed=4)
        assert np.array_equal(bare.Omega_t(x).coeffs,
                              cone.fields_at(x).Omega.coeffs)


class TestNeckRecovery:
    def test_small_t_recovery_is_close(self, geometry):
        cone, ac, pert = geometry
        g = gl.build_glued(gl.GluingConfig(t=0.05), cone, ac, pert)
        rep = gl.nearly_cy_on_neck(g)
        assert rep.stable and rep.within_eps0
        assert rep.n_samples == 48
        assert rep.max_defect_theta2 < 0.05
        assert rep.max_defect_omega20 < 0.05
        assert rep.max_defect_normalization < 0.05
        assert rep.max_f_deviation < 0.05

    def test_defects_shrink_with_t(self, geometry):
        cone, ac, pert = geometry
        reps = [gl.nearly_cy_on_neck(
            gl.build_glued(gl.GluingConfig(t=t), cone, ac, pert))
            for t in (0.3, 0.05)]
        assert reps[1].max_defect_theta2 < reps[0].max_defect_theta2
        assert reps[1].max_defect_normalization \
            < reps[0].max_defect_normalization

    def test_tight_threshold_flags(self, geometry):
        cone, ac, pert = geometry
        g = gl.build_glued(gl.GluingConfig(t=0.1), cone, ac, pert)
        rep = gl.nearly_cy_on_neck(g, eps0=1e-5)
        assert rep.stable and not rep.within_eps0


class TestDefectScan:
    def test_needs_enough_scan_points(self):
        cfg = gl.GluingConfig(t=0.1, **SMALL)
        with pytest.raises(ConfigInvalid):
            gl.defect_scan(cfg, [0.4, 0.2, 0.1])
        with pytest.raises(ConfigInvalid):
            gl.defect_scan(cfg, [0.4, 0.3, 0.25, 0.2])

    def test_rows_sorted_by_decreasing_t(self, small_scan):
        ts = small_scan.column("t")
        assert np.array_equal(ts, np.array(sorted(SCAN_TS, reverse=True)))

    def test_volume_column_scales_exactly(self, small_scan):
        fits = small_scan.fitted_exponents()
        slope, resid = fits["neck_volume"]
        assert slope == pytest.approx(4.8, abs=1e-10)
        assert resid < 1e-10

    def test_curvature_column_scales_exactly(self, small_scan):
        slope, resid = small_scan.fitted_exponents()["curvature_sup"]
        assert slope == pytest.approx(-2.0, abs=1e-6)
        assert resid < 1e-6

    def test_volume_defect_exponent_in_window(self, small_scan):
        slope, _ = small_scan.fitted_exponents()["Omega_defect_c0"]
        assert 0.9 <= slope <= 1.5

    def test_l2_exponents_carry_volume_weight(self, small_scan):
        fits = small_scan.fitted_exponents()
        assert fits["omega_l2"][0] > fits["omega_c0"][0] + 2.0
        assert fits["Omega_defect_l2"][0] > fits["Omega_defect_c0"][0] + 2.0
        assert fits["im_Omega_l2"][0] > fits["im_Omega_c0"][0] + 2.0

    def test_scan_columns_are_the_row_fields_in_csv_order(self):
        assert gl.SCAN_COLUMNS == (
            "t", "Omega_defect_c0", "Omega_defect_l2", "omega_c0",
            "omega_l2", "im_Omega_c0", "im_Omega_l2", "grad_omega_c0",
            "grad_omega_l12", "grad_omega_t_l12", "grad_re_Omega_l12",
            "hess_omega_c0", "neck_volume", "curvature_sup")

    def test_csv_round_trip_is_stable(self, small_scan, tmp_path):
        text = small_scan.to_csv()
        assert text.splitlines()[0] == ",".join(gl.SCAN_COLUMNS)
        assert len(text.splitlines()) == 1 + len(SCAN_TS)
        path = tmp_path / "scan.csv"
        assert small_scan.to_csv(path) == text
        assert path.read_text() == text
        assert small_scan.to_csv() == text

    def test_scan_rerun_is_byte_identical(self, small_scan):
        again = gl.defect_scan(gl.GluingConfig(t=0.1, **SMALL), SCAN_TS)
        assert again.to_csv() == small_scan.to_csv()

    def test_row_evaluates_each_neck_sample_once(self, geometry,
                                                  monkeypatch):
        seen = {"Omega_t_jet": [], "recover": [], "christoffel": 0}
        jet, recover = gl.GluedStructure.Omega_t_jet, gl.su3._recover_batch

        def counted_jet(self, x):
            seen["Omega_t_jet"].append(np.asarray(x, float).reshape(-1, 6))
            return jet(self, x)

        def counted_recover(omega_c, Omega_c):
            seen["recover"].append(np.concatenate(
                [Omega_c.real, Omega_c.imag,
                 np.broadcast_to(omega_c, Omega_c.shape[:-1] + (15,))],
                axis=-1).reshape(-1, 55))
            return recover(omega_c, Omega_c)

        def counted_christoffel(*args, **kwargs):
            seen["christoffel"] += 1
            return christoffel(*args, **kwargs)

        christoffel = an.christoffel
        monkeypatch.setattr(gl.GluedStructure, "Omega_t_jet", counted_jet)
        monkeypatch.setattr(gl.su3, "_recover_batch", counted_recover)
        monkeypatch.setattr(an, "christoffel", counted_christoffel)
        gl._scan_row(gl.GluingConfig(t=0.1, **SMALL), *geometry, 1.0)
        for name in ("Omega_t_jet", "recover"):
            rows = np.concatenate(seen[name])
            assert len(np.unique(rows, axis=0)) == len(rows), name
        # each node's values and partials come from one jet, and each
        # jet's values go to one recovery
        assert sum(map(len, seen["recover"])) \
            == sum(map(len, seen["Omega_t_jet"]))
        assert seen["christoffel"] == 0

    def test_row_expands_no_three_form_tensor(self, geometry, monkeypatch):
        # the companion 3-form is read off the iota table of theta1, so no
        # recovery gathers theta1's (6, 6, 6) tensor
        expanded = []
        coeffs_to_tensor = mi.coeffs_to_tensor

        def counted(coeffs, dim, k):
            expanded.append((dim, k))
            return coeffs_to_tensor(coeffs, dim, k)

        monkeypatch.setattr(mi, "coeffs_to_tensor", counted)
        gl._scan_row(gl.GluingConfig(t=0.1, **SMALL), *geometry, 1.0)
        assert (6, 2) in expanded
        assert (6, 3) not in expanded

    def test_row_recoveries_fit_the_point_budget(self, geometry,
                                                 monkeypatch):
        sizes = []
        recover = gl.su3._recover_batch

        def counted(omega_c, Omega_c):
            sizes.append(int(np.prod(Omega_c.shape[:-1])))
            return recover(omega_c, Omega_c)

        monkeypatch.setattr(gl.su3, "_recover_batch", counted)
        gl._scan_row(gl.GluingConfig(t=0.1, **SMALL), *geometry, 1.0)
        # 192 coarse and 384 fine nodes, their gradients exact, and the 12
        # shifts of the 16 sup points, whose Hessian stencil needs no
        # recovery at its centre, in blocks of _BLOCK = 128 points: 2 + 3
        # node blocks and 8 + 4 whole shifts
        assert sum(sizes) == 192 + 384 + 12 * 16
        assert len(sizes) == 7
        assert max(sizes) <= an._BLOCK

    @pytest.mark.parametrize("shape", [(8,), (2, 4)])
    @pytest.mark.parametrize("key, error", [("stable", NotStable),
                                            ("positive", NotPositive)])
    def test_failure_at_a_shift_names_its_node(self, glued, monkeypatch,
                                               shape, key, error):
        # a recovery that fails at the node itself, in the node pass, or
        # at one of its Hessian shifts x +- step e_i, never at the node
        x = gl._sup_grid(glued.config)[:8]
        node = 5
        step = an.local_step(x[node], None)
        jet, recover = gl.GluedStructure.Omega_t_jet, gl.su3._recover_batch
        last = {}

        def stashing_jet(self, y):
            last["y"] = np.asarray(y, float)
            return jet(self, y)

        def failing_recover(omega_c, Omega_c):
            out = recover(omega_c, Omega_c)
            offset = np.linalg.norm(last["y"] - x[node], axis=-1)
            out[key] = out[key] & ~((offset >= last["lo"])
                                    & (offset < 2.0 * step))
            return out

        monkeypatch.setattr(gl.GluedStructure, "Omega_t_jet", stashing_jet)
        monkeypatch.setattr(gl.su3, "_recover_batch", failing_recover)
        want = [int(i) for i in np.unravel_index(node, shape)]
        for lo, evaluate in ((0.0, gl._neck_fields),
                             (1e-3 * step, gl._neck_hessian)):
            last["lo"] = lo
            with pytest.raises(error) as err:
                evaluate(glued, x.reshape(shape + (6,)))
            assert err.value.sample_index == want

    def test_row_failure_names_its_node_in_the_pass(self):
        # the default configuration at t = 0.4 and amplitude 5 fails in
        # the 6-radial-node pass; the error names the pass's first unstable
        # node, as one recovery over all of that pass's nodes finds it
        cfg = gl.GluingConfig(t=0.4, conical_amplitude=5.0)
        cone, ac, pert = gl._standard_geometry(cfg)
        with pytest.raises(NotStable) as err:
            gl._scan_row(cfg, cone, ac, pert, 1.0)
        glued = gl.build_glued(cfg, cone, ac, pert)
        link, _ = cn.link_quadrature(cone, *cfg.link_level)
        lo, hi = cfg.neck_bounds
        nodes, _ = np.polynomial.legendre.leggauss(cfg.n_radial)
        r = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        x = (r[:, None, None] * link[None]).reshape(-1, 6)
        Om = np.concatenate([glued.Omega_t_jet(x[i:i + an._BLOCK])[0]
                             for i in range(0, len(x), an._BLOCK)])
        stable = gl.su3._recover_batch(cn.FLAT_OMEGA.coeffs, Om)["stable"]
        first = int(np.argmin(stable))
        assert not stable[first]
        assert (first, len(x)) == (6148, 18432)
        assert err.value.sample_index == [first]
        message = str(err.value)
        assert "t = 0.4" in message and "6-radial-node pass" in message
        assert f"[{first}]" in message

    def test_exact_gradient_beats_the_stencil(self, glued):
        # at t = 0.1 the 12-shift stencil the gradients came from, written
        # out here, against its Richardson limit and the exact gradient
        x = gl._sup_grid(glued.config)
        step = an.local_step(x, None)[:, None]

        def omega_prime(y):
            Om = glued.Omega_t(y).coeffs
            return gl.su3._recover_batch(cn.FLAT_OMEGA.coeffs,
                                         Om)["omega_prime"]

        def stencil(scale):
            return np.sqrt(2.0) * np.stack([
                (omega_prime(x + scale * step * e)
                 - omega_prime(x - scale * step * e)) / (2 * scale * step)
                for e in np.eye(6)], axis=1)

        limit = (4.0 * stencil(0.5) - stencil(1.0)) / 3.0
        exact = gl._neck_fields(glued, x)["grad_omega"]
        stencil_error = np.max(np.abs(stencil(1.0) - limit))
        exact_error = np.max(np.abs(exact - limit))
        assert stencil_error > 1e-7 * np.max(np.abs(limit))
        assert exact_error * 100.0 <= stencil_error

    def test_row_wall_times_stay_out_of_the_csv(self, small_scan):
        walls = small_scan.row_wall_s
        assert len(walls) == len(small_scan.rows)
        assert all(isinstance(w, float) and w > 0.0 for w in walls)
        bare = gl.DefectScan(rows=small_scan.rows, config=small_scan.config)
        assert bare.row_wall_s == ()
        assert bare.to_csv() == small_scan.to_csv()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("ts", [SCAN_TS, [0.4, 0.283, 0.2, 0.141, 0.1]],
                             ids=["4rows", "5rows"])
    def test_scan_evaluates_curvature_once(self, ts, workers, monkeypatch):
        calls = []
        riemann_ricci = gl.riemann_ricci

        def counted(*args, **kwargs):
            calls.append(1)
            return riemann_ricci(*args, **kwargs)

        monkeypatch.setattr(gl, "riemann_ricci", counted)
        scan = gl.defect_scan(gl.GluingConfig(t=0.1, **SMALL), ts,
                              workers=workers)
        assert len(scan.rows) == len(ts)
        assert len(calls) == 1

    def test_curvature_sup_samples_each_stencil_point_once(self, geometry,
                                                           monkeypatch):
        # the metric for the norm and g^-1 at the base point, then 12 first-
        # and 73 second-difference points at the step and at half of it
        calls = []
        metric = cn.ACGeometry.metric_on_target

        def counted(self, x):
            calls.append(1)
            return metric(self, x)

        monkeypatch.setattr(cn.ACGeometry, "metric_on_target", counted)
        gl._curvature_sup(geometry[1])
        assert len(calls) <= 173


def _zero_scan():
    rows = tuple(
        gl.DefectRow(t=t, Omega_defect_c0=0.0, Omega_defect_l2=0.0,
                     omega_c0=0.0, omega_l2=0.0,
                     im_Omega_c0=0.0, im_Omega_l2=0.0, grad_omega_c0=0.0,
                     grad_omega_l12=0.0, grad_omega_t_l12=0.0,
                     grad_re_Omega_l12=0.0, hess_omega_c0=0.0,
                     neck_volume=t ** 4.8, curvature_sup=t ** -2)
        for t in (0.4, 0.25, 0.16, 0.1))
    return gl.DefectScan(rows=rows, config=gl.GluingConfig(t=0.1))


def _hand_written_ledger(nu, lam, alpha, kappa):
    """The ten inequalities as they were written out by hand, the
    reference for the family-table ledger."""
    g1 = -lam * (1 - alpha)
    g2 = alpha * nu
    half = Fraction(1, 2)
    return {
        "c0_ac": g1 >= kappa,
        "c0_conical": g2 >= kappa,
        "l2_ac": 3 * alpha + g1 >= 3 + kappa,
        "l2_conical": 3 * alpha + g2 >= 3 + kappa,
        "l12_ac": -alpha * half + g1 >= -half + kappa,
        "l12_conical": -alpha * half + g2 >= -half + kappa,
        "grad_ac": g1 - alpha >= kappa - 1,
        "grad_conical": g2 - alpha >= kappa - 1,
        "hess_ac": g1 - 2 * alpha >= kappa - 2,
        "hess_conical": g2 - 2 * alpha >= kappa - 2,
    }


class TestExponentLedger:
    def test_family_table_matches_hand_written_ledger(self):
        rng = random.Random(5)
        outcomes = collections.defaultdict(set)
        for _ in range(2000):
            nu = Fraction(rng.randint(1, 120), rng.randint(1, 12))
            lam = -3 - Fraction(rng.randint(1, 120), rng.randint(1, 12))
            alpha = Fraction(rng.randint(1, 99), 100)
            l2_slack = min(3 * alpha - lam * (1 - alpha) - 3,
                           3 * alpha + alpha * nu - 3)
            # the config's kappa differs from the L2 slack off the default
            # alpha; the third draw is unrelated to the rates
            config_kappa = min((1 - alpha) * (-3 - lam), nu / 2)
            for kappa in (l2_slack, config_kappa,
                          Fraction(rng.randint(-60, 60), rng.randint(1, 12))):
                got = gl._ledger_inequalities(nu, lam, alpha, kappa)
                want = _hand_written_ledger(nu, lam, alpha, kappa)
                assert list(got.items()) == list(want.items())
                for key, ok in got.items():
                    outcomes[key].add(ok)
        # every inequality both held and failed among the draws
        assert all(seen == {True, False} for seen in outcomes.values())

    def test_predicted_rates_follow_family_offsets(self):
        scan = _zero_scan()
        v = gl.thm52_check(scan, gl.GluingConfig(t=0.1))
        predicted = {"c0": Fraction(6, 5), "l2": Fraction(18, 5),
                     "l12": Fraction(4, 5), "grad": Fraction(2, 5),
                     "hess": Fraction(-2, 5)}
        offsets = {"c0": 0, "l2": 3, "l12": Fraction(-1, 2), "grad": -1,
                   "hess": -2}
        for name, family in gl._MEASURED_REQUIREMENTS.items():
            m = v.measured[name]
            assert m["predicted"] == pytest.approx(float(predicted[family]),
                                                   abs=1e-15), name
            assert m["required"] == float(Fraction(3, 5) + offsets[family])
        assert v.fits == scan.fitted_exponents()

    def test_exact_defaults(self):
        v = gl.thm52_check(None, gl.GluingConfig(t=0.1))
        assert v.alpha == Fraction(4, 5)
        assert v.kappa == Fraction(3, 5)
        assert v.gamma == Fraction(6, 5)
        assert len(v.exact) == 10 and all(v.exact.values())
        assert v.implication_pass and v.implication_trials == 100
        assert v.measured == {} and v.all_pass

    def test_exact_second_pair(self):
        v = gl.thm52_check(None, gl.GluingConfig(t=0.1, nu=4.0, lam=-6.0))
        assert v.alpha == Fraction(5, 7)
        assert v.kappa == Fraction(6, 7)
        assert v.gamma == Fraction(12, 7)
        assert all(v.exact.values())

    def test_badly_placed_neck_fails_ledger(self):
        # 2 t^alpha = 0.89 keeps the neck inside the outer chart
        cfg = gl.GluingConfig(t=1e-7, alpha=0.05)
        v = gl.thm52_check(None, cfg)
        assert not v.exact["c0_conical"]
        assert not v.all_pass

    def test_implication_holds_on_random_rational_data(self):
        assert gl.exponent_implication_check(100, seed=0)
        assert gl.exponent_implication_check(50, seed=7)

    def test_vanishing_columns_pass_trivially(self):
        v = gl.thm52_check(_zero_scan(), gl.GluingConfig(t=0.1))
        m = v.measured["Omega_defect_c0"]
        assert m["fitted"] is None and m["pass"]
        assert v.all_pass

    def test_measured_scan_dominates_ledger(self, small_scan):
        v = gl.thm52_check(small_scan, small_scan.config)
        assert set(v.measured) == set(gl._MEASURED_REQUIREMENTS)
        for name, m in v.measured.items():
            assert m["pass"], (name, m)
        assert v.all_pass


class TestCurvatureScaling:
    def test_scaled_sup_is_homothety_of_c1(self, geometry):
        """The sup of |Riem| of the t-scaled AC metric, sampled at x = t y
        with steps proportional to |x|, is C1 / t^2."""
        ac = geometry[1]
        c1 = gl._curvature_sup(ac)
        v = unit_dirs(6)
        for t in (0.4, 0.283, 0.2, 0.141, 0.1, 0.0125):
            pts = (t * np.array([1.3, 1.7])[:, None, None]
                   * v[None, :, :]).reshape(-1, 6)

            def g_field(x, t=t):
                return ac.metric_on_target(np.asarray(x, float) / t)

            riem, _ = an.riemann_ricci(g_field, pts)
            g = g_field(pts)
            low = np.einsum("...lm,...mkij->...lkij", g.components, riem)
            sup = float(np.max(forms.lower_tensor_norm(g, low, 4)))
            assert sup == pytest.approx(c1 / t ** 2, rel=1e-9), t
