from itertools import combinations, permutations
from math import comb

import numpy as np
import pytest

from cyglue import _multiindex as mi
from cyglue._multiindex import coeffs_to_tensor, tensor_to_coeffs
from cyglue.forms import (
    KForm, LinearMap, MetricTensor, contract, form_norm, hodge_star,
    lower_tensor_norm, pullback, wedge,
)
from cyglue.errors import DegenerateMetric, DimensionMismatch

import oracles as oc


def _dict_close(a, d, tol=0.0):
    got = oc.from_kform(a)
    keys = set(got) | set(d)
    for k in keys:
        assert abs(complex(got.get(k, 0)) - complex(d.get(k, 0))) <= tol, (k, got.get(k), d.get(k))


class TestWedgeOracle:
    def test_random_int_forms_match_exact(self):
        rng = np.random.default_rng(7)
        for dim in (6, 7):
            for k, l in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (2, 4)]:
                if k + l > dim:
                    continue
                da = oc.rand_exact_form(rng, dim, k)
                db = oc.rand_exact_form(rng, dim, l)
                w = wedge(oc.to_kform(da, dim, k), oc.to_kform(db, dim, l))
                _dict_close(w, oc.o_wedge(da, db))

    def test_graded_commutativity(self):
        rng = np.random.default_rng(1)
        for k, l in [(1, 2), (2, 3), (3, 3), (1, 1)]:
            a = KForm(6, k, rng.standard_normal(comb(6, k)))
            b = KForm(6, l, rng.standard_normal(comb(6, l)))
            lhs = wedge(a, b).coeffs
            rhs = (-1) ** (k * l) * wedge(b, a).coeffs
            assert np.allclose(lhs, rhs, atol=1e-14)

    def test_associativity(self):
        rng = np.random.default_rng(2)
        a = KForm(7, 1, rng.standard_normal(7))
        b = KForm(7, 2, rng.standard_normal(21))
        c = KForm(7, 3, rng.standard_normal(35))
        lhs = wedge(wedge(a, b), c).coeffs
        rhs = wedge(a, wedge(b, c)).coeffs
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestContraction:
    def test_matches_exact(self):
        rng = np.random.default_rng(3)
        for dim, k in [(6, 2), (6, 3), (7, 3), (7, 4)]:
            d = oc.rand_exact_form(rng, dim, k)
            a = oc.to_kform(d, dim, k)
            for i in range(dim):
                v = np.zeros(dim)
                v[i] = 1.0
                _dict_close(contract(v, a), oc.o_contract(i, d))

    def test_antiderivation(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(6)
        a = KForm(6, 2, rng.standard_normal(15))
        b = KForm(6, 3, rng.standard_normal(20))
        lhs = contract(v, wedge(a, b)).coeffs
        rhs = (wedge(contract(v, a), b) + wedge(a, contract(v, b))).coeffs
        assert np.allclose(lhs, rhs, atol=1e-13)

    def test_double_contraction_zero(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal(7)
        a = KForm(7, 3, rng.standard_normal(35))
        assert np.allclose(contract(v, contract(v, a)).coeffs, 0.0, atol=1e-14)


class TestHodgeStar:
    def test_euclidean_matches_exact(self):
        rng = np.random.default_rng(6)
        g6, g7 = MetricTensor(6, np.eye(6)), MetricTensor(7, np.eye(7))
        for dim, g in [(6, g6), (7, g7)]:
            for k in range(dim + 1):
                d = oc.rand_exact_form(rng, dim, k)
                if not d:
                    continue
                s = hodge_star(g, oc.to_kform(d, dim, k))
                _dict_close(s, oc.o_star_euclid(d, dim), tol=1e-12)

    def test_double_star_sign(self):
        rng = np.random.default_rng(8)
        for dim in (6, 7):
            comps = rng.standard_normal((dim, dim))
            g = MetricTensor(dim, comps @ comps.T + dim * np.eye(dim))
            for k in range(1, dim):
                n = comb(dim, k)
                a = KForm(dim, k, rng.standard_normal(n))
                ss = hodge_star(g, hodge_star(g, a)).coeffs
                sign = (-1) ** (k * (dim - k))
                assert np.allclose(ss, sign * a.coeffs, atol=1e-10)

    def test_diag_metric_dim2(self):
        # b ^ *a = <a,b> vol_g  pins *dx = sqrt(q/p) dy for g = diag(p, q)
        p, q = 4.0, 9.0
        g = MetricTensor(2, np.diag([p, q]))
        dx = KForm.from_components(2, 1, {(0,): 1.0})
        s = hodge_star(g, dx)
        assert np.allclose(s.coeffs, [0.0, np.sqrt(q / p)], atol=1e-14)

    def test_defining_identity_random_metric(self):
        # a ^ *b = <a,b>_g vol_g for random 2-forms in dim 6
        rng = np.random.default_rng(9)
        comps = rng.standard_normal((6, 6))
        g = MetricTensor(6, comps @ comps.T + 6 * np.eye(6))
        a = KForm(6, 2, rng.standard_normal(15))
        b = KForm(6, 2, rng.standard_normal(15))
        lhs = wedge(a, hodge_star(g, b)).coeffs[..., 0]
        ip = 0.25 * (form_norm(g, a + b) ** 2 - form_norm(g, a - b) ** 2)
        rhs = ip * np.sqrt(np.linalg.det(g.components))
        assert np.allclose(lhs, rhs, rtol=1e-9)


class TestPullback:
    def test_matches_exact(self):
        rng = np.random.default_rng(10)
        L = [[int(rng.integers(-2, 3)) for _ in range(6)] for _ in range(6)]
        d = oc.rand_exact_form(rng, 6, 3)
        a = oc.to_kform(d, 6, 3)
        got = pullback(LinearMap(np.array(L, float)), a)
        _dict_close(got, oc.o_pullback(L, d, 6), tol=1e-10)

    def test_functorial(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((6, 6))
        B = rng.standard_normal((6, 6))
        a = KForm(6, 2, rng.standard_normal(15))
        lhs = pullback(LinearMap(A), pullback(LinearMap(B), a)).coeffs
        rhs = pullback(LinearMap(B @ A), a).coeffs
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_wedge_naturality(self):
        rng = np.random.default_rng(12)
        L = LinearMap(rng.standard_normal((7, 7)))
        a = KForm(7, 2, rng.standard_normal(21))
        b = KForm(7, 3, rng.standard_normal(35))
        lhs = pullback(L, wedge(a, b)).coeffs
        rhs = wedge(pullback(L, a), pullback(L, b)).coeffs
        assert np.allclose(lhs, rhs, atol=1e-11)


class TestFrozenModelForms:
    def setup_method(self):
        self.om0 = oc.to_kform(oc.FLAT_OMEGA0, 6, 2)
        self.re0 = oc.to_kform(oc.FLAT_RE_OMEGA0, 6, 3)
        self.im0 = oc.to_kform(oc.FLAT_IM_OMEGA0, 6, 3)
        self.Om0 = self.re0 + 1j * self.im0
        self.g6 = MetricTensor(6, np.eye(6))

    def test_volume_identities(self):
        cube = wedge(wedge(self.om0, self.om0), self.om0)
        assert cube.coeffs[..., 0] == pytest.approx(6.0, abs=0)
        conj = KForm(6, 3, np.conj(self.Om0.coeffs))
        pair = (0.75j * wedge(self.Om0, conj)).coeffs[..., 0]
        assert pair == pytest.approx(6.0, abs=1e-15)
        half = wedge(self.re0, self.im0).coeffs[..., 0]
        assert half == pytest.approx(4.0, abs=0)

    def test_model_norms(self):
        assert form_norm(self.g6, self.om0) == pytest.approx(np.sqrt(3.0), rel=1e-15)
        assert form_norm(self.g6, self.Om0) == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-15)

    def test_type_decomposition_wedges(self):
        assert np.allclose(wedge(self.om0, self.Om0).coeffs, 0.0, atol=1e-15)

    def test_phi0_star(self):
        g7 = MetricTensor(7, np.eye(7))
        phi = oc.to_kform(oc.PHI0, 7, 3)
        _dict_close(hodge_star(g7, phi), oc.STAR_PHI0, tol=1e-14)
        assert form_norm(g7, phi) == pytest.approx(np.sqrt(7.0), rel=1e-15)


class TestScalingLaws:
    def test_norm_under_metric_scaling(self):
        rng = np.random.default_rng(13)
        comps = rng.standard_normal((6, 6))
        g = MetricTensor(6, comps @ comps.T + 6 * np.eye(6))
        c = 1.7
        gc = MetricTensor(6, c ** 2 * g.components)
        for k in (1, 2, 3):
            n = comb(6, k)
            a = KForm(6, k, rng.standard_normal(n))
            assert form_norm(gc, a) == pytest.approx(c ** (-k) * form_norm(g, a), rel=1e-12)

    def test_lower_tensor_norm_scaling(self):
        rng = np.random.default_rng(14)
        g = MetricTensor(6, np.eye(6))
        T = rng.standard_normal((6, 6, 6))
        base = lower_tensor_norm(g, T, 3)
        gc = MetricTensor(6, 4.0 * np.eye(6))
        assert lower_tensor_norm(gc, T, 3) == pytest.approx(base / 8.0, rel=1e-13)


class TestTensorExpansion:
    @staticmethod
    def _loop_reference(coeffs, dim, k):
        T = np.zeros(coeffs.shape[:-1] + (dim,) * k, dtype=coeffs.dtype)
        for p, K in enumerate(combinations(range(dim), k)):
            for perm in permutations(range(k)):
                inv = sum(perm[a] > perm[b]
                          for a in range(k) for b in range(a + 1, k))
                idx = tuple(K[q] for q in perm)
                T[(...,) + idx] = (-1 if inv % 2 else 1) * coeffs[..., p]
        return T

    @pytest.mark.parametrize("dim, k", [(6, 2), (6, 3), (7, 3), (7, 4)])
    def test_gather_matches_loop_bitwise(self, dim, k):
        rng = np.random.default_rng(16)
        coeffs = rng.standard_normal((5, comb(dim, k)))
        coeffs[0] = 0.0  # signed zeros must come out as the loop's
        got = coeffs_to_tensor(coeffs, dim, k)
        want = self._loop_reference(coeffs, dim, k)
        assert got.shape == want.shape == (5,) + (dim,) * k
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def _int_coeffs(rng, shape, complex_):
    # integer values: every product and sum below is exact in float64
    c = rng.integers(-9, 10, shape).astype(float)
    if complex_:
        c = c + 1j * rng.integers(-9, 10, shape)
    return c


def _wedge_degrees(dim):
    return [(k, l) for k in range(dim + 1) for l in range(dim + 1 - k)]


class TestGatherKernels:
    """wedge and contract read signed gather tables; the dense structure
    tensors they replace are the reference, on every admitted degree."""

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("dim", [2, 3, 6, 7])
    def test_wedge_equals_dense_table(self, dim, complex_):
        rng = np.random.default_rng(dim)
        for k, l in _wedge_degrees(dim):
            # batches (2, 1) and (3,) broadcast to (2, 3)
            a = _int_coeffs(rng, (2, 1, comb(dim, k)), complex_)
            b = _int_coeffs(rng, (3, comb(dim, l)), complex_)
            want = np.einsum("...i,...j,ijk->...k", a, b,
                             mi.wedge_tensor(dim, k, l))
            got = wedge(KForm(dim, k, a), KForm(dim, l, b)).coeffs
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), (k, l)

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("dim", [2, 3, 6, 7])
    def test_contract_equals_dense_table(self, dim, complex_):
        rng = np.random.default_rng(10 + dim)
        for k in range(1, dim + 1):
            v = _int_coeffs(rng, (2, 1, dim), complex_)
            a = _int_coeffs(rng, (3, comb(dim, k)), complex_)
            want = np.einsum("...i,...I,iIJ->...J", v, a,
                             mi.contraction_tensor(dim, k))
            got = contract(v, KForm(dim, k, a)).coeffs
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), k

    @pytest.mark.parametrize("dim", [2, 3, 6, 7])
    def test_every_output_collects_the_same_number_of_terms(self, dim):
        cases = [(mi.wedge_terms(dim, k, l), mi.wedge_tensor(dim, k, l),
                  comb(k + l, k)) for k, l in _wedge_degrees(dim)]
        cases += [(mi.contraction_terms(dim, k), mi.contraction_tensor(dim, k),
                   dim - k + 1) for k in range(1, dim + 1)]
        for (left, right, sign), T, m in cases:
            assert left.shape == right.shape == sign.shape == (T.shape[2], m)
            # the tables list each nonzero of the dense tensor once
            assert np.count_nonzero(T) == sign.size
            out = np.arange(T.shape[2])[:, None]
            assert np.array_equal(T[left, right, out], sign)


class TestValidation:
    def test_metric_rejects_indefinite(self):
        with pytest.raises(DegenerateMetric):
            MetricTensor(6, np.diag([1, 1, 1, 1, 1, -1.0]))

    def test_metric_rejects_asymmetric(self):
        m = np.eye(6)
        m[0, 1] = 0.5
        with pytest.raises(DegenerateMetric):
            MetricTensor(6, m)

    def test_wedge_dim_mismatch(self):
        a = KForm(6, 2, np.zeros(15))
        b = KForm(7, 2, np.zeros(21))
        with pytest.raises(DimensionMismatch):
            wedge(a, b)

    def test_coeff_shape_checked(self):
        with pytest.raises(DimensionMismatch):
            KForm(6, 2, np.zeros(14))

    def test_batched_roundtrip(self):
        rng = np.random.default_rng(15)
        a = KForm(6, 2, rng.standard_normal((4, 3, 15)))
        t = a.as_tensor()
        b = KForm(6, 2, tensor_to_coeffs(t, 6, 2))
        assert np.allclose(a.coeffs, b.coeffs, atol=1e-15)
