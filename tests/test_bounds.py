import math
import warnings

import numpy as np
import pytest

from conftest import synthetic_lift_model
from qest.bounds import (
    WeightMatrix,
    _curve_optimum,
    _minimize_on_curve,
    attainable_bound,
    boundary_curve,
    cr_coherent,
    cr_direct_sum,
    cr_general_js,
    cr_two_param,
    sld_bound,
)
from qest.geometry import InfoGeometry, decompose_direct_sum, geometry_at
from qest.models import zoo_pm_shift, zoo_spin_coherent, zoo_squeezed
from qest.operators import ValidationError


def make_geom(beta, js=None, jt_sign=1.0):
    js = np.eye(2) if js is None else np.asarray(js, dtype=float)
    jt_n = jt_sign * np.array([[0.0, -beta], [beta, 0.0]])
    w, u = np.linalg.eigh(js)
    s_half = (u * np.sqrt(w)) @ u.T
    jt = s_half @ jt_n @ s_half
    return InfoGeometry(JS=js, Jtilde=jt)


def minvv(beta):
    return 4.0 / (1.0 + np.sqrt(1.0 - beta**2))


IDENTITY2 = WeightMatrix.from_matrix(np.eye(2))


class TestSldBound:
    def test_identity(self):
        res = sld_bound(make_geom(0.3), IDENTITY2)
        assert np.allclose(res.V_opt, np.eye(2))

    def test_diagonal_inverse(self):
        res = sld_bound(make_geom(0.0, js=np.diag([1.0, 0.75])), IDENTITY2)
        assert np.allclose(res.V_opt, np.diag([1.0, 4.0 / 3.0]))
        assert res.attained == "attained"

    def test_not_attained_when_incompatible(self):
        assert sld_bound(make_geom(0.5), IDENTITY2).attained == "infimum_only"

    def test_weighted_floor(self):
        # Tr G J^{S-1} = 2 * 1 + 3 * 4/3
        res = sld_bound(make_geom(0.0, js=np.diag([1.0, 0.75])),
                        WeightMatrix.from_matrix(np.diag([2.0, 3.0])))
        assert abs(res.cr_value - 6.0) <= 1e-12


class TestAttainableBound:
    G2 = WeightMatrix.from_matrix(np.diag([2.0, 1.0]))

    def test_quasi_classical_is_sld(self):
        res = attainable_bound(make_geom(0.0), self.G2, pure=True)
        assert res.method == "sld" and abs(res.cr_value - 3.0) <= 1e-12

    def test_two_param_pure(self):
        res = attainable_bound(make_geom(0.6), self.G2, pure=True)
        assert res.method == "two_param"
        assert res.cr_value == cr_two_param(make_geom(0.6), self.G2).cr_value

    def test_coherent_before_interval(self):
        model, theta = synthetic_lift_model(np.kron(
            np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]])))
        geom = geometry_at(model, theta)
        res = attainable_bound(geom, WeightMatrix.from_matrix(np.eye(4)),
                               pure=True)
        assert res.method == "coherent" and abs(res.cr_value - 8.0) <= 1e-8

    def test_no_closed_form(self):
        # mixed with 0 < beta < 1, and pure with odd m: interval only
        assert attainable_bound(make_geom(0.6), self.G2, pure=False) is None
        model, theta = synthetic_lift_model(
            np.array([[0.0, -0.5, 0.2], [0.5, 0.0, -0.3], [-0.2, 0.3, 0.0]]))
        geom = geometry_at(model, theta)
        assert attainable_bound(geom, WeightMatrix.from_matrix(np.eye(3)),
                                pure=True) is None


class TestCrTwoParam:
    def test_minvv_value(self):
        res = cr_two_param(make_geom(0.6), IDENTITY2)
        assert abs(res.cr_value - minvv(0.6)) <= 1e-12

    def test_coherent_hand_point(self):
        res = cr_two_param(make_geom(1.0), WeightMatrix.from_matrix(
            np.diag([1.0, 4.0])))
        assert abs(res.cr_value - 9.0) <= 1e-10
        # optimizer (u, v) = (3, 1.5) in normalized rotated coordinates:
        # the weight is already diagonal with g1 = 4 paired with v
        assert abs(res.V_opt[0, 0] - 3.0) <= 1e-8
        assert abs(res.V_opt[1, 1] - 1.5) <= 1e-8

    def test_quasi_classical_floor(self):
        g = np.array([[2.0, 0.3], [0.3, 1.0]])
        js = np.array([[1.5, 0.2], [0.2, 0.9]])
        res = cr_two_param(make_geom(0.0, js=js), WeightMatrix.from_matrix(g))
        js_inv = np.linalg.inv(js)
        assert abs(res.cr_value - np.trace(g @ js_inv)) <= 1e-10
        assert np.max(np.abs(res.V_opt - js_inv)) <= 1e-10

    def test_congruence_mapping(self):
        # non-trivial J^S: normalize by hand and compare
        js = np.array([[2.0, 0.5], [0.5, 1.2]])
        beta = 0.7
        geom = make_geom(beta, js=js)
        res = cr_two_param(geom, WeightMatrix.from_matrix(js))
        assert abs(res.cr_value - minvv(beta)) <= 1e-10

    def test_sign_convention_irrelevant(self):
        g = WeightMatrix.from_matrix(np.diag([1.0, 2.5]))
        r1 = cr_two_param(make_geom(0.8, jt_sign=+1.0), g)
        r2 = cr_two_param(make_geom(0.8, jt_sign=-1.0), g)
        assert abs(r1.cr_value - r2.cr_value) <= 1e-12

    def test_rank_one_weight_attained_below_one(self):
        g = WeightMatrix.from_matrix(np.diag([1.0, 0.0]))
        res = cr_two_param(make_geom(0.6), g)
        assert res.cr_value == pytest.approx(1.0)
        assert res.attained == "attained"
        # free direction inflated along the achievable half-line
        assert res.V_opt[1, 1] == pytest.approx(
            1.0 + 2 * 0.36 / (1 - 0.36))

    def test_rank_one_weight_infimum_at_beta_one(self):
        g = WeightMatrix.from_matrix(np.diag([1.0, 0.0]))
        res = cr_two_param(make_geom(1.0), g)
        assert res.attained == "infimum_only"

    def test_floor_and_monotonicity(self):
        g = WeightMatrix.from_matrix(np.diag([1.0, 3.0]))
        values = []
        for beta in np.linspace(0.0, 1.0, 11):
            res = cr_two_param(make_geom(float(beta)), g)
            assert res.cr_value >= 4.0 - 1e-9  # Tr G J^{S-1} floor
            values.append(res.cr_value)
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_weight_scaling(self):
        geom = make_geom(0.45)
        base = cr_two_param(geom, WeightMatrix.from_matrix(
            np.diag([1.0, 2.0]))).cr_value
        scaled = cr_two_param(geom, WeightMatrix.from_matrix(
            np.diag([3.0, 6.0]))).cr_value
        assert abs(scaled - 3.0 * base) <= 1e-10

    def test_hbar_scaling_pm_shift(self):
        th = np.array([0.1, -0.3])
        base = geometry_at(zoo_pm_shift(0, trunc_dim=48, hbar=1.0), th)
        scaled = geometry_at(zoo_pm_shift(0, trunc_dim=48, hbar=2.5), th)
        v1 = cr_two_param(base, IDENTITY2).cr_value
        v2 = cr_two_param(scaled, IDENTITY2).cr_value
        assert abs(v2 - 2.5 * v1) <= 1e-6 * v2
        assert abs(scaled.beta_pairs[0] - base.beta_pairs[0]) <= 1e-6


class TestBoundaryCurve:
    def test_x_zero_matches_minvv(self):
        for beta in np.linspace(0.05, 1.0, 12):
            rows = boundary_curve(float(beta), samples=9)
            z0 = [z for x, z, b in rows if b == "curve" and abs(x) < 1e-12]
            assert z0, "odd sample count must include x = 0"
            assert abs(2.0 * z0[0] - minvv(beta)) <= 1e-12

    def test_beta_zero_degenerate(self):
        rows = boundary_curve(0.0, samples=5)
        assert all(z == 1.0 and x == 0.0 for x, z, _ in rows)

    def test_endpoints_meet_half_lines(self):
        rows = boundary_curve(0.8, samples=101)
        xs = [x for x, _, b in rows if b == "curve"]
        assert abs(max(xs) - 16.0 / 9.0) <= 1e-12
        for x, z, branch in rows:
            if branch.startswith("line"):
                assert abs(z - 1.0 - abs(x)) <= 1e-12
        # curve touches the half-line at its endpoint
        end = [(x, z) for x, z, b in rows if b == "curve"][-1]
        assert abs(end[1] - 1.0 - abs(end[0])) <= 1e-9

    def test_beta_one_hyperbola(self):
        rows = boundary_curve(1.0, samples=21)
        for x, z, branch in rows:
            if branch == "curve":
                assert abs((z - 1.0) ** 2 - x * x - 1.0) <= 1e-10

    def test_invalid_beta(self):
        with pytest.raises(ValidationError):
            boundary_curve(1.5)


class TestCurveAgainstRationalForm:
    """The angle bisection against scipy's brentq on the constraint curve
    sqrt(u-1) + sqrt(v-1) = beta sqrt(uv) in its rational form: with
    s = sqrt(u-1) and c = sqrt(1 - beta^2), t = sqrt(v-1) =
    (beta - c s) / (c + beta s)."""

    RTOL = 4 * np.finfo(float).eps

    def test_curve_optimum(self):
        brentq = pytest.importorskip("scipy.optimize").brentq
        rng = np.random.default_rng(11)
        betas = np.concatenate([[0.01, 0.5, 1.0 - 1e-6],
                                rng.uniform(0.01, 1.0 - 1e-6, 60)])
        for beta in betas.tolist():
            c = math.sqrt(1.0 - beta * beta)

            def t(s):
                return (beta - c * s) / (c + beta * s)

            for _ in range(8):
                g1 = 10.0 ** rng.uniform(-2.0, 2.0)
                g2 = g1 * 10.0 ** rng.uniform(-8.0, 0.0)
                # stationarity of g1 (1 + s^2) + g2 (1 + t(s)^2), halved
                s = brentq(lambda s: g1 * s - g2 * t(s) / (c + beta * s) ** 2,
                           0.0, beta / c, xtol=1e-300, rtol=self.RTOL)
                u, v = _curve_optimum(g1, g2, beta, False)[:2]
                assert abs(u - (1.0 + s * s)) <= 1e-12 * u
                assert abs(v - (1.0 + t(s) ** 2)) <= 1e-12 * v

    def test_boundary_rows(self):
        brentq = pytest.importorskip("scipy.optimize").brentq
        for beta in (0.01, 0.3, 0.6, 0.8, 0.95, 0.999, 1.0 - 1e-6):
            c = math.sqrt(1.0 - beta * beta)
            reach = math.tan(math.asin(beta)) ** 2 / 2.0
            for samples, x_range in ((101, None), (40, 3.0 * reach)):
                for x, z, branch in boundary_curve(beta, samples, x_range):
                    if branch != "curve":
                        continue
                    lo = 1.0 + abs(x)
                    if abs(x) >= reach:
                        assert z == lo
                        continue

                    def f(z):
                        sp = math.sqrt(max(0.0, z + x - 1.0))
                        sm = math.sqrt(max(0.0, z - x - 1.0))
                        return beta * sp * sm + c * (sp + sm) - beta

                    # an ulp inside the reach the root is lo to round-off
                    z_ref = lo if f(lo) >= 0.0 else brentq(
                        f, lo, lo + 1.0, xtol=1e-300, rtol=self.RTOL)
                    assert abs(z - z_ref) <= 1e-12 * z_ref


class TestCurveToRoundOff:
    """u and v of the curve optimum against the angle stationarity solved in
    extended precision: relative error 1e-14 even where v = sec^2 b is large
    (beta near 1, g2 << g1)."""

    def test_minimize_on_curve(self):
        ld = np.longdouble
        if np.finfo(ld).eps > 1e-18:
            pytest.skip("np.longdouble is no wider than float64 here")
        betas, ratios = np.meshgrid([0.5, 0.9, 0.999, 1.0 - 1e-6],
                                    [1.0, 1e-3, 1e-6, 1.8e-8])
        beta, g2 = betas.ravel(), ratios.ravel()
        gamma = np.arcsin(beta.astype(ld))
        g1, g2l = ld(1), g2.astype(ld)

        def h(a):
            b = gamma - a
            return (g1 * np.sin(a) * np.cos(b) ** 3
                    - g2l * np.sin(b) * np.cos(a) ** 3)

        lo, hi = np.zeros_like(gamma), gamma.copy()
        for _ in range(80):
            mid = (lo + hi) / 2
            low = h(mid) <= 0
            lo, hi = np.where(low, mid, lo), np.where(low, hi, mid)
        a = (lo + hi) / 2
        u_ref = 1 + np.tan(a) ** 2
        v_ref = 1 + np.tan(gamma - a) ** 2
        for k in range(beta.size):
            u, v, _ = _minimize_on_curve(1.0, float(g2[k]), float(beta[k]))
            assert abs(u - u_ref[k]) <= 1e-14 * u_ref[k], (beta[k], g2[k])
            assert abs(v - v_ref[k]) <= 1e-14 * v_ref[k], (beta[k], g2[k])


class TestCrCoherent:
    def test_hand_value_nine(self):
        res = cr_coherent(make_geom(1.0), WeightMatrix.from_matrix(
            np.diag([1.0, 4.0])))
        assert abs(res.cr_value - 9.0) <= 1e-12

    def test_js_weight_doubles(self):
        geom = geometry_at(zoo_pm_shift(0, trunc_dim=48),
                           np.array([0.0, 0.0]))
        res = cr_coherent(geom, WeightMatrix.from_matrix(geom.JS))
        assert abs(res.cr_value - 4.0) <= 1e-5

    def test_squeezed_js_weight(self):
        geom = geometry_at(zoo_squeezed(trunc_dim=64),
                           np.array([0.0, 0.0, 0.4, 0.1]))
        res = cr_coherent(geom, WeightMatrix.from_matrix(geom.JS))
        assert abs(res.cr_value - 8.0) <= 1e-5

    def test_rejects_non_coherent(self):
        with pytest.raises(ValidationError):
            cr_coherent(make_geom(0.5), IDENTITY2)

    def test_singular_weight_infimum(self):
        res = cr_coherent(make_geom(1.0),
                          WeightMatrix.from_matrix(np.diag([1.0, 0.0])))
        assert res.attained == "infimum_only"

    def test_matches_the_squared_core_formula(self):
        # the value and V_opt of Tr abs(G J^{S-1} J~ J^{S-1}) from eigvals
        # and |K| = (K K^T)^{1/2}, K = G^{1/2} J^{S-1} J~ J^{S-1} G^{1/2}
        geom = geometry_at(zoo_squeezed(trunc_dim=32),
                           np.array([0.1, -0.1, 0.2, 0.2]))
        js_inv = np.linalg.inv(geom.JS)
        rng = np.random.default_rng(11)

        def psd_root(a):
            w, u = np.linalg.eigh(a)
            return (u * np.sqrt(np.maximum(w, 0.0))) @ u.T

        for _ in range(20):
            a = rng.standard_normal((4, 4))
            g = a @ a.T + 0.1 * np.eye(4)
            g_half = psd_root(g)
            g_inv_half = np.linalg.inv(g_half)
            core = g_half @ js_inv @ geom.Jtilde @ js_inv @ g_half
            value = np.trace(g @ js_inv) + np.abs(np.linalg.eigvals(
                g @ js_inv @ geom.Jtilde @ js_inv)).sum()
            v_opt = js_inv + g_inv_half @ psd_root(core @ core.T) @ g_inv_half
            res = cr_coherent(geom, WeightMatrix.from_matrix(g))
            assert abs(res.cr_value - value) <= 1e-12 * value
            assert np.abs(res.V_opt - 0.5 * (v_opt + v_opt.T)).max() <= (
                1e-12 * np.abs(v_opt).max())


SCALES = [1e-310, 1e-308, 1e-200, 1e-13, 1e-8, 1.0, 1e8, 1e200]


def _random_strict_weight():
    a = np.random.default_rng(5).standard_normal((4, 4))
    return a @ a.T + 0.5 * np.eye(4)


SCALE_CASES = {
    "spin_half": (lambda: zoo_spin_coherent(0.5, 0.5), [1.0, 0.7],
                  lambda: np.diag([1.0, 2.0])),
    "spin_3half": (lambda: zoo_spin_coherent(1.5, 0.5), [1.0, 0.7],
                   lambda: np.diag([1.0, 2.0])),
    "squeezed_identity": (lambda: zoo_squeezed(trunc_dim=32),
                          [0.1, -0.1, 0.2, 0.2], lambda: np.eye(4)),
    "squeezed_random": (lambda: zoo_squeezed(trunc_dim=32),
                        [0.1, -0.1, 0.2, 0.2], _random_strict_weight),
}


class TestWeightScale:
    """Every bound is homogeneous in the weight, CR(s G) = s CR(G), and a
    weight's classification (strict, rank-one) is relative to its largest
    eigenvalue, so s G is treated as G at every scale."""

    @pytest.mark.parametrize("case", sorted(SCALE_CASES))
    @pytest.mark.parametrize("s", SCALES)
    def test_bound_is_homogeneous(self, case, s):
        model, theta, weight = SCALE_CASES[case]
        geom = geometry_at(model(), np.array(theta))
        g0 = weight()
        base = attainable_bound(geom, WeightMatrix.from_matrix(g0), True)
        res = attainable_bound(geom, WeightMatrix.from_matrix(s * g0), True)
        assert res.attained == base.attained == "attained"
        assert abs(res.cr_value - s * base.cr_value) <= (
            1e-12 * s * base.cr_value)
        assert np.abs(res.V_opt - base.V_opt).max() <= 1e-10 * max(
            1.0, np.abs(base.V_opt).max())
        # C = V G (G - i Lambda)^{-1} is unchanged by the scale, also where
        # (G - i Lambda)^{-1} of a subnormal weight would overflow
        assert np.abs(res.C - base.C).max() <= 1e-10 * np.abs(base.C).max()

    @pytest.mark.parametrize("s", SCALES)
    def test_strictness_is_relative(self, s):
        assert WeightMatrix.from_matrix(s * np.diag([1.0, 2.0])).strict
        assert not WeightMatrix.from_matrix(s * np.diag([1.0, 0.0])).strict

    @pytest.mark.parametrize("model, theta", [
        (lambda: zoo_spin_coherent(0.5, 0.5), [1.0, 0.7]),
        (lambda: zoo_spin_coherent(1.5, 0.5), [0.3, 0.7]),
        (lambda: zoo_squeezed(trunc_dim=32), [0.1, -0.1, 0.2, 0.2]),
    ], ids=["spin_half", "spin_3half", "squeezed"])
    def test_overflowing_weight_refused(self, model, theta):
        # G = 1e308 I: twice its SLD floor overflows, so no closed form is
        # finite, and the weight is refused as bad input without a warning
        geom = geometry_at(model(), np.array(theta))
        weight = WeightMatrix.from_matrix(1e308 * np.eye(geom.m))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="SLD floor"):
                attainable_bound(geom, weight, True)

    def test_zero_weight(self):
        weight = WeightMatrix.from_matrix(np.zeros((2, 2)))
        assert not weight.strict
        assert cr_two_param(make_geom(0.6), weight).cr_value == 0.0


class TestCrGeneralJs:
    def test_two_param_agreement(self):
        assert abs(cr_general_js(make_geom(0.6)).cr_value
                   - minvv(0.6)) <= 1e-12

    def test_quasi_classical_equals_m(self):
        assert cr_general_js(make_geom(0.0)).cr_value == pytest.approx(2.0)

    def test_mixed_spectrum(self):
        jt = np.zeros((4, 4))
        jt[:2, :2] = [[0.0, -1.0], [1.0, 0.0]]
        jt[2:, 2:] = [[0.0, -0.5], [0.5, 0.0]]
        geom = InfoGeometry(JS=np.eye(4), Jtilde=jt)
        expect = 4.0 + 4.0 / (1.0 + np.sqrt(0.75))
        assert abs(cr_general_js(geom).cr_value - expect) <= 1e-12


class TestCrDirectSum:
    def _two_block_geom(self, b1, b2):
        jt = np.zeros((4, 4))
        jt[:2, :2] = [[0.0, -b1], [b1, 0.0]]
        jt[2:, 2:] = [[0.0, -b2], [b2, 0.0]]
        return InfoGeometry(JS=np.eye(4), Jtilde=jt)

    def test_additivity(self):
        geom = self._two_block_geom(0.6, 0.0)
        res = cr_direct_sum(geom, WeightMatrix.from_matrix(np.eye(4)))
        assert abs(res.cr_value - (minvv(0.6) + 2.0)) <= 1e-10

    def test_single_block_matches_two_param(self):
        geom = make_geom(0.7)
        g = WeightMatrix.from_matrix(np.diag([1.0, 2.0]))
        assert abs(cr_direct_sum(geom, g).cr_value
                   - cr_two_param(geom, g).cr_value) <= 1e-10

    def test_squeezed_js_weight(self):
        geom = geometry_at(zoo_squeezed(trunc_dim=64),
                           np.array([0.0, 0.0, 0.4, 0.1]))
        res = cr_direct_sum(geom, WeightMatrix.from_matrix(geom.JS))
        assert abs(res.cr_value - 8.0) <= 1e-4

    def test_coupling_weight_refused(self):
        geom = self._two_block_geom(0.6, 0.3)
        g = np.eye(4)
        g[0, 2] = g[2, 0] = 0.5   # couples the two blocks
        with pytest.raises(ValidationError):
            cr_direct_sum(geom, WeightMatrix.from_matrix(g))
