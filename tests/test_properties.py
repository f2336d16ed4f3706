"""Randomized invariants, kept small enough to run inside the usual suite."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import synthetic_lift_model
from qest.bounds import WeightMatrix, cr_two_param
from qest.geometry import decompose_direct_sum, geometry_at, info_geometry
from qest.measurements import (
    classical_fisher,
    optimal_postprocessing,
    outcome_distribution,
)
from qest.models import ParametricModel, frame_at, zoo_pm_shift
from qest.operators import pure_state

COMMON = settings(max_examples=15, deadline=None)

angles = st.floats(min_value=0.3, max_value=2.7, allow_nan=False)
betas = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def qubit_model(alpha_slope=0.0):
    """Pure qubit family; an optional theta-linear global phase exercises
    gauge invariance."""
    def state_at(theta):
        v = np.array([np.cos(theta[0] / 2),
                      np.exp(1j * theta[1]) * np.sin(theta[0] / 2)],
                     dtype=complex)
        phase = np.exp(1j * alpha_slope * (theta[0] + 0.7 * theta[1]))
        return pure_state(phase * v)

    return ParametricModel(kind="qubit", dim=2, m=2, state_at=state_at)


def skew2(beta):
    return np.array([[0.0, -beta], [beta, 0.0]])


class TestGeometryInvariants:
    @COMMON
    @given(angles, angles, st.floats(min_value=-2.0, max_value=2.0))
    def test_gauge_invariance(self, t1, t2, slope):
        th = np.array([t1, t2])
        g0 = geometry_at(qubit_model(0.0), th)
        g1 = geometry_at(qubit_model(slope), th)
        assert np.max(np.abs(g0.JS - g1.JS)) <= 1e-6
        assert np.max(np.abs(g0.Jtilde - g1.Jtilde)) <= 1e-6

    @COMMON
    @given(angles, angles)
    def test_beta_in_unit_interval(self, t1, t2):
        geom = geometry_at(qubit_model(), np.array([t1, t2]))
        assert all(0.0 <= b <= 1.0 + 1e-9 for b in geom.beta_pairs)

    @COMMON
    @given(angles, angles, seeds)
    def test_reparametrization_covariance(self, t1, t2, seed):
        rng = np.random.default_rng(seed)
        # |det a| >= 0.2 keeps the reparametrized chart's finite-difference
        # step a^{-1} fd_step within the absolute 1e-5 below
        a = rng.uniform(-1.0, 1.0, size=(2, 2))
        while abs(np.linalg.det(a)) < 0.2:
            a = rng.uniform(-1.0, 1.0, size=(2, 2))
        model = qubit_model()
        th = np.array([t1, t2])
        geom = geometry_at(model, th)
        reparam = ParametricModel(
            kind="reparam", dim=2, m=2,
            state_at=lambda e: model.state(np.linalg.inv(a) @ e))
        geom2 = geometry_at(reparam, a @ th)
        a_inv = np.linalg.inv(a)
        assert np.max(np.abs(geom2.JS - a_inv.T @ geom.JS @ a_inv)) <= 1e-5
        if geom.beta_pairs:
            assert abs(geom2.beta_pairs[0] - geom.beta_pairs[0]) <= 1e-5

    @COMMON
    @given(betas, seeds)
    def test_direct_sum_recovers_beta(self, beta, seed):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        model, theta = synthetic_lift_model(q.T @ skew2(beta) @ q)
        blocks, _ = decompose_direct_sum(geometry_at(model, theta))
        got = sorted(b.beta or 0.0 for b in blocks) or [0.0]
        assert abs(got[-1] - beta) <= 1e-8

    @COMMON
    @given(st.floats(min_value=0.5, max_value=3.0))
    def test_hbar_scaling(self, hbar):
        th = np.array([0.1, -0.2])
        base = geometry_at(zoo_pm_shift(0, trunc_dim=32, hbar=1.0), th)
        scaled = geometry_at(zoo_pm_shift(0, trunc_dim=32, hbar=hbar), th)
        assert np.max(np.abs(scaled.JS * hbar - base.JS)) <= 1e-5


class TestBoundInvariants:
    @COMMON
    @given(betas, betas, st.floats(min_value=0.2, max_value=5.0),
           st.floats(min_value=0.2, max_value=5.0))
    def test_monotone_in_beta(self, b1, b2, g1, g2):
        lo, hi = sorted([b1, b2])
        g = WeightMatrix.from_matrix(np.diag([g1, g2]))
        v_lo = cr_two_param(_geom(lo), g).cr_value
        v_hi = cr_two_param(_geom(hi), g).cr_value
        assert v_hi >= v_lo - 1e-10

    @COMMON
    @given(betas, st.floats(min_value=0.2, max_value=5.0),
           st.floats(min_value=0.1, max_value=4.0))
    def test_weight_scaling(self, beta, g1, scale):
        g = np.diag([g1, 1.0])
        base = cr_two_param(_geom(beta), WeightMatrix.from_matrix(g)).cr_value
        scaled = cr_two_param(_geom(beta),
                              WeightMatrix.from_matrix(scale * g)).cr_value
        assert abs(scaled - scale * base) <= 1e-9 * max(1.0, scaled)

    @COMMON
    @given(betas)
    def test_floor(self, beta):
        g = WeightMatrix.from_matrix(np.eye(2))
        assert cr_two_param(_geom(beta), g).cr_value >= 2.0 - 1e-10


def _geom(beta):
    from qest.geometry import InfoGeometry
    return InfoGeometry(JS=np.eye(2), Jtilde=skew2(beta),
                        beta_pairs=(beta,) if beta > 0 else (),
                        n_zero=0 if beta > 0 else 2,
                        quasi_classical=beta == 0.0,
                        coherent=abs(beta - 1.0) <= 1e-6)


class TestMeasurementInvariants:
    @COMMON
    @given(angles, angles, seeds)
    def test_classical_fisher_below_js(self, t1, t2, seed):
        rng = np.random.default_rng(seed)
        frame = frame_at(qubit_model(), np.array([t1, t2]))
        geom = info_geometry(frame)
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, _ = np.linalg.qr(z)
        projectors = [np.outer(q[:, k], q[:, k].conj()) for k in range(2)]
        p, dp = outcome_distribution(frame, projectors)
        jm, singular = classical_fisher(p, dp)
        if not singular:
            assert np.linalg.eigvalsh(geom.JS - jm)[0] >= -1e-8

    @COMMON
    @given(angles, seeds)
    def test_refinement_invariance(self, t1, seed):
        rng = np.random.default_rng(seed)
        frame = frame_at(qubit_model(), np.array([t1, 0.4]))
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, _ = np.linalg.qr(z)
        projectors = [np.outer(q[:, k], q[:, k].conj()) for k in range(2)]
        p, dp = outcome_distribution(frame, projectors)
        jm, singular = classical_fisher(p, dp)
        if singular:
            return
        # split each outcome in two equal halves: J_M is unchanged
        p2 = np.repeat(p / 2, 2)
        dp2 = np.repeat(dp / 2, 2, axis=1)
        jm2, _ = classical_fisher(p2, dp2)
        assert np.max(np.abs(jm2 - jm)) <= 1e-10
