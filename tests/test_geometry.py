import numpy as np
import pytest

from conftest import (
    diagonal_qubit_model,
    great_circle_model,
    rotation_qubit_draw,
    rotation_qubit_model,
    synthetic_lift_model,
)
from qest.geometry import (
    InfoGeometry,
    _normalized_skew,
    coherency_det_check,
    decompose_direct_sum,
    geometry_at,
    info_geometry,
    rpf_transport,
    uhlmann_curvature,
)
from qest.models import (
    ParametricModel,
    frame_at,
    zoo_spin_coherent,
    zoo_squeezed,
)
from qest.operators import (
    InternalConsistencyError,
    ValidationError,
    pure_state,
)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)


def skew2(beta):
    return np.array([[0.0, -beta], [beta, 0.0]])


class TestInfoGeometry:
    def test_spin_jtilde_closed_form(self):
        th = np.array([0.9, 1.7])
        geom = geometry_at(zoo_spin_coherent(0.5, 0.5), th)
        assert abs(geom.Jtilde[0, 1] - 2 * 0.5 * np.sin(th[0])) <= 1e-6

    def test_real_amplitude_model_quasi_classical(self):
        def state_at(theta):
            v = np.array([np.cos(theta[0]), np.sin(theta[0]) * np.cos(theta[1]),
                          np.sin(theta[0]) * np.sin(theta[1])], dtype=complex)
            return pure_state(v)

        model = ParametricModel(kind="real_sphere", dim=3, m=2,
                                state_at=state_at)
        geom = geometry_at(model, np.array([0.7, 0.4]))
        assert geom.quasi_classical
        assert geom.beta_pairs == ()

    def test_squeezed_coherent_via_spectrum(self):
        geom = geometry_at(zoo_squeezed(trunc_dim=64),
                           np.array([0.1, 0.0, 0.3, 0.5]))
        assert geom.coherent
        assert all(abs(b - 1.0) <= 1e-6 for b in geom.beta_pairs)

    def test_antisymmetry_and_beta_range(self):
        geom = geometry_at(zoo_spin_coherent(1.5, 0.5), np.array([1.2, 0.3]))
        assert np.max(np.abs(geom.Jtilde + geom.Jtilde.T)) <= 1e-10
        assert all(b <= 1.0 + 1e-9 for b in geom.beta_pairs)

    def test_singular_js_rejected(self):
        with pytest.raises(ValidationError):
            _normalized_skew(np.diag([1.0, 0.0]), skew2(0.1))
        with pytest.raises(ValidationError):
            InfoGeometry(np.diag([1.0, 0.0]), skew2(0.1))

    def test_beta_above_one_rejected(self):
        with pytest.raises(InternalConsistencyError, match="exceeds 1"):
            InfoGeometry(np.eye(2), skew2(1.0 + 1e-6))


def _svd_beta_pairs(n_skew):
    """Reference: the singular values of an antisymmetric N come in equal
    pairs, one pair per beta, plus zeros."""
    sv = np.linalg.svd(n_skew, compute_uv=False)
    live = sv[sv > 1e-8]
    assert len(live) % 2 == 0
    assert np.max(np.abs(live[::2] - live[1::2]), initial=0.0) <= 1e-13
    return live[::2], len(sv) - len(live)


class TestMixedGram:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_elementwise_trace(self, seed):
        # J^S + i J~ is the matrix of tr rho L_i L_j; the stacked trace does
        # the same arithmetic as this loop, so the bits agree
        model, theta = rotation_qubit_draw(np.random.default_rng(seed))
        frame = frame_at(model, theta)
        c = np.array([[np.trace(frame.rho @ li @ lj) for lj in frame.slds]
                      for li in frame.slds])
        geom = info_geometry(frame)
        assert np.array_equal(geom.JS, 0.5 * (c.real + c.real.T))
        assert np.array_equal(geom.Jtilde, 0.5 * (c.imag - c.imag.T))


class TestBetaSpectrum:
    """The beta pairs read from eigvalsh(iN) agree with the pairing of N's
    singular values, on J~ = J^{S1/2} Q K Q^T J^{S1/2} with K in real
    canonical form (rotation blocks of the drawn betas, then exact zero
    modes), Q orthogonal and J^S random positive definite."""

    @pytest.mark.parametrize("m", range(1, 8))
    def test_matches_svd_pairing(self, m):
        rng = np.random.default_rng(100 + m)
        for draw in range(40):
            k = rng.integers(0, m // 2 + 1)
            betas = rng.uniform(0.05, 1.0, size=k)
            if draw % 4 == 1:
                betas[:] = 1.0     # coherent when 2k = m
            canon = np.zeros((m, m))
            for i, b in enumerate(betas):
                canon[2 * i, 2 * i + 1], canon[2 * i + 1, 2 * i] = -b, b
            q = np.linalg.qr(rng.normal(size=(m, m)))[0]
            a = rng.normal(size=(m, m))
            js = a @ a.T + 0.5 * np.eye(m)
            w, u = np.linalg.eigh(js)
            root = (u * np.sqrt(w)) @ u.T
            geom = InfoGeometry(JS=js, Jtilde=root @ q @ canon @ q.T @ root)
            ref, n_zero = _svd_beta_pairs(geom.N)
            assert len(geom.beta_pairs) == k == len(ref)
            assert geom.n_zero == n_zero == m - 2 * k
            assert np.max(np.abs(np.array(geom.beta_pairs) - ref),
                          initial=0.0) <= 1e-13
            assert np.max(np.abs(np.sort(betas)[::-1] - ref),
                          initial=0.0) <= 1e-12
            assert geom.quasi_classical == (k == 0)
            assert geom.coherent == (2 * k == m and draw % 4 == 1)


class TestDetCheck:
    def test_squeezed_true(self):
        geom = geometry_at(zoo_squeezed(trunc_dim=64),
                           np.array([0.0, 0.0, 0.3, 0.1]))
        assert coherency_det_check(geom)

    def test_quasi_classical_false(self):
        geom = geometry_at(zoo_spin_coherent(1.0, 0.0), np.array([0.8, 0.3]))
        assert not coherency_det_check(geom)

    def test_maximal_spin_true(self):
        for s in [0.5, 1.0, 1.5]:
            geom = geometry_at(zoo_spin_coherent(s, s), np.array([0.8, 0.3]))
            assert coherency_det_check(geom)
            assert geom.coherent

    def test_odd_parameter_count_false(self):
        geom = geometry_at(great_circle_model(), np.array([0.3]))
        assert not coherency_det_check(geom)

    def test_agrees_with_spectrum_flag_on_zoo(self):
        cases = [
            (zoo_spin_coherent(0.5, 0.5), np.array([1.0, 0.2])),
            (zoo_spin_coherent(1.0, 0.0), np.array([1.0, 0.2])),
            (zoo_spin_coherent(1.5, 0.5), np.array([0.7, 0.9])),
            (zoo_squeezed(trunc_dim=64), np.array([0.1, 0.1, 0.4, 0.0])),
        ]
        for model, th in cases:
            geom = geometry_at(model, th)
            assert coherency_det_check(geom) == geom.coherent


class TestUhlmannCurvature:
    def test_classical_family_flat(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        basis, _ = np.linalg.qr(z)
        model = diagonal_qubit_model(basis)
        f = uhlmann_curvature(model, np.array([0.05, 0.02]))
        assert np.max(np.abs(f[(0, 1)])) <= 1e-6

    def test_rotation_family_curved(self):
        rho0 = np.diag([0.8, 0.2]).astype(complex)
        model = rotation_qubit_model(0.5 * SIGMA_X, 0.5 * SIGMA_Y, rho0)
        f = uhlmann_curvature(model, np.array([0.1, -0.2]))
        assert np.max(np.abs(f[(0, 1)])) > 1e-3

    def test_antisymmetry(self):
        rho0 = np.diag([0.7, 0.3]).astype(complex)
        model = rotation_qubit_model(0.5 * SIGMA_X, 0.5 * SIGMA_Y, rho0)
        f = uhlmann_curvature(model, np.array([0.2, 0.1]))
        assert (0, 1) in f and (1, 0) not in f  # stored upper-triangular


class TestRpfTransport:
    def test_degenerate_path_identity(self):
        model = zoo_spin_coherent(0.5, 0.5)
        a = np.array([0.8, 0.4])
        b = np.array([0.9, 0.5])
        rpf, phase = rpf_transport(model, [a, b, a], steps_per_edge=120)
        assert abs(phase) <= 1e-8

    def test_quasi_classical_loop_vanishes(self):
        def state_at(theta):
            v = np.array([np.cos(theta[0]), np.sin(theta[0]) * np.cos(theta[1]),
                          np.sin(theta[0]) * np.sin(theta[1])], dtype=complex)
            return pure_state(v)

        model = ParametricModel(kind="real_sphere", dim=3, m=2,
                                state_at=state_at)
        c = np.array([0.7, 0.4])
        eps = 0.05
        square = [c, c + [eps, 0], c + [eps, eps], c + [0, eps], c]
        _, phase = rpf_transport(model, square, steps_per_edge=80)
        assert abs(phase) <= 1e-8

    def test_small_loop_phase_matches_jtilde(self):
        model = zoo_spin_coherent(0.5, 0.5)
        c = np.array([1.1, 0.6])

        def phase_error(eps):
            # reference the loop against Jtilde at the square's centroid
            square = [c, c + [eps, 0], c + [eps, eps], c + [0, eps], c]
            _, phase = rpf_transport(model, square, steps_per_edge=60)
            jt12 = geometry_at(model, c + eps / 2).Jtilde[0, 1]
            return abs(abs(phase / eps**2) - abs(jt12) / 2)

        e1, e2 = phase_error(0.04), phase_error(0.02)
        assert e2 <= 1e-4
        assert e2 <= 0.35 * e1   # convergence order >= 2

    @pytest.mark.parametrize("s, m_z", [(0.5, 0.5), (1.5, -1.5)])
    def test_small_loop_phase_sign(self, s, m_z):
        # phase / area -> -Jtilde_12 / 2, sign included: m_z = -3/2 flips
        # the sign of Jtilde
        model = zoo_spin_coherent(s, m_z)
        c = np.array([1.1, 0.6])

        def deviation(eps):
            square = [c, c + [eps, 0], c + [eps, eps], c + [0, eps], c]
            _, phase = rpf_transport(model, square, steps_per_edge=60)
            jt12 = geometry_at(model, c + eps / 2).Jtilde[0, 1]
            return phase / eps**2 + jt12 / 2

        d1, d2 = deviation(0.04), deviation(0.02)
        assert abs(d2) <= 1e-4
        assert abs(d2) <= 0.35 * abs(d1)

    def test_open_curve_rejected(self):
        model = zoo_spin_coherent(0.5, 0.5)
        with pytest.raises(ValidationError, match="curve must be closed"):
            rpf_transport(model, [np.array([0.8, 0.4]), np.array([0.9, 0.5])])

    @pytest.mark.parametrize("vertices, steps, match", [
        ([[1.1, 0.6]], 200, "at least two vertices, got 1"),
        ([[1.1, 0.6], [2.3, 0.6], [2.3, 2.1], [1.1, 2.1], [1.1, 0.6]], 0,
         "steps_per_edge must be at least 1, got 0"),
    ], ids=["single_vertex", "zero_steps"])
    def test_degenerate_polygon_rejected(self, vertices, steps, match):
        model = zoo_spin_coherent(0.5, 0.5)
        with pytest.raises(ValidationError, match=match):
            rpf_transport(model, np.array(vertices), steps_per_edge=steps)

    def test_coarse_step_rejected(self):
        model = zoo_spin_coherent(0.5, 0.5)
        c = np.array([1.1, 0.6])
        box = [c, c + [1.2, 0], c + [1.2, 1.5], c + [0, 1.5], c]
        with pytest.raises(ValidationError,
                           match="transport step too coarse"):
            rpf_transport(model, box, steps_per_edge=1)

    def test_classical_mixed_loop_trivial(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        basis, _ = np.linalg.qr(z)
        model = diagonal_qubit_model(basis)
        c, eps = np.array([0.05, 0.02]), 0.05
        square = [c, c + [eps, 0], c + [eps, eps], c + [0, eps], c]
        rpf, phase = rpf_transport(model, square, steps_per_edge=20)
        assert phase is None
        assert np.max(np.abs(rpf - np.eye(2))) <= 1e-10

    def test_mixed_loop_matches_uhlmann_curvature(self):
        # Stokes for the Uhlmann connection: (rpf - I) / area -> the
        # anti-Hermitian part of W_0^-1 F_12 W_0 / 2, F at the centroid
        rho0 = np.diag([0.8, 0.2]).astype(complex)
        model = rotation_qubit_model(0.5 * SIGMA_X, 0.5 * SIGMA_Y, rho0)
        c = np.array([0.3, 0.5])
        p, u = np.linalg.eigh(model.state(c).density)
        w0 = u * np.sqrt(p)

        def rel_error(eps):
            square = [c, c + [eps, 0], c + [eps, eps], c + [0, eps], c]
            rpf, _ = rpf_transport(model, square, steps_per_edge=60)
            f = uhlmann_curvature(model, c + eps / 2)[(0, 1)]
            x = np.linalg.inv(w0) @ f @ w0
            target = 0.25 * (x - x.conj().T)
            err = np.linalg.norm((rpf - np.eye(2)) / eps**2 - target)
            return err / np.linalg.norm(target)

        e1, e2 = rel_error(0.04), rel_error(0.02)
        assert e2 <= 0.01
        assert e2 <= 0.6 * e1


class TestDirectSum:
    def test_single_block(self):
        model, theta = synthetic_lift_model(skew2(0.45))
        geom = geometry_at(model, theta)
        blocks, a = decompose_direct_sum(geom)
        assert len(blocks) == 1
        assert abs(blocks[0].beta - 0.45) <= 1e-10

    def test_construct_then_recover(self):
        jt = np.zeros((4, 4))
        jt[:2, :2] = skew2(0.9)
        jt[2:, 2:] = skew2(0.2)
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        model, theta = synthetic_lift_model(q.T @ jt @ q, dim=6)
        geom = geometry_at(model, theta)
        blocks, a = decompose_direct_sum(geom)
        betas = sorted(b.beta for b in blocks)
        assert abs(betas[0] - 0.2) <= 1e-10
        assert abs(betas[1] - 0.9) <= 1e-10
        # the change of coordinates normalizes J^S and canonicalizes Jtilde
        a_inv = np.linalg.inv(a)
        js_new = a_inv.T @ geom.JS @ a_inv
        assert np.max(np.abs(js_new - np.eye(4))) <= 1e-8
        canon = np.zeros((4, 4))
        canon[:2, :2] = skew2(0.9)
        canon[2:, 2:] = skew2(0.2)
        jt_new = a_inv.T @ geom.Jtilde @ a_inv
        assert np.max(np.abs(jt_new - canon)) <= 1e-8

    def test_kernel_blocks_last(self):
        # one pair and a two-dimensional kernel, mixed by a rotation
        jt = np.zeros((4, 4))
        jt[1:3, 1:3] = skew2(0.6)
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        model, theta = synthetic_lift_model(q.T @ jt @ q, dim=6)
        geom = geometry_at(model, theta)
        blocks, a = decompose_direct_sum(geom)
        assert [b.indices for b in blocks] == [(0, 1), (2,), (3,)]
        assert abs(blocks[0].beta - 0.6) <= 1e-10
        assert blocks[1].beta is None and blocks[2].beta is None
        a_inv = np.linalg.inv(a)
        canon = np.zeros((4, 4))
        canon[:2, :2] = skew2(0.6)
        assert np.max(np.abs(a_inv.T @ geom.Jtilde @ a_inv - canon)) <= 1e-8
        assert np.max(np.abs(a_inv.T @ geom.JS @ a_inv - np.eye(4))) <= 1e-8

    def test_squeezed_two_coherent_blocks(self):
        geom = geometry_at(zoo_squeezed(trunc_dim=64),
                           np.array([0.1, -0.1, 0.35, 0.2]))
        blocks, _ = decompose_direct_sum(geom)
        assert len(blocks) == 2
        assert all(abs(b.beta - 1.0) <= 1e-6 for b in blocks)


class TestReparametrization:
    def test_covariance_and_invariance(self):
        model = zoo_spin_coherent(1.0, 1.0)
        th = np.array([0.9, 1.4])
        geom = geometry_at(model, th)
        a = np.array([[1.3, 0.4], [-0.2, 0.8]])

        def state_at(eta):
            return model.state(np.linalg.solve(a, eta) if False
                               else np.linalg.inv(a) @ eta)

        # eta = A theta  =>  theta = A^{-1} eta
        reparam = ParametricModel(kind="reparam", dim=model.dim, m=2,
                                  state_at=lambda e: model.state(
                                      np.linalg.inv(a) @ e))
        geom2 = geometry_at(reparam, a @ th)
        a_inv = np.linalg.inv(a)
        expect = a_inv.T @ geom.JS @ a_inv
        assert np.max(np.abs(geom2.JS - expect)) <= 1e-6
        assert np.max(np.abs(np.array(geom2.beta_pairs)
                             - np.array(geom.beta_pairs))) <= 1e-6
