import numpy as np
import pytest

from conftest import great_circle_model, synthetic_lift_model
from qest.bounds import WeightMatrix, cr_coherent, cr_two_param, sld_bound
from qest.geometry import info_geometry
from qest.measurements import (
    EstimationVectors,
    classical_fisher,
    commuting_sld_estimator,
    construct_pvm_from_vectors,
    naimark_compress,
    optimal_postprocessing,
    optimal_vectors_sld,
    optimal_vectors_two_param,
    outcome_distribution,
)
from qest.models import frame_at, zoo_canonical, zoo_spin_coherent
from qest.operators import ValidationError


def basis_projectors(dim):
    return [np.diag((np.arange(dim) == k).astype(complex))
            for k in range(dim)]


class TestOutcomeDistribution:
    def test_qubit_basis(self):
        frame = frame_at(great_circle_model(), np.array([0.8]))
        p, dp = outcome_distribution(frame, basis_projectors(2))
        assert np.allclose(p, [np.cos(0.4) ** 2, np.sin(0.4) ** 2])
        assert abs(dp.sum()) <= 1e-10   # derivatives of a normalization

    def test_derivative_rows_sum_to_zero(self):
        frame = frame_at(zoo_spin_coherent(1.0, 1.0), np.array([0.7, 0.3]))
        p, dp = outcome_distribution(frame, basis_projectors(3))
        assert np.max(np.abs(dp.sum(axis=1))) <= 1e-10

    def test_canonical_gibbs_weights(self):
        model = zoo_canonical([0.0, 1.0, 2.0])
        frame = frame_at(model, np.array([1.3]))
        p, _ = outcome_distribution(frame, basis_projectors(3))
        w = np.exp(-np.array([0.0, 1.0, 2.0]) / 1.3)
        assert np.allclose(p, w / w.sum())


class TestClassicalFisher:
    def test_great_circle_basis_equals_js(self):
        frame = frame_at(great_circle_model(), np.array([np.pi / 3]))
        p, dp = outcome_distribution(frame, basis_projectors(2))
        jm, singular = classical_fisher(p, dp)
        assert not singular
        assert abs(jm[0, 0] - 1.0) <= 1e-8

    def test_single_outcome_zero_information(self):
        frame = frame_at(great_circle_model(), np.array([0.5]))
        p, dp = outcome_distribution(frame, [np.eye(2, dtype=complex)])
        jm, _ = classical_fisher(p, dp)
        assert np.max(np.abs(jm)) <= 1e-12

    def test_singular_flag(self):
        jm, singular = classical_fisher(np.array([1.0, 0.0]),
                                        np.array([[0.5, -0.5]]))
        assert singular


class TestOptimalPostprocessing:
    def test_scalar_case(self):
        frame = frame_at(great_circle_model(), np.array([np.pi / 3]))
        p, dp = outcome_distribution(frame, basis_projectors(2))
        value, corrections = optimal_postprocessing(p, dp, np.eye(1))
        assert abs(value - 1.0) <= 1e-8
        # corrections are locally unbiased: sum dp * correction = 1
        assert abs(dp[0] @ corrections[:, 0] - 1.0) <= 1e-8

    def test_canonical_energy_pvm(self):
        model = zoo_canonical([0.0, 0.6, 1.9])
        t = 0.9
        frame = frame_at(model, np.array([t]))
        p, dp = outcome_distribution(frame, basis_projectors(3))
        value, corrections = optimal_postprocessing(p, dp, np.eye(1))
        c = model.meta["heat_capacity"](t)
        assert abs(value - t * t / c) <= 1e-6
        expect = model.meta["best_estimates"](t) - t
        assert np.max(np.abs(corrections[:, 0] - expect)) <= 1e-6

    def test_refinement_invariance(self):
        frame = frame_at(great_circle_model(), np.array([0.9]))
        p, dp = outcome_distribution(frame, basis_projectors(2))
        v1, _ = optimal_postprocessing(p, dp, np.eye(1))
        # split the first outcome in two equal halves
        p2 = np.array([p[0] / 2, p[0] / 2, p[1]])
        dp2 = np.array([[dp[0, 0] / 2, dp[0, 0] / 2, dp[0, 1]]])
        v2, _ = optimal_postprocessing(p2, dp2, np.eye(1))
        assert abs(v1 - v2) <= 1e-12


class TestConstructPvm:
    def test_one_parameter_qubit(self):
        phi = np.array([1.0, 0.0], dtype=complex)
        x = np.array([[0.0], [0.5]], dtype=complex)
        vectors = EstimationVectors(phi=phi, X=x, theta=np.array([0.0]))
        pvm = construct_pvm_from_vectors(vectors)
        probs = [np.vdot(phi, proj @ phi).real for proj in pvm.projectors]
        live = sorted(pr for pr in probs if pr > 1e-12)
        assert np.allclose(live, [0.5, 0.5])
        offsets = sorted(est[0] for est, pr in zip(pvm.estimates, probs)
                         if pr > 1e-12)
        assert np.allclose(offsets, [-0.5, 0.5])
        assert abs(pvm.meta["covariance"][0, 0] - 0.25) <= 1e-10

    def test_quasi_classical_reaches_sld_floor(self):
        model, theta = synthetic_lift_model(np.zeros((2, 2)))
        frame = frame_at(model, theta)
        lmat = np.column_stack(frame.lifts)
        js = (lmat.conj().T @ lmat).real
        x = lmat @ np.linalg.inv(js)
        vectors = EstimationVectors(phi=frame.phi, X=x, theta=theta)
        pvm = construct_pvm_from_vectors(vectors)
        assert np.max(np.abs(pvm.meta["covariance"] - np.linalg.inv(js))) \
            <= 1e-9

    def test_pipeline_covariance_matches_bound(self):
        model, theta = synthetic_lift_model(
            np.array([[0.0, -0.6], [0.6, 0.0]]))
        frame = frame_at(model, theta)
        geom = info_geometry(frame)
        weight = WeightMatrix.from_matrix(np.array([[1.0, 0.2], [0.2, 2.0]]))
        bound = cr_two_param(geom, weight)
        vectors, _ = optimal_vectors_two_param(frame, weight, bound)
        pvm = construct_pvm_from_vectors(vectors)
        pvm.validate()
        assert np.max(np.abs(pvm.meta["covariance"].real - bound.V_opt)) \
            <= 1e-8

    def test_rejects_complex_covariance(self):
        phi = np.array([1.0, 0.0, 0.0], dtype=complex)
        x = np.array([[0.0, 0.0], [1.0, 1j], [0.0, 1.0]], dtype=complex)
        vectors = EstimationVectors(phi=phi, X=x, theta=np.zeros(2))
        with pytest.raises(ValidationError):
            construct_pvm_from_vectors(vectors)


class TestOptimalVectors:
    def test_beta_zero_reduces_to_lifts(self):
        model, theta = synthetic_lift_model(np.zeros((2, 2)))
        frame = frame_at(model, theta)
        geom = info_geometry(frame)
        bound = cr_two_param(geom, WeightMatrix.from_matrix(np.eye(2)))
        vectors, basis = optimal_vectors_two_param(
            frame, WeightMatrix.from_matrix(np.eye(2)), bound)
        # X = L J^{S-1} = L here (J^S = I): compare through the embedding
        l_e = basis.conj().T @ np.column_stack(frame.lifts)
        assert np.max(np.abs(vectors.X[:l_e.shape[0]] - l_e)) <= 1e-8

    def test_coherent_value_nine(self):
        model, theta = synthetic_lift_model(
            np.array([[0.0, -1.0], [1.0, 0.0]]))
        frame = frame_at(model, theta)
        geom = info_geometry(frame)
        g = np.diag([1.0, 4.0])
        weight = WeightMatrix.from_matrix(g)
        bound = cr_two_param(geom, weight)
        vectors, _ = optimal_vectors_two_param(frame, weight, bound)
        xx = (vectors.X.conj().T @ vectors.X).real
        assert abs(np.trace(g @ xx) - 9.0) <= 1e-8

    def test_spin_model_all_weights(self):
        model = zoo_spin_coherent(0.5, 0.5)
        frame = frame_at(model, np.array([1.0, 0.4]))
        geom = info_geometry(frame)
        for g in [np.eye(2), geom.JS, np.array([[2.0, 0.4], [0.4, 1.0]])]:
            weight = WeightMatrix.from_matrix(g)
            bound = cr_two_param(geom, weight)
            vectors, basis = optimal_vectors_two_param(frame, weight, bound)
            pvm = construct_pvm_from_vectors(vectors)
            risk = np.trace(g @ pvm.meta["covariance"]).real
            assert abs(risk - bound.cr_value) <= 1e-8 * max(1.0,
                                                            bound.cr_value)


class TestOptimalVectorsSld:
    def test_attains_floor_for_any_weight_and_m(self):
        # quasi-classical pure model with m = 3 and a non-diagonal J^S
        model, theta = synthetic_lift_model(np.zeros((3, 3)), dim=6)
        frame = frame_at(model, theta)
        geom = info_geometry(frame)
        g = WeightMatrix.from_matrix(np.array([[2.0, 0.3, 0.0],
                                               [0.3, 1.0, 0.1],
                                               [0.0, 0.1, 0.5]]))
        bound = sld_bound(geom, g)
        vectors, basis = optimal_vectors_sld(frame, bound)
        pvm = construct_pvm_from_vectors(vectors)
        risk = np.trace(g.G @ pvm.meta["covariance"]).real
        assert abs(risk - bound.cr_value) <= 1e-10
        elements, _ = naimark_compress(pvm, basis)
        assert np.max(np.abs(sum(elements) - np.eye(6))) <= 1e-10

    def test_refuses_incompatible_model(self):
        model, theta = synthetic_lift_model(
            np.array([[0.0, -0.5], [0.5, 0.0]]))
        frame = frame_at(model, theta)
        bound = sld_bound(info_geometry(frame),
                          WeightMatrix.from_matrix(np.eye(2)))
        with pytest.raises(ValidationError):
            optimal_vectors_sld(frame, bound)


class TestCommutingSldEstimator:
    def test_canonical_temperature_estimator(self):
        model = zoo_canonical([0.0, 0.8, 1.7])
        t = 1.1
        frame = frame_at(model, np.array([t]))
        pvm = commuting_sld_estimator(frame, info_geometry(frame))
        expect = sorted(model.meta["best_estimates"](t))
        got = sorted(e[0] for e in pvm.estimates)
        assert np.max(np.abs(np.array(got) - np.array(expect))) <= 1e-6

    def test_outcome_fisher_equals_js(self):
        model = zoo_canonical([0.0, 1.0])
        t = 0.8
        from qest.models import sld_solve
        frame = sld_solve(model, np.array([t]))
        geom = info_geometry(frame)
        pvm = commuting_sld_estimator(frame, geom)
        p, dp = outcome_distribution(frame, pvm.projectors)
        jm, _ = classical_fisher(p, dp)
        assert abs(jm[0, 0] - geom.JS[0, 0]) <= 1e-8

    def test_non_commuting_refused(self):
        from conftest import rotation_qubit_model
        sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        sy = np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)
        model = rotation_qubit_model(0.5 * sx, 0.5 * sy,
                                     np.diag([0.8, 0.2]).astype(complex))
        frame = frame_at(model, np.array([0.1, 0.2]))
        with pytest.raises(ValidationError, match="commute"):
            commuting_sld_estimator(frame, info_geometry(frame))

    def test_pure_frame_refused(self):
        frame = frame_at(zoo_spin_coherent(0.5, 0.5), np.array([1.0, 0.4]))
        with pytest.raises(ValidationError, match="mixed frame"):
            commuting_sld_estimator(frame, info_geometry(frame))


class TestNaimark:
    def _dilated_pipeline(self):
        model = zoo_spin_coherent(0.5, 0.5)
        frame = frame_at(model, np.array([0.9, 0.5]))
        geom = info_geometry(frame)
        weight = WeightMatrix.from_matrix(geom.JS)
        bound = cr_two_param(geom, weight)
        vectors, basis = optimal_vectors_two_param(frame, weight, bound)
        pvm = construct_pvm_from_vectors(vectors)
        return frame, pvm, basis

    def test_identical_outcome_distribution(self):
        frame, pvm, basis = self._dilated_pipeline()
        elements, _ = naimark_compress(pvm, basis)
        phi = frame.phi
        p_base = [np.vdot(phi, e @ phi).real for e in elements]
        phi_e = np.zeros(pvm.ambient_dim, dtype=complex)
        phi_e[:basis.shape[1]] = basis.conj().T @ phi
        p_dil = [np.vdot(phi_e, proj @ phi_e).real
                 for proj in pvm.projectors]
        assert np.max(np.abs(np.array(p_base[:len(p_dil)])
                             - np.array(p_dil))) <= 1e-10

    def test_element_spectra(self):
        _, pvm, basis = self._dilated_pipeline()
        elements, _ = naimark_compress(pvm, basis)
        total = sum(elements)
        assert np.max(np.abs(total - np.eye(total.shape[0]))) <= 1e-10
        for e in elements:
            w = np.linalg.eigvalsh(e)
            assert w[0] >= -1e-10 and w[-1] <= 1.0 + 1e-10

    def test_trivial_dilation_unchanged(self):
        projectors = basis_projectors(2)
        from qest.measurements import PvmEstimator
        pvm = PvmEstimator(projectors=projectors,
                           estimates=[np.zeros(1), np.zeros(1)],
                           ambient_dim=2)
        elements, has_rem = naimark_compress(pvm, np.eye(2, dtype=complex))
        assert not has_rem
        for e, proj in zip(elements, projectors):
            assert np.max(np.abs(e - proj)) <= 1e-12


class TestMeasurementCannotBeatSld:
    def test_jm_below_js(self):
        rng = np.random.default_rng(17)
        model = zoo_spin_coherent(1.0, 1.0)
        frame = frame_at(model, np.array([1.1, 0.4]))
        geom = info_geometry(frame)
        for _ in range(10):
            z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            q, _ = np.linalg.qr(z)
            projectors = [np.outer(q[:, k], q[:, k].conj()) for k in range(3)]
            p, dp = outcome_distribution(frame, projectors)
            jm, singular = classical_fisher(p, dp)
            if singular:
                continue
            w = np.linalg.eigvalsh(geom.JS - jm)
            assert w[0] >= -1e-8
