import numpy as np
import pytest

from conftest import great_circle_model, synthetic_lift_model
from qest.bounds import (
    WeightMatrix,
    attainable_bound,
    cr_coherent,
    cr_two_param,
    sld_bound,
)
from qest.geometry import info_geometry
from qest.measurements import (
    PVM_TOL,
    EstimationVectors,
    PvmEstimator,
    classical_fisher,
    commuting_sld_estimator,
    construct_pvm_from_vectors,
    naimark_compress,
    optimal_postprocessing,
    optimal_vectors,
    outcome_distribution,
    _householder_orthogonal,
    _naimark_stack,
)
from qest.models import (
    frame_at,
    load_model_spec,
    sld_solve,
    zoo_canonical,
    zoo_pm_shift,
    zoo_spin_coherent,
    zoo_squeezed,
)
from qest.measurements import _check_pvm, _verify_stack
from qest.operators import InternalConsistencyError, ValidationError


def basis_projectors(dim):
    return [np.diag((np.arange(dim) == k).astype(complex))
            for k in range(dim)]


def _outcome_loop(frame, projectors):
    """Reference: p and dp of each projector in turn, as traces."""
    p = np.zeros(len(projectors))
    dp = np.zeros((frame.m, len(projectors)))
    for k, proj in enumerate(projectors):
        if frame.pure:
            p[k] = np.vdot(frame.phi, proj @ frame.phi).real
            for i, l in enumerate(frame.lifts):
                dp[i, k] = np.vdot(l, proj @ frame.phi).real
        else:
            p[k] = np.trace(frame.rho @ proj).real
            for i, l in enumerate(frame.slds):
                drho = 0.5 * (l @ frame.rho + frame.rho @ l)
                dp[i, k] = np.trace(drho @ proj).real
    return p, dp


class TestOutcomeDistribution:
    @pytest.mark.parametrize("name", ["spin_3half", "squeezed", "mixed"])
    def test_matches_the_loop(self, name):
        # einsum sums in another order than the loop: 1e-14 of a trace of
        # order-one operators
        frame = {
            "spin_3half": lambda: frame_at(zoo_spin_coherent(1.5, 0.5),
                                           np.array([1.0, 0.5])),
            "squeezed": lambda: frame_at(zoo_squeezed(trunc_dim=32),
                                         np.array([0.1, -0.05, 0.3, 0.2])),
            "mixed": lambda: frame_at(*load_model_spec(MIXED_ONE_PARAM_SPEC)),
        }[name]()
        d = len(frame.phi) if frame.pure else len(frame.rho)
        rng = np.random.default_rng(3)
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        q = np.linalg.qr(z)[0]
        projectors = q.T[:, :, None] * q.T.conj()[:, None, :]
        p, dp = outcome_distribution(frame, projectors)
        want_p, want_dp = _outcome_loop(frame, projectors)
        assert np.max(np.abs(p - want_p)) <= 1e-14
        assert np.max(np.abs(dp - want_dp)) <= 1e-14 * max(
            1.0, np.abs(want_dp).max())

    def test_qubit_basis(self):
        frame = frame_at(great_circle_model(), np.array([0.8]))
        p, dp = outcome_distribution(frame, basis_projectors(2))
        assert np.allclose(p, [np.cos(0.4) ** 2, np.sin(0.4) ** 2])
        assert abs(dp.sum()) <= 1e-10   # derivatives of a normalization

    def test_derivative_rows_sum_to_zero(self):
        frame = frame_at(zoo_spin_coherent(1.0, 1.0), np.array([0.7, 0.3]))
        p, dp = outcome_distribution(frame, basis_projectors(3))
        assert np.max(np.abs(dp.sum(axis=1))) <= 1e-10

    def test_negative_probability_refused(self):
        frame = frame_at(great_circle_model(), np.array([0.8]))
        with pytest.raises(ValidationError, match="negative outcome"):
            outcome_distribution(frame, [-np.eye(2, dtype=complex)])

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

    def test_stack_is_row_by_row(self):
        # p (T, K) and dp (T, m, K): each row as if passed alone, a row
        # with a dead outcome carrying information flagged on its own
        rng = np.random.default_rng(5)
        p = rng.dirichlet(np.ones(4), size=3)
        dp = rng.standard_normal((3, 2, 4))
        p[1, 2] = 0.0
        jm, singular = classical_fisher(p, dp)
        assert singular.tolist() == [False, True, False]
        for t in range(3):
            row, flag = classical_fisher(p[t], dp[t])
            assert np.allclose(jm[t], row, rtol=1e-14, atol=0.0)
            assert flag == singular[t]


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

    @pytest.mark.parametrize("p, dp", [
        pytest.param([1.0, 0.0], [[0.5, -0.5]], id="dead_outcome_flow"),
        pytest.param([0.5, 0.5], [[1e-40, -1e-40]], id="log_det_below_-60"),
    ])
    def test_singular_refused(self, p, dp):
        with pytest.raises(ValidationError, match="singular"):
            optimal_postprocessing(np.array(p), np.array(dp), np.eye(1))


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
        vectors, _ = optimal_vectors(frame, bound)
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

    @pytest.mark.parametrize("phi, x, match", [
        ([1.0, 0.0, 0.0], [[0.1, 0.0], [1.0, 0.0], [0.0, 1.0]],
         "not orthogonal to phi"),
        ([1.0, 0.0, 0.0], [[0.0, 0.0], [1.0, 2.0], [0.0, 0.0]],
         "linearly dependent"),
        ([1.0, 0.0], [[0.0, 0.0], [1.0, 0.5]], "ambient space too small"),
    ], ids=["overlaps_phi", "dependent", "too_small"])
    def test_entry_checks(self, phi, x, match):
        vectors = EstimationVectors(phi=np.array(phi, dtype=complex),
                                    X=np.array(x, dtype=complex),
                                    theta=np.zeros(2))
        with pytest.raises(ValidationError, match=match):
            construct_pvm_from_vectors(vectors)


class TestOptimalVectors:
    def test_beta_zero_reduces_to_lifts(self):
        model, theta = synthetic_lift_model(np.zeros((2, 2)))
        frame = frame_at(model, theta)
        geom = info_geometry(frame)
        bound = cr_two_param(geom, WeightMatrix.from_matrix(np.eye(2)))
        vectors, basis = optimal_vectors(frame, bound)
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
        vectors, _ = optimal_vectors(frame, bound)
        xx = (vectors.X.conj().T @ vectors.X).real
        assert abs(np.trace(g @ xx) - 9.0) <= 1e-8

    def test_spin_model_all_weights(self):
        model = zoo_spin_coherent(0.5, 0.5)
        frame = frame_at(model, np.array([1.0, 0.4]))
        geom = info_geometry(frame)
        for g in [np.eye(2), geom.JS, np.array([[2.0, 0.4], [0.4, 1.0]])]:
            weight = WeightMatrix.from_matrix(g)
            bound = cr_two_param(geom, weight)
            vectors, basis = optimal_vectors(frame, bound)
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
        vectors, basis = optimal_vectors(frame, bound)
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
            optimal_vectors(frame, bound)


RISK_MODELS = {
    "spin_half": lambda: (zoo_spin_coherent(0.5, 0.5), [1.0, 0.4]),
    "spin_3half": lambda: (zoo_spin_coherent(1.5, 0.5), [1.0, 0.5]),
    "spin_1": lambda: (zoo_spin_coherent(1.0, 0.0), [1.1, 0.4]),
    "spin_1_pole": lambda: (zoo_spin_coherent(1.0, 0.0), [0.003, 0.7]),
    "pm_shift": lambda: (zoo_pm_shift(1, trunc_dim=32), [0.2, -0.1]),
    "squeezed": lambda: (zoo_squeezed(trunc_dim=64), [0.1, -0.05, 0.3, 0.2]),
}


MIXED_ONE_PARAM_SPEC = {
    "kind": "explicit", "theta": [0.0],
    "params": {
        "pure": False,
        "state": [[[0.7, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.3, 0.0]]],
        "tangents": [[[[0.0, 0.0], [0.1, 0.0]], [[0.1, 0.0], [0.0, 0.0]]]],
    },
}


def _strict_random_weight(m):
    a = np.random.default_rng(11).normal(size=(m, m))
    return a @ a.T + 0.5 * np.eye(m)


class TestRecomputedRisk:
    """The risk of the built measurement, recomputed from its compressed
    elements alone (outcome statistics, then the best locally unbiased
    post-processing), equals the bound: a check that does not go through
    the estimation-vector algebra."""

    @pytest.mark.parametrize("weight", ["identity", "js", "random"])
    @pytest.mark.parametrize("name", list(RISK_MODELS))
    def test_equals_bound(self, name, weight):
        model, theta = RISK_MODELS[name]()
        frame = frame_at(model, np.array(theta))
        geom = info_geometry(frame)
        g = {"identity": np.eye(model.m), "js": geom.JS,
             "random": _strict_random_weight(model.m)}[weight]
        bound = attainable_bound(geom, WeightMatrix.from_matrix(g), True)
        vectors, basis = optimal_vectors(frame, bound)
        elements, _ = naimark_compress(construct_pvm_from_vectors(vectors),
                                       basis)
        risk, _ = optimal_postprocessing(
            *outcome_distribution(frame, elements), g)
        assert abs(risk - bound.cr_value) <= 1e-8 * bound.cr_value


class TestNearPole:
    """Within about 1e-6 of a spin pole J^S has condition number ~1e12, yet
    both a strictly positive weight and G = J^S get the full-rank
    two-parameter optimum: the build is attained, carries C, and its
    risk, recomputed through optimal_postprocessing, is the bound.  J_M is
    as ill-conditioned as J^S there, and the oracle's singularity rule
    (log det J_M >= -60) accepts it."""

    @pytest.mark.parametrize("weight", ["identity", "random"])
    @pytest.mark.parametrize("s, theta1", [(1.0, 1e-6), (0.5, 1.01e-6),
                                           (0.5, 1e-6), (0.5, 5e-7),
                                           (1.0, 5e-7)])
    def test_strict_weight_attained(self, s, theta1, weight):
        frame = frame_at(zoo_spin_coherent(s, s), np.array([theta1, 0.7]))
        g = {"identity": np.eye(2), "random": _strict_random_weight(2)}[weight]
        bound = attainable_bound(info_geometry(frame),
                                 WeightMatrix.from_matrix(g), True)
        assert bound.attained == "attained"
        assert bound.C is not None
        vectors, basis = optimal_vectors(frame, bound)
        elements, _ = naimark_compress(construct_pvm_from_vectors(vectors),
                                       basis)
        risk, _ = optimal_postprocessing(
            *outcome_distribution(frame, elements), g)
        assert abs(risk - bound.cr_value) <= 1e-8 * bound.cr_value

    @pytest.mark.parametrize("s, m_z, theta1", [
        pytest.param(1.0, 1.0, 1e-6, id="1.0-1.0"),
        pytest.param(0.5, 0.5, 1e-6, id="0.5-0.5"),
        pytest.param(1.5, 0.5, 1e-6, id="1.5-0.5"),
        # the Cholesky basis rows lose orthonormality here unless the
        # construction re-orthonormalizes them ("projector not idempotent")
        (1.0, 1.0, 5.17443e-7),
        (1.5, 1.5, 7.72227e-7),
        (1.5, 1.5, 7.73773e-7),
        (1.5, 1.5, 7.75319e-7),
    ])
    def test_js_weight_attained(self, s, m_z, theta1):
        # G = J^S is not strict here, but its normalized weight is I; the
        # value is 4 / (1 + sqrt(1 - beta^2)), 4 on a coherent point
        frame = frame_at(zoo_spin_coherent(s, m_z), np.array([theta1, 0.7]))
        geom = info_geometry(frame)
        weight = WeightMatrix.from_matrix(geom.JS)
        assert not weight.strict
        bound = attainable_bound(geom, weight, True)
        assert bound.attained == "attained"
        assert bound.C is not None
        assert geom.coherent == (m_z == s)
        beta = 1.0 if geom.coherent else geom.beta_pairs[0]
        assert bound.cr_value == pytest.approx(
            4.0 / (1.0 + np.sqrt(1.0 - beta**2)), rel=1e-8)
        vectors, basis = optimal_vectors(frame, bound)
        elements, _ = naimark_compress(construct_pvm_from_vectors(vectors),
                                       basis)
        risk, _ = optimal_postprocessing(
            *outcome_distribution(frame, elements), geom.JS)
        assert abs(risk - bound.cr_value) <= 1e-8 * bound.cr_value


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

    def test_sld_not_commuting_with_rho(self):
        # one parameter, L = 0.2 sigma_x off the eigenbasis of
        # rho = diag(0.7, 0.3): J^S = 0.04, estimates theta -+ 5
        frame = frame_at(*load_model_spec(MIXED_ONE_PARAM_SPEC))
        geom = info_geometry(frame)
        pvm = commuting_sld_estimator(frame, geom)
        assert sorted(e[0] for e in pvm.estimates) == pytest.approx(
            [-5.0, 5.0], abs=1e-12)
        p, dp = outcome_distribution(frame, pvm.projectors)
        jm, _ = classical_fisher(p, dp)
        assert abs(jm[0, 0] - geom.JS[0, 0]) <= 1e-12
        assert abs(geom.JS[0, 0] - 0.04) <= 1e-12

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
        vectors, basis = optimal_vectors(frame, bound)
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

    @staticmethod
    def _reported_and_stacked(model, theta):
        """The elements naimark_compress reports and those _naimark_stack
        computes for the same G = I build, with its frame and bound."""
        frame = frame_at(model, np.array(theta))
        bound = attainable_bound(info_geometry(frame),
                                 WeightMatrix.from_matrix(np.eye(2)), True)
        vectors, basis = optimal_vectors(frame, bound)
        pvm = construct_pvm_from_vectors(vectors)
        elements, _ = naimark_compress(pvm, basis)
        stacked = _naimark_stack(pvm.projectors[None], basis[None])[0][0]
        return frame, bound, elements, stacked

    def test_sub_ulp_parts_reported_as_zero(self):
        # above Fock level ~16 the 128-level pm_shift elements are round-off
        frame, bound, elements, stacked = self._reported_and_stacked(
            zoo_pm_shift(1, trunc_dim=128), [0.2, -0.1])
        ulp = np.finfo(float).eps * np.abs(elements).max(axis=(1, 2))
        ulp = ulp[:, None, None, None]
        parts = np.stack([elements.real, elements.imag], axis=-1)
        raw = np.stack([stacked.real, stacked.imag], axis=-1)
        assert np.all(np.abs(parts - raw) <= ulp)
        assert np.all((parts == 0.0) | (np.abs(parts) >= ulp))
        assert np.count_nonzero(parts) < np.count_nonzero(raw) // 4
        assert np.array_equal(elements, elements.conj().swapaxes(1, 2))
        total = elements.sum(axis=0)
        assert np.max(np.abs(total - np.eye(len(total)))) <= 1e-12
        risk, _ = optimal_postprocessing(
            *outcome_distribution(frame, elements), np.eye(2))
        assert abs(risk - bound.cr_value) <= 1e-8 * bound.cr_value

    def test_no_sub_ulp_parts_bit_for_bit(self):
        _, _, elements, stacked = self._reported_and_stacked(
            zoo_spin_coherent(1.5, 0.5), [1.0, 0.5])
        assert elements.tobytes() == stacked.tobytes()


def _validate_loop(projectors, dim):
    """Reference: the per-projector validation loop, one check at a time."""
    total = np.zeros((dim, dim), dtype=complex)
    for p in projectors:
        if np.max(np.abs(p - p.conj().T)) > PVM_TOL:
            raise ValidationError("projector not Hermitian")
        if np.max(np.abs(p @ p - p)) > PVM_TOL:
            raise ValidationError("projector not idempotent")
        total += p
    if np.max(np.abs(total - np.eye(dim))) > PVM_TOL:
        raise ValidationError("projectors do not sum to identity")


def _naimark_loop(pvm, embedding):
    """Reference: compress one projector at a time."""
    base_dim, k = embedding.shape
    elements = []
    for proj in pvm.projectors:
        elem = embedding @ proj[:k, :k] @ embedding.conj().T
        elements.append(0.5 * (elem + elem.conj().T))
    rem = np.eye(base_dim, dtype=complex) - sum(elements)
    if np.max(np.abs(rem)) > 1e-9:
        elements.append(0.5 * (rem + rem.conj().T))
    return np.array(elements)


def _gram_schmidt_loop(vectors):
    """Reference: orthonormalize phi, x^1..x^m one vector at a time with
    real coefficients, mix the basis by the Householder O and announce
    theta + lambda O[k] / O[k, 0] on outcome k, then the remainder."""
    theta, dim, m = vectors.theta, *vectors.X.shape
    basis, lam = [], np.zeros((m, m + 1))
    for i, v in enumerate([vectors.phi, *vectors.X.T]):
        resid = v
        for j, b in enumerate(basis):
            c = np.vdot(b, v).real
            resid = resid - c * b
            if i:
                lam[i - 1, j] = c
        nrm = np.linalg.norm(resid)
        basis.append(resid / nrm)
        if i:
            lam[i - 1, i] = nrm
    o = _householder_orthogonal(m + 1)
    projectors, estimates = [], []
    for k in range(m + 1):
        b = o[k] @ np.array(basis)
        projectors.append(np.outer(b, b.conj()))
        estimates.append(theta + lam @ o[k] / o[k, 0])
    if dim > m + 1:
        projectors.append(np.eye(dim) - sum(np.outer(b, b.conj())
                                            for b in basis))
        estimates.append(theta)
    return np.array(projectors), np.array(estimates)


def _two_param_builds():
    """(vectors, embedding) of the two-parameter construction on spin 1/2, 1
    and 3/2 at two weights each."""
    out = []
    for s, m_z in [(0.5, 0.5), (1.0, 0.0), (1.5, 0.5)]:
        frame = frame_at(zoo_spin_coherent(s, m_z), np.array([0.9, 0.5]))
        geom = info_geometry(frame)
        for g in (geom.JS, np.array([[2.0, 0.4], [0.4, 1.0]])):
            weight = WeightMatrix.from_matrix(g)
            out.append(optimal_vectors(frame, cr_two_param(geom, weight)))
    return out


def _pipelines():
    """(pvm, embedding) of the two-parameter construction on spin 1/2, 1
    and 3/2 at two weights each, and of a commuting-SLD estimator."""
    out = [(construct_pvm_from_vectors(vectors), basis)
           for vectors, basis in _two_param_builds()]
    frame = sld_solve(zoo_canonical([0.0, 0.8, 1.7]), np.array([1.1]))
    out.append((commuting_sld_estimator(frame, info_geometry(frame)),
                np.eye(3, dtype=complex)))
    return out


class TestStackedPvm:
    """The stacked construction, validation and compression against the
    per-vector and per-projector loops they replace."""

    # fixed before measuring: compressed elements are bounded by 1, and
    # the stacked products may round differently from one 2-D product
    COMPRESS_TOL = 1e-14

    def test_pipelines_are_stacks(self):
        for pvm, _ in _pipelines():
            d = pvm.ambient_dim
            assert pvm.projectors.shape == (len(pvm.estimates), d, d)
            pvm.validate()
            _validate_loop(pvm.projectors, d)

    def test_compression_matches_the_loop(self):
        for pvm, embedding in _pipelines():
            got, has_rem = naimark_compress(pvm, embedding)
            want = _naimark_loop(pvm, embedding)
            assert got.shape == want.shape
            assert has_rem == (len(got) > len(pvm.projectors))
            assert np.max(np.abs(got - want)) <= self.COMPRESS_TOL

    def test_construction_matches_the_loop(self):
        frame = frame_at(zoo_squeezed(trunc_dim=64),
                         np.array([0.1, -0.05, 0.3, 0.2]))
        geom = info_geometry(frame)
        coherent = attainable_bound(geom, WeightMatrix.from_matrix(np.eye(4)),
                                    True)
        assert coherent.method == "coherent"
        builds = [vectors for vectors, _ in _two_param_builds()]
        builds.append(optimal_vectors(frame, coherent)[0])
        for vectors in builds:
            pvm = construct_pvm_from_vectors(vectors)
            projectors, estimates = _gram_schmidt_loop(vectors)
            assert np.max(np.abs(pvm.projectors - projectors)) <= 1e-13
            assert np.max(np.abs(pvm.estimates - estimates)) <= 1e-13

    @staticmethod
    def _qutrit_stack(defect=None):
        """A 3-outcome qutrit PVM, with one defect of the given kind."""
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3))
                            + 1j * rng.standard_normal((3, 3)))
        projs = q.T[:, :, None] * q.T.conj()[:, None, :]
        if defect == "Hermitian":
            projs[1, 0, 2] += 1e-8
        elif defect == "idempotent":
            projs[1] *= 1.0 + 1e-8
        elif defect == "sum to identity":
            projs = projs[:2]
        return projs

    @pytest.mark.parametrize("defect", ["Hermitian", "idempotent",
                                        "sum to identity"])
    def test_spoiled_stack_raises(self, defect):
        projs = self._qutrit_stack(defect)
        with pytest.raises(ValidationError, match=defect):
            _validate_loop(projs, 3)
        pvm = PvmEstimator(projectors=projs,
                           estimates=np.zeros((len(projs), 1)), ambient_dim=3)
        with pytest.raises(ValidationError, match=defect):
            pvm.validate()

    def test_clean_stack_passes(self):
        projs = self._qutrit_stack()
        _validate_loop(projs, 3)
        PvmEstimator(projectors=list(projs), estimates=np.zeros((3, 1)),
                     ambient_dim=3).validate()


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


class TestNanResidualFails:
    """A NaN residual fails its check: each of these inputs passed every
    comparison written as ``residual > tol``."""

    @pytest.mark.parametrize("where", ["one_entry", "whole_stack"])
    def test_projector_stack(self, where):
        # a (T, K, d, d) stack of two complete qutrit PVMs
        clean = np.array([basis_projectors(3)] * 2)
        _check_pvm(clean, 3)
        projs = clean.copy()
        if where == "one_entry":
            projs[1, 2, 0, 1] = np.nan
        else:
            projs[:] = np.nan
        with pytest.raises(ValidationError, match="projector not Hermitian"):
            _check_pvm(projs, 3)

    def test_vector_stack(self):
        # rows (phi, L) = (e_0, [e_1, e_2]) with X = L and V = I pass
        phi_e = np.eye(3, dtype=complex)[None, 0]
        l_e = np.eye(3, dtype=complex)[None, :, 1:]
        v_opt = np.eye(2)[None]
        _verify_stack(phi_e, l_e, l_e.copy(), v_opt)
        with pytest.raises(InternalConsistencyError, match=r"Re X\*L != I"):
            _verify_stack(phi_e, l_e, np.full_like(l_e, np.nan), v_opt)
