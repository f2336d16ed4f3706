import numpy as np
import pytest

from conftest import great_circle_model, synthetic_lift_model
from qest.bounds import BoundResult, WeightMatrix, cr_two_param, sld_bound
from qest.geometry import info_geometry
from qest.measurements import construct_pvm_from_vectors, optimal_vectors
from qest.models import (ParametricModel, _embed_frame, frame_at,
                         zoo_spin_coherent, zoo_squeezed)
from qest.operators import (DERIV_FLOOR, PROB_FLOOR, InternalConsistencyError,
                            ValidationError, pure_state)
import qest.oracle as oracle_module
from qest.oracle import (ANGLE_DECAY, INIT_ANGLE, SearchConfig,
                         _random_unitary, _risks,
                         oracle_min_weighted_variance, verify_bound)

FAST = SearchConfig(restarts=8, local_steps=600, seed=11)


def _risk_of_basis(basis, phi_e, l_e, g):
    """Reference: the scalar risk Tr G J_M^{-1} of one rank-one PVM (the
    columns of ``basis``), evaluated outcome by outcome; inf when singular."""
    amp = basis.conj().T @ phi_e          # <b_k|phi>
    damp = basis.conj().T @ l_e           # <b_k|l_i>
    p = np.abs(amp) ** 2
    dp = (damp * amp[:, None].conj()).real.T    # dp[i,k] = Re <l_i|b_k><b_k|phi>
    live = p > PROB_FLOOR
    if np.any(~live & (np.max(np.abs(dp), axis=0) > DERIV_FLOOR)):
        return np.inf
    sel = dp[:, live] / np.sqrt(p[live])
    jm = sel @ sel.T
    sign, logdet = np.linalg.slogdet(jm)
    if sign <= 0 or logdet < -60:
        return np.inf
    return float(np.trace(g @ np.linalg.inv(jm)))


def _risks_of_bases(bases, phi_e, l_e, g):
    amps = bases.conj().transpose(0, 2, 1) @ np.column_stack([phi_e, l_e])
    return _risks(amps[..., 0], amps[..., 1:], g)


def _embedded(model, theta, dim=None):
    frame = frame_at(model, theta)
    dim = dim if dim is not None else SearchConfig().resolved_dim(frame.m)
    _, phi_e, l_e = _embed_frame(frame, dim)
    return phi_e, l_e


def real_sphere_model():
    def state_at(theta):
        v = np.array([np.cos(theta[0]),
                      np.sin(theta[0]) * np.cos(theta[1]),
                      np.sin(theta[0]) * np.sin(theta[1])], dtype=complex)
        return pure_state(v)

    return ParametricModel(kind="real_sphere", dim=3, m=2, state_at=state_at)


def pvm_as_warm_start(pvm, embedding, frame, dim):
    """Express an optimal PVM (built in the pipeline's dilated coordinates)
    as a basis in the oracle's dilated coordinates."""
    cols = []
    for proj in pvm.projectors:
        w, u = np.linalg.eigh(proj)
        for k in range(len(w)):
            if w[k] > 0.5:
                cols.append(u[:, k])
    b = np.column_stack(cols)
    assert b.shape == (dim, dim)
    # oracle coordinates: QR of [phi, lifts]
    mat = np.column_stack([frame.phi] + list(frame.lifts))
    q, r = np.linalg.qr(mat)
    q = q[:, np.abs(np.diag(r)) > 1e-12 * max(1.0, np.max(np.abs(r)))]
    k = q.shape[1]
    w_full = np.eye(dim, dtype=complex)
    w_full[:k, :k] = q.conj().T @ embedding
    return w_full @ b


class TestOracleSearch:
    def test_one_parameter_qubit_converges(self):
        model = great_circle_model()
        res = oracle_min_weighted_variance(
            frame_at(model, np.array([np.pi / 3])), np.eye(1), FAST)
        assert res.best_value >= 1.0 - 1e-9
        assert res.best_value <= 1.0 + 1e-6

    def test_quasi_classical_reaches_sld_floor(self):
        model = real_sphere_model()
        theta = np.array([0.7, 0.4])
        frame = frame_at(model, theta)
        geom = info_geometry(frame)
        floor = float(np.trace(np.linalg.inv(geom.JS)))
        res = oracle_min_weighted_variance(frame, np.eye(2), FAST)
        assert res.best_value >= floor - 1e-9
        assert res.best_value <= floor * 1.005

    def test_seeded_determinism(self):
        model = zoo_spin_coherent(0.5, 0.5)
        theta = np.array([1.0, 0.4])
        cfg = SearchConfig(restarts=3, local_steps=150, seed=42)
        frame = frame_at(model, theta)
        r1 = oracle_min_weighted_variance(frame, np.eye(2), cfg)
        r2 = oracle_min_weighted_variance(frame, np.eye(2), cfg)
        assert r1.best_value == r2.best_value
        assert np.array_equal(r1.best_basis, r2.best_basis)

    def test_dilate_dim_flag(self):
        model = great_circle_model()
        cfg = SearchConfig(restarts=2, local_steps=100, seed=5, dilate_dim=4)
        frame = frame_at(model, np.array([0.8]))
        res = oracle_min_weighted_variance(frame, np.eye(1), cfg)
        assert res.best_basis.shape == (4, 4)
        bad = SearchConfig(restarts=1, local_steps=1, seed=5, dilate_dim=1)
        with pytest.raises(ValidationError):
            oracle_min_weighted_variance(frame, np.eye(1), bad)


class TestRisks:
    """The batched risk against the scalar reference."""

    @pytest.mark.parametrize("d,m", [(3, 1), (4, 1), (5, 2), (6, 2),
                                     (7, 3), (8, 3), (9, 4), (9, 2)])
    def test_matches_scalar_reference(self, d, m):
        rng = np.random.default_rng(100 * d + m)
        phi_e = np.zeros(d, dtype=complex)
        phi_e[0] = 1.0
        l_e = np.zeros((d, m), dtype=complex)
        l_e[1:] = rng.standard_normal((d - 1, m)) \
            + 1j * rng.standard_normal((d - 1, m))
        a = rng.standard_normal((m, m))
        g = a @ a.T + 0.1 * np.eye(m)           # non-diagonal weight
        bases = np.array([_random_unitary(rng, d) for _ in range(3)])
        got = _risks_of_bases(bases, phi_e, l_e, g)
        want = [_risk_of_basis(b, phi_e, l_e, g) for b in bases]
        assert np.all(np.isfinite(want))
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    def test_singular_and_dead_outcomes_are_inf(self):
        rng = np.random.default_rng(7)
        d, m = 5, 2
        phi_e = np.zeros(d, dtype=complex)
        phi_e[0] = 1.0
        l_e = np.zeros((d, m), dtype=complex)
        l_e[1:] = rng.standard_normal((d - 1, m)) \
            + 1j * rng.standard_normal((d - 1, m))
        g = np.array([[2.0, 0.3], [0.3, 1.0]])
        # the standard basis: only outcome 0 is live and it carries no
        # information (l is orthogonal to phi), so J_M = 0
        singular = np.eye(d, dtype=complex)
        # first column almost orthogonal to phi: p_0 < PROB_FLOOR while
        # dp_0 > DERIV_FLOOR
        eps = 1e-7
        col = np.zeros(d, dtype=complex)
        col[0], col[1] = eps, np.sqrt(1 - eps ** 2)
        dead, _ = np.linalg.qr(np.column_stack(
            [col, rng.standard_normal((d, d - 1))]).astype(complex))
        dead[:, 0] = col
        amp = dead.conj().T @ phi_e
        dp = (dead.conj().T @ l_e * amp[:, None].conj()).real
        assert abs(amp[0]) ** 2 <= PROB_FLOOR
        assert np.max(np.abs(dp[0])) > DERIV_FLOOR
        live = _random_unitary(rng, d)
        bases = np.array([live, singular, dead])
        got = _risks_of_bases(bases, phi_e, l_e, g)
        want = [_risk_of_basis(b, phi_e, l_e, g) for b in bases]
        assert want[1] == np.inf and want[2] == np.inf
        assert got[1] == np.inf and got[2] == np.inf
        assert np.isclose(got[0], want[0], rtol=1e-12, atol=0.0)


class TestBatchedSearch:
    CASES = [
        (zoo_spin_coherent(0.5, 0.5), np.array([1.0, 0.4]), "js"),
        (zoo_spin_coherent(1.5, 0.5), np.array([0.9, 2.0]), "js"),
        (real_sphere_model(), np.array([0.7, 0.4]), "identity"),
        (great_circle_model(), np.array([0.8]), "identity"),
        (*synthetic_lift_model(np.array([[0.0, -0.5, 0.2], [0.5, 0.0, -0.3],
                                         [-0.2, 0.3, 0.0]])), "identity"),
    ]

    @staticmethod
    def _weight(model, theta, kind):
        if kind == "js":
            return info_geometry(frame_at(model, theta)).JS.copy()
        return np.eye(model.m)

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_reports_the_risk_of_its_unitary_basis(self, case):
        model, theta, kind = self.CASES[case]
        g = self._weight(model, theta, kind)
        cfg = SearchConfig(restarts=4, local_steps=300, seed=3)
        res = oracle_min_weighted_variance(frame_at(model, theta), g, cfg)
        b = res.best_basis
        assert np.max(np.abs(b.conj().T @ b - np.eye(len(b)))) <= 1e-10
        phi_e, l_e = _embedded(model, theta, len(b))
        ref = _risk_of_basis(b, phi_e, l_e, g)
        assert abs(res.best_value - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_more_restarts_never_worse(self, case):
        model, theta, kind = self.CASES[case]
        g = self._weight(model, theta, kind)
        frame = frame_at(model, theta)
        values = [oracle_min_weighted_variance(
            frame, g,
            SearchConfig(restarts=r, local_steps=200, seed=19)).best_value
            for r in (1, 2, 4, 8)]
        assert all(b <= a for a, b in zip(values, values[1:]))


class TestWarmStart:
    def test_constructed_pvm_closes_the_gap(self):
        model = zoo_spin_coherent(0.5, 0.5)
        theta = np.array([1.0, 0.4])
        frame = frame_at(model, theta)
        geom = info_geometry(frame)
        g = geom.JS.copy()
        weight = WeightMatrix.from_matrix(g)
        bound = cr_two_param(geom, weight)
        vectors, embedding = optimal_vectors(frame, bound)
        pvm = construct_pvm_from_vectors(vectors)
        dim = SearchConfig().resolved_dim(frame.m)
        warm = pvm_as_warm_start(pvm, embedding, frame, dim)
        cfg = SearchConfig(restarts=2, local_steps=200, seed=3)
        report = verify_bound(frame, geom, weight, bound, cfg,
                              warm_start=warm)
        assert report["gap_above"] >= -1e-9
        assert report["gap_above"] <= 1e-8


@pytest.mark.research
def test_larger_dilation_does_not_improve():
    # conjecture probe: searching beyond 2m+1 dimensions should not beat
    # the closed-form optimum
    model = zoo_spin_coherent(0.5, 0.5)
    theta = np.array([1.0, 0.4])
    frame = frame_at(model, theta)
    geom = info_geometry(frame)
    g = geom.JS.copy()
    bound = cr_two_param(geom, WeightMatrix.from_matrix(g))
    cfg = SearchConfig(restarts=32, local_steps=1500, seed=2024, dilate_dim=7)
    res = oracle_min_weighted_variance(frame, g, cfg)
    assert res.best_value >= bound.cr_value - 1e-9


class TestVerifyBound:
    def test_report_fields(self):
        model = zoo_spin_coherent(0.5, 0.5)
        theta = np.array([1.0, 0.4])
        frame = frame_at(model, theta)
        geom = info_geometry(frame)
        weight = WeightMatrix.from_matrix(np.eye(2))
        bound = cr_two_param(geom, weight)
        report = verify_bound(frame, geom, weight, bound, FAST)
        assert report["oracle_value"] >= report["cr_value"] - 1e-9
        assert not report["floor_violation"]
        assert report["relative_gap"] >= -1e-12
        assert report["sld_floor"] <= report["cr_value"] + 1e-12

    def test_without_closed_form_reports_the_floor_only(self):
        model, theta = synthetic_lift_model(
            np.array([[0.0, -0.5, 0.2], [0.5, 0.0, -0.3], [-0.2, 0.3, 0.0]]))
        frame = frame_at(model, theta)
        geom = info_geometry(frame)
        weight = WeightMatrix.from_matrix(np.eye(3))
        report = verify_bound(frame, geom, weight, None, FAST)
        assert set(report) == {"oracle_value", "sld_floor",
                               "floor_violation", "result"}
        assert abs(report["sld_floor"] - 3.0) <= 1e-9    # Tr J^{S-1}, J^S = I
        assert report["oracle_value"] >= report["sld_floor"]
        assert not report["floor_violation"]

    def test_bound_above_reachable_value_raises(self):
        model = zoo_spin_coherent(0.5, 0.5)
        theta = np.array([1.0, 0.4])
        frame = frame_at(model, theta)
        geom = info_geometry(frame)
        weight = WeightMatrix.from_matrix(np.eye(2))
        reached = verify_bound(frame, geom, weight, None, FAST)["oracle_value"]
        too_high = BoundResult(cr_value=1.5 * reached, method="two_param")
        with pytest.raises(InternalConsistencyError, match="undercuts"):
            verify_bound(frame, geom, weight, too_high, FAST)


def _reference_search(frame, g, cfg, warm_start=None):
    """The hill climb as one synchronized step per proposal: every restart
    scores one proposal per step, all restarts in one batch.  Returns
    (best_value, best_basis, singular_fraction)."""
    g = np.asarray(g, dtype=float)
    dim = cfg.resolved_dim(frame.m)
    _, phi_e, l_e = _embed_frame(frame, dim)
    vecs = np.column_stack([phi_e, l_e])

    starts = [(s, None)
              for s in np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)]
    if warm_start is not None:
        if warm_start.shape != (dim, dim):
            raise ValidationError("warm start has wrong dimension")
        starts.insert(0, (0, warm_start))
    steps = cfg.local_steps
    bases, draws = [], []
    for seed, start in starts:
        rng = np.random.default_rng(seed)
        bases.append(_random_unitary(rng, dim) if start is None
                     else start.astype(complex))
        draws.append((rng.integers(dim, size=steps),
                      rng.integers(1, dim, size=steps),
                      rng.standard_normal(steps),
                      rng.uniform(0.0, 2.0 * np.pi, size=steps)))
    cols_i, offsets, normals, phases = (np.array(x).T for x in zip(*draws))
    cols_j = (cols_i + offsets) % dim
    angles = INIT_ANGLE * ANGLE_DECAY ** np.arange(steps)[:, None] * normals
    cosines = np.cos(angles)[..., None]
    shifts = (np.sin(angles) * np.exp(1j * phases))[..., None]

    adj = np.array(bases).conj().transpose(0, 2, 1)
    held = np.concatenate([adj, adj @ vecs], axis=2)
    value = _risks(held[..., dim], held[..., dim + 1:], g)
    n_singular = int(np.sum(~np.isfinite(value)))
    rows = np.arange(len(starts))
    for t in range(steps):
        i, j, c, s = cols_i[t], cols_j[t], cosines[t], shifts[t]
        h_i, h_j = held[rows, i], held[rows, j]
        cand = held.copy()
        cand[rows, i] = c * h_i + s * h_j
        cand[rows, j] = c * h_j - s.conj() * h_i
        cand_value = _risks(cand[..., dim], cand[..., dim + 1:], g)
        better = cand_value < value
        held = np.where(better[:, None, None], cand, held)
        value = np.where(better, cand_value, value)

    amps = held[..., :dim] @ vecs
    value = _risks(amps[..., 0], amps[..., 1:], g)
    best = int(np.argmin(value))
    if not np.isfinite(value[best]):
        raise ValidationError(
            "all restarts singular: only the interval "
            "[Tr G J^{S-1}, inf) is available")
    return (float(value[best]), held[best, :, :dim].conj().T,
            n_singular / len(starts))


JT3 = np.array([[0.0, -0.5, 0.2], [0.5, 0.0, -0.3], [-0.2, 0.3, 0.0]])

# Search paths, forced through the cost model: the one the model picks,
# synchronized steps only, and rounds from the first look (every step) with
# the block size the model picks or a fixed block of 3 proposals.
PATHS = {
    "chosen": {},
    "never": {"SWITCH_MARGIN": 0.0},
    "first_check": {"_rounds_pay": lambda rate, active: True,
                    "CHECK_EVERY": 1},
    "first_check_k3": {"_rounds_pay": lambda rate, active: True,
                       "CHECK_EVERY": 1, "ROUND_COST": (1e9, 0.0),
                       "MAX_BLOCK": 3},
}


def _search_on(path, monkeypatch, frame, g, cfg, warm_start=None):
    with monkeypatch.context() as mp:
        for name, value in PATHS[path].items():
            mp.setattr(oracle_module, name, value)
        return oracle_min_weighted_variance(frame, g, cfg=cfg,
                                            warm_start=warm_start)


def _same(res, ref):
    return (res.best_value == ref[0]
            and np.array_equal(res.best_basis, ref[1])
            and res.singular_fraction == ref[2])


class TestSpeculativeRounds:
    """Every path of the search gives the bits of the synchronized steps."""

    CASES = [
        (zoo_spin_coherent(0.5, 0.5), np.array([1.0, 0.4]), "js", None),
        (zoo_spin_coherent(1.5, 0.5), np.array([0.9, 2.0]), "js", None),
        (real_sphere_model(), np.array([0.7, 0.4]), "identity", None),
        (great_circle_model(), np.array([0.8]), "identity", None),
        (*synthetic_lift_model(JT3), "identity", None),
        (zoo_squeezed(trunc_dim=64), np.array([0.1, -0.05, 0.3, 0.2]),
         "js", 9),
    ]

    @pytest.mark.parametrize("restarts", [1, 2, 5, 17])
    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_every_path_matches_the_synchronized_steps(self, case, restarts,
                                                       monkeypatch):
        model, theta, kind, dilate = self.CASES[case]
        frame = frame_at(model, theta)
        g = TestBatchedSearch._weight(model, theta, kind)
        rounds_run = 0
        for steps in (0, 1, 3, 7, 64, 301):
            for seed in (3, 2024):
                cfg = SearchConfig(restarts=restarts, local_steps=steps,
                                   seed=seed, dilate_dim=dilate)
                ref = _reference_search(frame, g, cfg)
                for path in PATHS:
                    res = _search_on(path, monkeypatch, frame, g, cfg)
                    assert _same(res, ref), (path, steps, seed)
                    if path == "never":
                        assert res.switch_step == steps
                    if path.startswith("first_check") and steps > 1:
                        assert res.switch_step == 1
                        rounds_run += 1
        assert rounds_run == 2 * 2 * 4

    @pytest.mark.parametrize("path", list(PATHS))
    def test_warm_and_infinite_risk_starts(self, path, monkeypatch):
        model = zoo_spin_coherent(0.5, 0.5)
        theta = np.array([1.0, 0.4])
        frame = frame_at(model, theta)
        geom = info_geometry(frame)
        g = geom.JS.copy()
        weight = WeightMatrix.from_matrix(g)
        bound = cr_two_param(geom, weight)
        vectors, embedding = optimal_vectors(frame, bound)
        dim = SearchConfig().resolved_dim(frame.m)
        warm = pvm_as_warm_start(construct_pvm_from_vectors(vectors),
                                 embedding, frame, dim)
        # the standard basis: phi is its first vector, so J_M = 0
        singular = np.eye(dim, dtype=complex)
        phi_e, l_e = _embedded(model, theta, dim)
        assert _risk_of_basis(singular, phi_e, l_e, g) == np.inf
        for start in (warm, singular):
            for steps in (7, 300):
                cfg = SearchConfig(restarts=3, local_steps=steps, seed=8)
                ref = _reference_search(frame, g, cfg, warm_start=start)
                res = _search_on(path, monkeypatch, frame, g, cfg,
                                 warm_start=start)
                assert _same(res, ref)
        assert res.singular_fraction == 0.25

    def test_interval_budget_switches_on_spin_not_on_explicit3(self):
        cfg = SearchConfig(restarts=16, local_steps=1000, seed=7)
        spin = frame_at(zoo_spin_coherent(0.5, 0.5), np.array([1.0, 0.5]))
        res = oracle_min_weighted_variance(spin, info_geometry(spin).JS, cfg)
        assert 0 < res.switch_step < cfg.local_steps
        explicit3 = frame_at(*synthetic_lift_model(JT3))
        res = oracle_min_weighted_variance(explicit3, np.eye(3), cfg)
        assert res.switch_step == cfg.local_steps
