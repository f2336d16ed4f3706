import dataclasses
import warnings

import numpy as np
import pytest

import qest.cli
import qest.simulate as simulate
from qest.bounds import WeightMatrix
from qest.geometry import info_geometry
from qest.models import frame_at, zoo_pm_shift, zoo_spin_coherent
from qest.operators import ValidationError
from qest.simulate import (
    QmleConfig,
    _log_likelihood_factory,
    _maximize,
    simulate_gqmle,
    time_energy_report,
)
from qmle_reference import reference_gqmle

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


class TestTimeEnergyReport:
    def test_rabi_escape_probability(self):
        # H = (omega/2) sigma_x on |0>: w(dt) = sin^2(omega dt / 2)
        omega = 1.3
        dt = 0.4
        rep = time_energy_report(0.5 * omega * SIGMA_X,
                                 np.array([1.0, 0.0]), dt, 10)
        assert abs(rep.w - np.sin(omega * dt / 2) ** 2) <= 1e-12
        assert abs(rep.js - omega**2) <= 1e-10

    def test_survival_measurement_saturates_js(self):
        rng = np.random.default_rng(8)
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = z + z.conj().T
        psi0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        rep = time_energy_report(h, psi0, 0.05, 20, hbar=0.7)
        assert abs(rep.j_mms - rep.js) <= 1e-8 * max(1.0, rep.js)

    def test_w_ratio_second_order(self):
        # w / (dt^2 <dH^2>/hbar^2) -> 1 at second order in dt
        omega = 0.9
        h = 0.5 * omega * SIGMA_X
        psi0 = np.array([1.0, 0.0])
        errs = []
        for dt in [0.2, 0.1, 0.05]:
            rep = time_energy_report(h, psi0, dt, 5)
            errs.append(abs(rep.w_ratio - 1.0))
        assert errs[1] <= 0.3 * errs[0]
        assert errs[2] <= 0.3 * errs[1]

    def test_regime_flag(self):
        h = 0.5 * SIGMA_X
        psi0 = np.array([1.0, 0.0])
        assert time_energy_report(h, psi0, 0.1, 3).quadratic_regime
        assert not time_energy_report(h, psi0, 2.5, 3).quadratic_regime

    def test_power_monotone_in_n(self):
        h = 0.5 * SIGMA_X
        psi0 = np.array([1.0, 0.0])
        p = [time_energy_report(h, psi0, 0.3, n).power_approx
             for n in (1, 5, 25)]
        assert p[0] < p[1] < p[2]


class TestSimulateGqmle:
    def test_smoke_within_band(self):
        model = zoo_spin_coherent(0.5, 0.5)
        theta = np.array([1.0, 0.4])
        weight = WeightMatrix.from_matrix(
            np.array([[1.0, 0.0], [0.0, np.sin(theta[0]) ** -2]]))
        cfg = QmleConfig(n_samples=120, trials=12, seed=7, reopt_every=20)
        res = simulate_gqmle(model, theta, weight, cfg)
        assert res.excluded_trials == 0
        assert res.theta_hats.shape == (12, 2)
        # loose Monte-Carlo band around the attainable value
        assert res.cr_value * 0.4 <= res.scaled_risk <= res.cr_value * 3.0

    def test_fixed_measurement_baseline(self):
        model = zoo_spin_coherent(0.5, 0.5)
        theta = np.array([1.0, 0.4])
        weight = WeightMatrix.from_matrix(np.eye(2))
        cfg = QmleConfig(n_samples=120, trials=10, seed=9, reopt_every=20,
                         fixed_measurement=True)
        res = simulate_gqmle(model, theta, weight, cfg)
        assert res.excluded_trials == 0
        assert np.isfinite(res.scaled_risk)
        assert np.allclose(res.mse, res.mse.T)
        # the fixed measurement cannot identify theta globally, so a few
        # trials land on distant likelihood modes; most must stay local
        dev = np.linalg.norm(res.theta_hats - theta, axis=1)
        assert np.median(dev) <= 0.3

    def test_refits_once_per_interval(self, monkeypatch):
        # N = 50 with reopt 20: refits at 20, 40 and 50 samples, each one
        # stacked fit of both trials over their counted records
        sizes, grids = [], []
        factory, maximize = (simulate._log_likelihood_factory,
                             simulate._maximize)

        def counting_factory(model, elements, counts):
            sizes.append(counts.sum(axis=1).tolist())
            return factory(model, elements, counts)

        def counting_maximize(loglik, theta0, radius, grid_points):
            grids.append((len(theta0), grid_points))
            return maximize(loglik, theta0, radius, grid_points)

        monkeypatch.setattr(simulate, "_log_likelihood_factory",
                            counting_factory)
        monkeypatch.setattr(simulate, "_maximize", counting_maximize)
        model = zoo_spin_coherent(0.5, 0.5)
        cfg = QmleConfig(n_samples=50, trials=2, seed=3, reopt_every=20)
        res = simulate_gqmle(model, np.array([1.0, 0.4]),
                             WeightMatrix.from_matrix(np.eye(2)), cfg)
        assert res.excluded_trials == 0
        assert sizes == [[20, 20], [40, 40], [50, 50]]
        assert grids == [(2, simulate.GRID_POINTS), (2, 1), (2, 1)]

    def test_model_without_batched_states(self):
        model = zoo_pm_shift(1, trunc_dim=32)
        assert model.states_at is None
        theta = np.array([0.3, -0.2])
        cfg = QmleConfig(n_samples=40, trials=3, seed=5, reopt_every=10)
        res = simulate_gqmle(model, theta,
                             WeightMatrix.from_matrix(np.eye(2)), cfg)
        assert res.excluded_trials == 0
        assert res.theta_hats.shape == (3, 2)
        assert np.isfinite(res.scaled_risk)
        assert np.max(np.abs(res.theta_hats - theta)) <= 1.0

    def test_all_trials_excluded(self):
        # at theta_1 = 3.6 every trial's refits leak out of the n = 0
        # oscillator's 32 Fock levels, so no trial survives
        model = zoo_pm_shift(0, trunc_dim=32)
        cfg = QmleConfig(n_samples=20, trials=3, seed=2024, reopt_every=10)
        with pytest.raises(ValidationError,
                           match="all 3 trials excluded: .*trunc_dim"):
            simulate_gqmle(model, np.array([3.6, 0.0]),
                           WeightMatrix.from_matrix(np.eye(2)), cfg)

    def test_rejects_unsupported_models(self):
        from conftest import great_circle_model
        with pytest.raises(ValidationError):
            simulate_gqmle(great_circle_model(), np.array([0.5]),
                           WeightMatrix.from_matrix(np.eye(1)), QmleConfig())

    def test_rejects_rank_one_weight(self):
        # no finite optimal measurement exists to build at each estimate
        with pytest.raises(ValidationError, match="strictly positive"):
            simulate_gqmle(zoo_spin_coherent(0.5, 0.5), np.array([1.0, 0.4]),
                           WeightMatrix.from_matrix(np.diag([1.0, 0.0])),
                           QmleConfig(n_samples=20, trials=2))

    def test_rejects_overflowing_weight(self):
        # twice the SLD floor of G = 1e308 I overflows: refused at entry as
        # bad input, before any closed form warns or fails its check
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="SLD floor"):
                simulate_gqmle(zoo_spin_coherent(1.5, 0.5),
                               np.array([0.3, 0.7]),
                               WeightMatrix.from_matrix(1e308 * np.eye(2)),
                               QmleConfig(n_samples=20, trials=2))

    def test_accepts_js_weight_near_pole(self):
        # G = J^S is not strict within ~1e-6 of a pole, but its normalized
        # weight is I: the two-parameter optimum exists and is measured
        model, theta = zoo_spin_coherent(1.0, 1.0), np.array([1e-6, 0.7])
        weight = WeightMatrix.from_matrix(
            info_geometry(frame_at(model, theta)).JS)
        assert not weight.strict
        res = simulate_gqmle(model, theta, weight,
                             QmleConfig(n_samples=20, trials=2))
        assert res.cr_value == pytest.approx(4.0, rel=1e-12)
        assert len(res.theta_hats) + res.excluded_trials == 2


def _scalar_log_likelihood_factory(model, elements):
    """Reference: one state and one contraction per point."""

    def loglik(theta):
        phi = model.state(theta).vector
        p = np.einsum("a,nab,b->n", phi.conj(), elements, phi).real
        return float(np.sum(np.log(np.clip(p, 1e-300, None))))

    return loglik


def _one_trial(loglik):
    """A single-trial likelihood of (P, m) points as the stacked
    ``loglik(points, rows)`` that ``_maximize`` calls."""
    return lambda points, rows: np.array([loglik(p) for p in points])


class TestBatchedLikelihood:
    @staticmethod
    def _record(rng, n, d):
        """Random PSD elements of rank 1 and 2, and one zero element."""
        out = []
        for k in range(n):
            a = (rng.standard_normal((d, 1 + k % 2))
                 + 1j * rng.standard_normal((d, 1 + k % 2)))
            out.append(a @ a.conj().T / (2 * d))
        out[n // 2] = np.zeros((d, d))
        return np.array(out)

    @pytest.mark.parametrize("s", [0.5, 1.5])
    @pytest.mark.parametrize("points", [1, 50])
    def test_matches_scalar_reference(self, s, points):
        # two trials' counted records: distinct elements with their counts
        # against the raw records that repeat each element that often; the
        # empty slot of the shorter record counts 0
        model = zoo_spin_coherent(s, s)
        rng = np.random.default_rng(int(4 * s) + points)
        distinct = self._record(rng, 40, model.dim)
        counts = rng.integers(1, 4, (2, 40)).astype(float)
        counts[1, -1] = 0.0
        thetas = rng.uniform(-3.0, 3.0, (2, points, 2))
        loglik = _log_likelihood_factory(
            model, np.stack([distinct, distinct[::-1]]), counts)
        batched = loglik(thetas, np.array([0, 1]))
        assert batched.shape == (2, points)
        for t, elements in enumerate((distinct, distinct[::-1])):
            raw = np.repeat(elements, counts[t].astype(int), axis=0)
            ref = _scalar_log_likelihood_factory(model, raw)
            assert np.allclose(batched[t], [ref(x) for x in thetas[t]],
                               rtol=1e-12, atol=0)
            alone = loglik(thetas[t:t + 1], np.array([t]))
            assert np.allclose(alone[0], batched[t], rtol=1e-14, atol=0)

    def test_grid_ties_go_to_the_first_point_in_scan_order(self):
        radius = 0.3
        theta0 = np.array([1.0, -0.5])
        axis = np.linspace(-radius, radius, 7)
        # scan order: first axis slowest, as in meshgrid(indexing="ij")
        first = theta0 + np.array([axis[1], axis[4]])
        later = theta0 + np.array([axis[5], axis[0]])
        for peaks in ((first, later), (later, first)):
            def loglik(thetas, peaks=peaks):
                return np.array([
                    1.0 if min(np.max(np.abs(t - q)) for q in peaks) < 1e-12
                    else 0.0 for t in thetas])

            got = _maximize(_one_trial(loglik), theta0[None], radius, 7)
            assert np.array_equal(got, first[None])

    def test_centre_wins_a_flat_grid(self):
        theta0 = np.array([0.2, 0.4])
        flat = _maximize(_one_trial(lambda t: np.zeros(len(t))),
                         theta0[None], 0.3, 7)
        assert np.array_equal(flat, theta0[None])


class TestNewtonFit:
    """The fit converges before it stops, and each iteration takes one
    batched likelihood call for every trial still iterating."""

    @staticmethod
    def _counted(loglik):
        calls = []

        def counted(points, rows):
            calls.append(points.shape[1])
            return np.array([loglik(p) for p in points])

        return counted, calls

    def test_concave_quadratic_in_at_most_three_calls(self):
        peak = np.array([0.31, -0.17])
        a = np.array([[3.0, 1.2], [1.2, 2.0]])

        def quadratic(thetas):
            d = thetas - peak
            return -0.5 * np.einsum("pi,ij,pj->p", d, a, d)

        loglik, calls = self._counted(quadratic)
        got = _maximize(loglik, np.array([[0.1, 0.2]]), 0.7, 1)
        assert np.max(np.abs(got[0] - peak)) <= 1e-7
        assert len(calls) <= 3
        assert set(calls) == {len(simulate._stencil(2))}

    def test_flat_and_tied_likelihoods_end_at_once(self):
        theta0 = np.array([0.2, 0.4])
        flat, calls = self._counted(lambda t: np.zeros(len(t)))
        assert np.array_equal(_maximize(flat, theta0[None], 0.3, 7),
                              theta0[None])
        assert calls == [50, 9]     # the grid, then one stencil

        def spike(thetas):
            return (np.max(np.abs(thetas - theta0), axis=1) < 1e-12) * 1.0

        tied, calls = self._counted(spike)
        assert np.array_equal(_maximize(tied, theta0[None], 0.3, 1),
                              theta0[None])
        assert calls == [9]

    @pytest.mark.parametrize("n, reopt", [(60, 1), (200, 20)])
    def test_every_refit_converges(self, monkeypatch, n, reopt):
        # the Newton decrement g^T (-H)^{-1} g, recomputed at each returned
        # point of each trial from a fresh stencil, is at most the stop
        # constant
        decrements = []
        maximize = simulate._maximize

        def checked(loglik, theta0, radius, grid_points):
            hats = maximize(loglik, theta0, radius, grid_points)
            rows = np.arange(len(hats))
            values = loglik(hats[:, None] + simulate._stencil(2), rows)
            for f in values:
                _, grad, hess = simulate._derivatives(f, 2)
                assert np.linalg.eigvalsh(hess)[-1] < 0
                decrements.append(-grad @ np.linalg.solve(hess, grad))
            return hats

        monkeypatch.setattr(simulate, "_maximize", checked)
        model = zoo_spin_coherent(0.5, 0.5)
        cfg = QmleConfig(n_samples=n, trials=2, seed=11, reopt_every=reopt)
        simulate_gqmle(model, np.array([1.3, 2.1]),
                       WeightMatrix.from_matrix(np.eye(2)), cfg)
        assert len(decrements) == 2 * n // reopt
        assert max(decrements) <= simulate.DECREMENT_TOL


class TestLockstep:
    """The lockstep loop gives the estimates of the reference loop, which
    runs one trial after another over its raw record, to the 1e-6 of the
    regression pins, with the survivors in the same order."""

    SPIN_THETA = np.array([np.pi / 3, np.pi / 4])

    @staticmethod
    def _compare(model, theta, weight, cfg):
        res = simulate_gqmle(model, theta, weight, cfg)
        hats, exclusions, risk = reference_gqmle(model, theta, weight, cfg)
        assert res.theta_hats.shape == hats.shape
        assert np.max(np.abs(res.theta_hats - hats)) <= 1e-6
        assert abs(res.scaled_risk - risk) <= 1e-6 * max(1.0, risk)
        assert res.excluded_trials == len(exclusions)
        assert list(res.exclusions) == exclusions
        return res

    @pytest.mark.parametrize("n, reopt", [(60, 1), (200, 20)])
    def test_spin_half_matches_reference(self, n, reopt):
        model = zoo_spin_coherent(0.5, 0.5)
        weight = WeightMatrix.from_matrix(
            info_geometry(frame_at(model, self.SPIN_THETA)).JS)
        cfg = QmleConfig(n_samples=n, trials=5, seed=31, reopt_every=reopt)
        self._compare(model, self.SPIN_THETA, weight, cfg)

    def test_fixed_measurement_matches_reference(self):
        model = zoo_spin_coherent(0.5, 0.5)
        cfg = QmleConfig(n_samples=120, trials=5, seed=9, reopt_every=20,
                         fixed_measurement=True)
        self._compare(model, np.array([1.0, 0.4]),
                      WeightMatrix.from_matrix(np.eye(2)), cfg)

    def test_model_without_batched_states_matches_reference(self):
        model = zoo_pm_shift(1, trunc_dim=32)
        cfg = QmleConfig(n_samples=40, trials=3, seed=5, reopt_every=10)
        self._compare(model, np.array([0.3, -0.2]),
                      WeightMatrix.from_matrix(np.eye(2)), cfg)

    @staticmethod
    def _refusing(model, lo, hi):
        """``model`` refusing every state with theta^1 in (lo, hi), as a
        truncated model refuses a leaking state."""
        def check(thetas):
            t1 = np.asarray(thetas)[..., 0]
            if np.any((t1 > lo) & (t1 < hi)):
                raise ValidationError(f"theta^1 in the refused band "
                                      f"({lo}, {hi})")

        def states_at(thetas):
            check(thetas)
            return model.states_at(thetas)

        def state_at(theta):
            check(theta)
            return model.state_at(theta)

        return dataclasses.replace(model, states_at=states_at,
                                   state_at=state_at)

    def test_partial_exclusion(self):
        # the band lies between the points of the first refit's seed grid,
        # so only the trials whose later fits reach it are excluded, some in
        # their likelihood and some in the measurement built at their
        # estimate, whose finite differences reach 0.02 further; each
        # survivor keeps the reference loop's estimate and each excluded
        # trial the reference loop's exception
        model = self._refusing(zoo_spin_coherent(0.5, 0.5, fd_step=0.02),
                               1.15, 1.2)
        weight = WeightMatrix.from_matrix(
            info_geometry(frame_at(model, self.SPIN_THETA)).JS)
        cfg = QmleConfig(n_samples=200, trials=10, seed=3, reopt_every=20)
        res = self._compare(model, self.SPIN_THETA, weight, cfg)
        assert [t for t, _ in res.exclusions] == [1, 2, 3, 6, 9]

    def test_csv_labels_the_surviving_trials(self, monkeypatch, capsys):
        # the model of test_partial_exclusion, through the command line:
        # each CSV row carries its own trial's index, not its rank
        model = self._refusing(zoo_spin_coherent(0.5, 0.5, fd_step=0.02),
                               1.15, 1.2)
        monkeypatch.setattr(qest.cli, "_load_model",
                            lambda args: (model, self.SPIN_THETA))
        assert qest.cli.run([
            "simulate-qmle", "--model", "refusing.json", "--weight", "js",
            "--samples", "200", "--trials", "10", "--seed", "3",
            "--reopt-every", "20", "--format", "csv"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [int(row.split(",")[0]) for row in rows] == [0, 4, 5, 7, 8]

    def test_partial_exclusion_at_the_leakage_edge(self, monkeypatch):
        # near the n = 0 oscillator's leakage edge in 32 Fock levels one
        # trial's refits leak out of the truncation and the others' do
        # not.  The fits there are so ill-conditioned that summing the same
        # record in another order moves estimates by up to 0.7, so the
        # stack is compared with each trial run alone
        model = zoo_pm_shift(0, trunc_dim=32)
        theta = np.array([2.9, 0.0])
        weight = WeightMatrix.from_matrix(np.eye(2))
        cfg = QmleConfig(n_samples=60, trials=10, seed=2024, reopt_every=6)
        res = simulate_gqmle(model, theta, weight, cfg)
        assert res.excluded_trials == 1
        assert "trunc_dim" in res.exclusions[0][1]
        monkeypatch.setattr(simulate, "RECORD_BUDGET", 1)
        alone = simulate_gqmle(model, theta, weight, cfg)
        assert alone.exclusions == res.exclusions
        assert np.max(np.abs(alone.theta_hats - res.theta_hats)) <= 1e-6

    def test_chunks_of_one_trial_match_one_chunk(self, monkeypatch):
        model = zoo_spin_coherent(0.5, 0.5)
        theta = np.array([1.0, 0.4])
        weight = WeightMatrix.from_matrix(np.eye(2))
        cfg = QmleConfig(n_samples=100, trials=4, seed=17, reopt_every=10)
        whole = simulate_gqmle(model, theta, weight, cfg)
        # a budget below one trial's record forces one trial per chunk
        monkeypatch.setattr(simulate, "RECORD_BUDGET", 1)
        chunked = simulate_gqmle(model, theta, weight, cfg)
        assert np.max(np.abs(chunked.theta_hats - whole.theta_hats)) <= 1e-6
        assert chunked.excluded_trials == whole.excluded_trials == 0

    @pytest.mark.parametrize("stage", ["build", "likelihood"])
    def test_stacked_failure_retried_row_by_row(self, monkeypatch, stage):
        # a stacked refit build or likelihood that refuses every stack of
        # more than one row: each row then runs alone and succeeds, so no
        # trial is excluded and the estimates are the stacked run's
        model = zoo_spin_coherent(0.5, 0.5)
        theta = np.array([1.0, 0.4])
        weight = WeightMatrix.from_matrix(np.eye(2))
        cfg = QmleConfig(n_samples=100, trials=4, seed=17, reopt_every=10)
        whole = simulate_gqmle(model, theta, weight, cfg)
        refused = []

        def one_row_only(rows):
            if rows > 1:
                refused.append(rows)
                raise ValidationError(f"refused a stack of {rows} rows")

        build = simulate._measurement_stack
        factory = simulate._log_likelihood_factory

        def refusing_build(model, thetas, weight):
            one_row_only(len(thetas))
            return build(model, thetas, weight)

        def refusing_factory(model, elements, counts):
            loglik = factory(model, elements, counts)

            def refusing(points, rows):
                one_row_only(len(points))
                return loglik(points, rows)

            return refusing

        if stage == "build":
            monkeypatch.setattr(simulate, "_measurement_stack",
                                refusing_build)
        else:
            monkeypatch.setattr(simulate, "_log_likelihood_factory",
                                refusing_factory)
        alone = simulate_gqmle(model, theta, weight, cfg)
        assert refused
        assert alone.exclusions == ()
        assert np.max(np.abs(alone.theta_hats - whole.theta_hats)) <= 1e-6


class TestQmleRegression:
    """Spin 1/2, G = J^S at theta = (pi/3, pi/4), N = 60, 3 trials, seed 2024.

    The expected values come from fits that run until the Newton decrement
    is at most ``DECREMENT_TOL``.  None of these estimates is an alias, so
    the chart map leaves them as they are.
    """

    THETA = np.array([np.pi / 3, np.pi / 4])
    EXPECTED = {
        1: ([[0.9608615445715909, 0.6539842724534606],
             [1.4837453841827466, 0.7851096929756575],
             [0.9868499785588165, 1.2935170129550393]], 8.165211809251936),
        20: ([[1.339718204833747, 0.5053243376870894],
              [1.4077701536868694, 0.7737772404501542],
              [1.1980155997734678, 1.198681740518809]], 8.507235997135066),
    }

    @staticmethod
    def _run(model, theta, seed, reopt):
        weight = WeightMatrix.from_matrix(
            info_geometry(frame_at(model, theta)).JS)
        cfg = QmleConfig(n_samples=60, trials=3, seed=seed, reopt_every=reopt)
        return simulate_gqmle(model, theta, weight, cfg)

    @pytest.mark.parametrize("reopt", [1, 20])
    def test_pinned_estimates(self, reopt):
        res = self._run(zoo_spin_coherent(0.5, 0.5), self.THETA, 2024, reopt)
        hats, risk = self.EXPECTED[reopt]
        assert res.excluded_trials == 0
        assert np.max(np.abs(res.theta_hats - np.array(hats))) <= 1e-6
        assert abs(res.scaled_risk - risk) <= 1e-6

    def test_estimates_reported_in_chart_of_theta_true(self):
        # at seed 7 the first trial converges to (-0.99, 3.45), an alias
        # of the true point that the chart map moves back next to it
        model = zoo_spin_coherent(0.5, 0.5)
        no_chart = dataclasses.replace(model, meta={
            k: v for k, v in model.meta.items() if k != "canonicalize"})
        res = self._run(model, self.THETA, 7, 1)
        raw = self._run(no_chart, self.THETA, 7, 1)
        canon = model.meta["canonicalize"]
        canonical = np.array([canon(h, self.THETA) for h in raw.theta_hats])
        assert np.max(np.abs(raw.theta_hats - canonical)) > 1.0
        assert np.array_equal(res.theta_hats, canonical)
        assert np.max(np.abs(res.theta_hats - self.THETA)) <= 0.5
        assert res.scaled_risk < 0.1 * raw.scaled_risk

    def test_round_off_in_the_weight_does_not_move_estimates(self):
        # G and G (1 + 4e-15) build measurements that differ by round-off;
        # converged fits keep the estimates within 1e-8 of each other
        model = zoo_spin_coherent(0.5, 0.5)
        g = info_geometry(frame_at(model, self.THETA)).JS
        cfg = QmleConfig(n_samples=60, trials=2, seed=2, reopt_every=1)
        a, b = (simulate_gqmle(model, self.THETA,
                               WeightMatrix.from_matrix(w), cfg)
                for w in (g, g * (1 + 4e-15)))
        assert np.max(np.abs(a.theta_hats - b.theta_hats)) <= 1e-8
