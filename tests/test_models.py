import dataclasses

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import great_circle_model, rotation_qubit_draw
from qest import models
from qest.models import (
    ParametricModel,
    _spin_matrices,
    annihilation,
    explicit_model,
    frame_at,
    horizontal_lift,
    load_model_spec,
    sld_solve,
    tangents,
    zoo_canonical,
    zoo_pm_shift,
    zoo_spin_coherent,
    zoo_squeezed,
    zoo_time_evolution,
)
from qest.geometry import info_geometry
from qest.operators import ValidationError, pure_state

SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


class TestTangents:
    def test_great_circle_derivative(self):
        model = great_circle_model()
        (dphi,) = tangents(model, np.array([0.0]))
        assert np.max(np.abs(dphi - np.array([0.0, 0.5]))) <= 1e-8

    def test_constant_model_zero_tangent(self):
        model = ParametricModel(
            kind="const", dim=2, m=1,
            state_at=lambda th: pure_state(np.array([1.0, 0.0])))
        (dphi,) = tangents(model, np.array([0.3]))
        assert np.max(np.abs(dphi)) <= 1e-8

    def test_tangent_at_used_when_supplied(self):
        model = ParametricModel(
            kind="const", dim=2, m=1,
            state_at=lambda th: pure_state(np.array([1.0, 0.0])),
            tangent_at=lambda th: [np.array([0.0, 2.0])])
        (dphi,) = tangents(model, np.array([0.3]))
        assert np.array_equal(dphi, np.array([0.0, 2.0]))

    def test_step_halving_consistency(self):
        th = np.array([0.9, 1.3])
        coarse = zoo_spin_coherent(0.5, 0.5, fd_step=1e-4)
        fine = zoo_spin_coherent(0.5, 0.5, fd_step=1e-6)
        for a, b in zip(tangents(coarse, th), tangents(fine, th)):
            assert np.max(np.abs(a - b)) <= 1e-7


class TestHorizontalLift:
    def test_great_circle_lift(self):
        frame = horizontal_lift(great_circle_model(), np.array([0.0]))
        assert np.max(np.abs(frame.lifts[0] - np.array([0.0, 1.0]))) <= 1e-7

    def test_lift_orthogonal_to_base(self):
        for model, th in [
            (zoo_spin_coherent(1.0, 1.0), np.array([0.7, 2.0])),
            (zoo_pm_shift(0, trunc_dim=48), np.array([0.1, -0.2])),
        ]:
            frame = horizontal_lift(model, th)
            for l in frame.lifts:
                assert abs(np.vdot(frame.phi, l)) <= 1e-10

    def test_lift_reconstructs_density_derivative(self):
        model = zoo_spin_coherent(1.5, 0.5)
        th = np.array([1.1, 0.4])
        frame = horizontal_lift(model, th)
        h = 1e-5
        for i, l in enumerate(frame.lifts):
            tp, tm = th.copy(), th.copy()
            tp[i] += h
            tm[i] -= h
            drho = (model.state(tp).rho - model.state(tm).rho) / (2 * h)
            lift_form = 0.5 * (np.outer(l, frame.phi.conj())
                               + np.outer(frame.phi, l.conj()))
            assert np.max(np.abs(lift_form - drho)) <= 1e-6

    def test_one_state_evaluation_per_frame(self):
        model = zoo_spin_coherent(1.5, 0.5)
        theta = np.array([0.9, 2.0])
        calls = []

        def state_at(t):
            calls.append("state_at")
            return model.state_at(t)

        def states_at(ts):
            calls.append("states_at")
            return model.states_at(ts)

        counted = dataclasses.replace(model, state_at=state_at,
                                      states_at=states_at)
        frame = frame_at(counted, theta)
        # the centre is row 0 of the stack the finite differences come from
        assert calls == ["states_at"]
        phi = model.state(theta).vector
        assert np.array_equal(frame.phi, phi)
        want = [2.0 * (d - phi * np.vdot(phi, d))
                for d in tangents(model, theta)]
        assert all(np.array_equal(l, w) for l, w in zip(frame.lifts, want))

    def test_redundant_parameters_rejected(self):
        def state_at(theta):
            t = theta[0] + theta[1]   # both parameters move the same way
            return pure_state(np.array([np.cos(t / 2), np.sin(t / 2)],
                                       dtype=complex))

        model = ParametricModel(kind="redundant", dim=2, m=2,
                                state_at=state_at)
        with pytest.raises(ValidationError):
            horizontal_lift(model, np.array([0.2, 0.1]))


def _layout_case(name):
    """(model, theta) of one frame-layout case."""
    if name == "spin_half":        # states_at
        return zoo_spin_coherent(0.5, 0.5), np.array([1.0, 0.7])
    if name == "squeezed":         # state_at
        return zoo_squeezed(trunc_dim=32), np.array([0.1, -0.1, 0.2, 0.2])
    if name == "explicit":         # tangent_at
        return (explicit_model(np.array([0.6, 0.8j, 0.0]),
                               [np.array([0.0, 0.0, 0.5]),
                                np.array([0.0, 0.3j, 0.1])]),
                np.array([0.0, 0.0]))
    if name == "canonical":
        return zoo_canonical([0.0, 0.7, 1.3]), np.array([1.0])
    return rotation_qubit_draw(np.random.default_rng(4))


class TestFrameLayout:
    """A frame holds its tangent data as one complex array: (m, d) lifts of
    a pure model, (m, d, d) SLDs of a faithful one."""

    @pytest.mark.parametrize("name", ["spin_half", "squeezed", "explicit",
                                      "canonical", "rotation_qubit"])
    def test_frame_arrays(self, name):
        model, theta = _layout_case(name)
        frame = frame_at(model, theta)
        data = frame.lifts if model.pure else frame.slds
        shape = (model.m,) + (model.dim,) * (1 if model.pure else 2)
        assert isinstance(data, np.ndarray)
        assert data.dtype == complex and data.shape == shape
        assert frame.m == model.m

    @pytest.mark.parametrize("name", ["explicit", "spin_half"])
    def test_tangents_are_the_stack_row(self, name):
        model, theta = _layout_case(name)
        got = tangents(model, theta)
        assert isinstance(got, np.ndarray)
        assert np.array_equal(got,
                              models._pure_tangent_stack(model,
                                                         theta[None])[1][0])


class TestSldSolve:
    def test_qubit_sigma_z_family(self):
        from qest.operators import mixed_state

        def state_at(theta):
            return mixed_state(0.5 * (np.eye(2) + theta[0] * SIGMA_Z),
                               require_faithful=True)

        model = ParametricModel(kind="bloch_z", dim=2, m=1,
                                state_at=state_at, pure=False)
        frame = sld_solve(model, np.array([0.3]))
        l = frame.slds[0]
        # closed form: diagonal with entries 1/p_a
        expect = np.diag([1.0 / 1.3, -1.0 / 0.7])
        assert np.max(np.abs(l - expect)) <= 1e-6

    def test_not_faithful_rejected(self):
        from qest.operators import mixed_state

        def state_at(theta):
            return mixed_state(np.diag([1.0, 0.0]).astype(complex))

        model = ParametricModel(kind="rank1", dim=2, m=1,
                                state_at=state_at, pure=False)
        with pytest.raises(ValidationError):
            sld_solve(model, np.array([0.0]))

    def test_canonical_slds_diagonal(self):
        model = zoo_canonical([0.0, 0.8, 1.9])
        frame = sld_solve(model, np.array([1.2]))
        l = frame.slds[0]
        off = l - np.diag(np.diag(l))
        assert np.max(np.abs(off)) <= 1e-8


class TestSpinCoherent:
    def test_js_closed_form(self):
        th = np.array([np.pi / 3, np.pi / 4])
        geom = info_geometry(frame_at(zoo_spin_coherent(0.5, 0.5), th))
        assert np.max(np.abs(geom.JS - np.diag([1.0, 0.75]))) <= 1e-6

    def test_beta_values(self):
        th = np.array([1.0, 0.5])
        geom = info_geometry(frame_at(zoo_spin_coherent(0.5, 0.5), th))
        assert abs(geom.beta_pairs[0] - 1.0) <= 1e-8
        geom0 = info_geometry(frame_at(zoo_spin_coherent(1.0, 0.0), th))
        assert geom0.quasi_classical

    def test_invalid_arguments(self):
        with pytest.raises(ValidationError):
            zoo_spin_coherent(0.4, 0.4)
        with pytest.raises(ValidationError):
            zoo_spin_coherent(1.0, 2.0)

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 3.5])
    @pytest.mark.parametrize("hbar", [0.7, 1.0, 2.0])
    def test_state_matches_generator_exponential(self, s, hbar):
        # reference: exponentiate the generator at every theta^2
        sx, sy = _spin_matrices(s, hbar)
        dim = sx.shape[0]
        rng = np.random.default_rng(int(100 * s + 10 * hbar))
        thetas = np.concatenate([rng.uniform(-4.0, 7.0, (48, 2)),
                                 [[-0.3, -2.5], [9.0, 13.0]]])
        for m_z in (-s, s % 1, s):   # s % 1 is 0 for integer s
            model = zoo_spin_coherent(s, m_z, hbar=hbar)
            phi0 = np.zeros(dim, dtype=complex)
            phi0[int(round(s - m_z))] = 1.0
            for th in thetas:
                gen = np.sin(th[1]) * sx - np.cos(th[1]) * sy
                ref = pure_state(expm(1j * th[0] * gen) @ phi0)
                dev = np.max(np.abs(model.state(th).vector - ref.vector))
                assert dev <= 1e-13, (m_z, th, dev)

    @pytest.mark.parametrize("s,m_z,hbar", [(0.5, 0.5, 1.0), (1.5, -0.5, 0.7),
                                            (2.0, 0.0, 2.0)])
    @pytest.mark.parametrize("cell", [0, -1, 1, 2])
    def test_canonicalize_aliases_and_rays(self, s, m_z, hbar, cell):
        model = zoo_spin_coherent(s, m_z, hbar=hbar)
        canon = model.meta["canonicalize"]
        half = np.pi / hbar
        theta = np.array([cell * half + (0.3 if cell % 2 else 0.8) / hbar,
                          2.0])
        for alias in ([-theta[0], theta[1] + np.pi],
                      [theta[0], theta[1] + 2 * np.pi],
                      [theta[0] + 2 * half, theta[1]],
                      [-theta[0] - 4 * half, theta[1] - 3 * np.pi]):
            assert np.allclose(canon(np.array(alias), theta), theta,
                               rtol=0, atol=1e-12)
        rng = np.random.default_rng(4)
        for raw in rng.uniform(-9.0, 9.0, (40, 2)):
            mapped = canon(raw, theta)
            assert cell * half <= mapped[0] <= (cell + 1) * half
            assert theta[1] - np.pi < mapped[1] <= theta[1] + np.pi
            a, b = model.state(raw).vector, model.state(mapped).vector
            ov = np.vdot(b, a)
            assert np.max(np.abs(b * ov / abs(ov) - a)) <= 1e-12


    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 3.5])
    @pytest.mark.parametrize("hbar", [0.7, 1.0, 2.0])
    def test_states_rows_are_state_at(self, s, hbar):
        model = zoo_spin_coherent(s, s, hbar=hbar)
        thetas = np.random.default_rng(int(10 * s + hbar)).uniform(
            -4.0, 7.0, (50, 2))
        rows = model.states(thetas)
        assert rows.shape == (50, model.dim)
        assert np.array_equal(
            rows, np.array([model.state_at(t).vector for t in thetas]))

    def test_states_norm_checked_per_row(self):
        model = zoo_spin_coherent(1.0, 0.0)

        def one_bad_row(thetas):
            rows = model.states_at(thetas)
            rows[-1] *= 1.0 + 1e-9
            return rows

        thetas = np.array([[0.3, 0.1], [1.2, -0.4]])
        bad = dataclasses.replace(model, states_at=one_bad_row)
        with pytest.raises(ValidationError):
            bad.states(thetas)
        with pytest.raises(ValidationError):
            bad.states(thetas[::-1])
        # the batched form survives a replaced state_at
        wrapped = dataclasses.replace(model, state_at=model.state_at)
        assert wrapped.states_at is model.states_at


class TestSqueezed:
    def test_determinant_identity(self):
        model = zoo_squeezed(trunc_dim=64)
        th = np.array([0.1, -0.2, 0.3, 0.4])
        geom = info_geometry(frame_at(model, th))
        target = 4.0 * np.sinh(2 * th[2]) ** 2
        assert abs(abs(np.linalg.det(geom.JS)) - target) <= 1e-6 * target
        assert abs(abs(np.linalg.det(geom.Jtilde)) - target) <= 1e-6 * target

    def test_coherent_at_generic_point(self):
        model = zoo_squeezed(trunc_dim=64)
        geom = info_geometry(frame_at(model, np.array([0.05, 0.1, 0.25, 0.7])))
        assert geom.coherent

    def test_zero_squeezing_matches_displaced_vacuum(self):
        # theta3 = 0 exactly makes theta4 redundant; approach the limit
        hbar = 1.0
        model = zoo_squeezed(trunc_dim=64, hbar=hbar)
        th = np.array([0.15, -0.1, 0.01, 0.0])
        geom = info_geometry(frame_at(model, th))

        a = annihilation(64)
        x_op = np.sqrt(hbar / 2) * (a + a.conj().T)
        p_op = 1j * np.sqrt(hbar / 2) * (a.conj().T - a)
        vac = np.zeros(64, dtype=complex)
        vac[0] = 1.0

        def state_at(theta):
            z = (theta[0] + 1j * theta[1]) / (2 * np.sqrt(hbar))
            x0 = np.sqrt(2 * hbar) * z.real
            p0 = np.sqrt(2 * hbar) * z.imag
            gen = (p0 * x_op - x0 * p_op) / hbar
            return pure_state(expm(1j * gen) @ vac)

        sub = ParametricModel(kind="displaced", dim=64, m=2,
                              state_at=state_at)
        sub_geom = info_geometry(frame_at(sub, th[:2]))

        def block_dev(theta3):
            g = info_geometry(frame_at(model,
                                       np.array([th[0], th[1], theta3, 0.0])))
            return max(np.max(np.abs(g.JS[:2, :2] - sub_geom.JS)),
                       np.max(np.abs(g.Jtilde[:2, :2] - sub_geom.Jtilde)))

        dev1, dev2 = block_dev(0.01), block_dev(0.005)
        assert dev1 <= 3e-2
        assert 1.6 <= dev1 / dev2 <= 2.4   # first-order vanishing in theta3

    def test_leakage_gate(self):
        with pytest.raises(ValidationError):
            frame_at(zoo_squeezed(trunc_dim=32), np.array([0.0, 0.0, 2.5, 0.0]))

    @pytest.mark.parametrize("trunc_dim", [32, 64, 128])
    @pytest.mark.parametrize("hbar", [0.7, 1.0, 2.0])
    def test_state_matches_expm(self, trunc_dim, hbar):
        # reference: D(z) S(xi) |0> from the dense generators
        a = annihilation(trunc_dim)
        ad = a.conj().T
        model = zoo_squeezed(trunc_dim=trunc_dim, hbar=hbar)
        # theta^4 negative, in (0, pi) and beyond pi
        for th in ([0.3, -0.2, 0.25, -2.1], [-0.4, 0.1, 0.3, 3.7],
                   [0.2, 0.35, 0.15, 0.4], [0.1, 0.0, 0.2, -5.3]):
            z = (th[0] + 1j * th[1]) / (2.0 * np.sqrt(hbar))
            xi = th[2] * np.exp(-2j * th[3])
            sq = expm(0.5 * (np.conj(xi) * a @ a - xi * ad @ ad))
            ref = expm(z * ad - np.conj(z) * a) @ sq[:, 0]
            dev = np.max(np.abs(model.state(np.array(th)).vector - ref))
            assert dev <= 1e-13, (th, dev)


class TestPmShift:
    def test_vacuum_values(self):
        geom = info_geometry(frame_at(zoo_pm_shift(0, trunc_dim=48),
                                      np.array([0.3, -0.4])))
        assert np.max(np.abs(geom.JS - 2.0 * np.eye(2))) <= 1e-6
        assert abs(geom.beta_pairs[0] - 1.0) <= 1e-6

    def test_first_excited_beta(self):
        geom = info_geometry(frame_at(zoo_pm_shift(1, trunc_dim=64),
                                      np.array([0.0, 0.0])))
        assert abs(geom.beta_pairs[0] - 1.0 / 3.0) <= 1e-6

    @pytest.mark.parametrize("trunc_dim", [32, 64, 128])
    @pytest.mark.parametrize("hbar", [0.7, 1.0, 2.0])
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_state_matches_expm(self, trunc_dim, hbar, n):
        # reference: exp[(i/hbar)(p0 X - x0 P)] |n> from the dense generator
        a = annihilation(trunc_dim)
        x = np.sqrt(hbar / 2.0) * (a + a.conj().T)
        p = 1j * np.sqrt(hbar / 2.0) * (a.conj().T - a)
        model = zoo_pm_shift(n, trunc_dim=trunc_dim, hbar=hbar)
        for th in ([0.4, -0.3], [-0.5, 0.6], [-0.2, -0.45], [0.0, 0.3]):
            ref = expm(1j * (th[1] * x - th[0] * p) / hbar)[:, n]
            dev = np.max(np.abs(model.state(np.array(th)).vector - ref))
            assert dev <= 1e-13, (th, dev)

    def test_states_stack_state_at(self):
        model = zoo_pm_shift(1, trunc_dim=32)
        assert model.states_at is None
        thetas = np.random.default_rng(6).uniform(-0.5, 0.5, (9, 2))
        assert np.array_equal(
            model.states(thetas),
            np.array([model.state_at(t).vector for t in thetas]))

    def test_largest_fock_index(self):
        model = zoo_pm_shift(61, trunc_dim=64)
        assert abs(model.state(np.zeros(2)).vector[61] - 1.0) <= 1e-15


class TestFockMemo:
    """Each Fock truncation is diagonalized and checked once per process,
    and the shared flows cannot be written into."""

    @pytest.fixture
    def eig_sizes(self, monkeypatch):
        import qest.operators
        real = qest.operators.hermitian_eigendecomposition
        sizes = []

        def counting(a):
            sizes.append(np.shape(a)[0])
            return real(a)

        monkeypatch.setattr(qest.operators, "hermitian_eigendecomposition",
                            counting)
        models._fock_displacement.cache_clear()
        models._fock_squeeze.cache_clear()
        return sizes

    def test_one_eigendecomposition_per_truncation(self, eig_sizes):
        first = zoo_pm_shift(1, trunc_dim=32)
        second = zoo_pm_shift(0, trunc_dim=32, hbar=2.0)
        assert eig_sizes == [32]
        th = np.array([0.3, -0.2])
        models._fock_displacement.cache_clear()
        assert np.array_equal(first.state(th).vector,
                              zoo_pm_shift(1, trunc_dim=32).state(th).vector)
        assert second.state(th).vector.shape == (32,)

    def test_distinct_truncations(self, eig_sizes):
        zoo_pm_shift(1, trunc_dim=32)
        zoo_pm_shift(1, trunc_dim=40)
        assert eig_sizes == [32, 40]

    def test_squeezed_shares_the_displacement(self, eig_sizes):
        zoo_pm_shift(1, trunc_dim=32)
        zoo_squeezed(trunc_dim=32)
        zoo_squeezed(trunc_dim=32)
        assert eig_sizes == [32, 32]   # the displacement, then the squeeze
        assert models._fock_displacement.cache_info().currsize == 1
        assert models._fock_squeeze.cache_info().currsize == 1

    def test_cached_flow_is_read_only(self):
        displace = models._fock_displacement(32)
        cells = dict(zip(displace.__code__.co_freevars,
                         (c.cell_contents for c in displace.__closure__)))
        flows = [cells["flow"], models._fock_squeeze(32)]
        arrays = [cells["n"]] + [
            c.cell_contents for flow in flows for c in flow.__closure__
            if isinstance(c.cell_contents, np.ndarray)]
        assert len(arrays) == 7   # n, then w, u, u_adj of each flow
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_rejected_truncation_never_cached(self):
        before = models._fock_displacement.cache_info().currsize
        for build in (zoo_pm_shift, zoo_pm_shift, zoo_squeezed):
            with pytest.raises(ValidationError, match="trunc_dim"):
                build(trunc_dim=16)
        assert models._fock_displacement.cache_info().currsize == before
        zoo_pm_shift(1, trunc_dim=32)
        with pytest.raises(ValidationError, match="trunc_dim"):
            zoo_pm_shift(trunc_dim=16)


class TestSpinFlowMemo:
    """The spin-coherent S_x is diagonalized and checked once per (s, hbar)
    and process, whatever m_z."""

    @pytest.fixture
    def eig_sizes(self, monkeypatch):
        import qest.operators
        real = qest.operators.hermitian_eigendecomposition
        sizes = []

        def counting(a):
            sizes.append(np.shape(a)[0])
            return real(a)

        monkeypatch.setattr(qest.operators, "hermitian_eigendecomposition",
                            counting)
        models._spin_flow.cache_clear()
        return sizes

    def test_one_eigendecomposition_per_spin_and_hbar(self, eig_sizes):
        up = zoo_spin_coherent(0.5, 0.5)
        down = zoo_spin_coherent(0.5, -0.5)
        assert eig_sizes == [2]
        zoo_spin_coherent(1.5, 0.5)
        zoo_spin_coherent(0.5, 0.5, hbar=0.7)
        assert eig_sizes == [2, 4, 2]
        th = np.array([0.8, -0.3])
        models._spin_flow.cache_clear()
        assert np.array_equal(up.state(th).vector,
                              zoo_spin_coherent(0.5, 0.5).state(th).vector)
        assert np.array_equal(down.state(th).vector,
                              zoo_spin_coherent(0.5, -0.5).state(th).vector)

    def test_invalid_spin_never_cached(self, eig_sizes):
        for s, m_z in [(0.7, 0.5), (-0.5, -0.5), (0.5, 1.5), (1.0, 0.5)]:
            with pytest.raises(ValidationError):
                zoo_spin_coherent(s, m_z)
        assert eig_sizes == []
        assert models._spin_flow.cache_info().currsize == 0

    def test_cached_flow_is_read_only(self):
        flow = models._spin_flow(1.0, 1.0)
        arrays = [c.cell_contents for c in flow.__closure__
                  if isinstance(c.cell_contents, np.ndarray)]
        assert len(arrays) == 3   # w, u, u_adj
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[0] = 0


class TestCanonical:
    def test_two_level_variance(self):
        model = zoo_canonical([0.0, 1.0])
        geom = info_geometry(frame_at(model, np.array([1.0])))
        p = np.exp(-1.0) / (1.0 + np.exp(-1.0))
        assert abs(geom.JS[0, 0] - p * (1 - p)) <= 1e-8

    def test_high_temperature_limit(self):
        model = zoo_canonical([0.0, 1.0])
        geom = info_geometry(frame_at(model, np.array([200.0])))
        assert geom.JS[0, 0] <= 1e-6

    def test_best_estimator_unbiased(self):
        model = zoo_canonical([0.0, 0.5, 1.7])
        t = 0.8
        frame = frame_at(model, np.array([t]))
        p = np.diag(frame.rho).real
        est = model.meta["best_estimates"](t)
        assert abs(p @ est - t) <= 1e-12

    def test_rejects_nonpositive_temperature(self):
        model = zoo_canonical([0.0, 1.0])
        with pytest.raises(ValidationError):
            model.state(np.array([-0.5]))


class TestTimeEvolution:
    def test_rabi_fisher(self):
        omega = 1.3
        h = 0.5 * omega * np.array([[0.0, 1.0], [1.0, 0.0]])
        model = zoo_time_evolution(h, np.array([1.0, 0.0]))
        geom = info_geometry(frame_at(model, np.array([0.4])))
        assert abs(geom.JS[0, 0] - omega**2) <= 1e-6

    def test_global_phase_only(self):
        # H proportional to the identity moves only the global phase: the
        # projected tangent vanishes and the lift is rejected as redundant
        model = zoo_time_evolution(2.0 * np.eye(2), np.array([1.0, 0.0]))
        (dphi,) = tangents(model, np.array([0.1]))
        phi = model.state(np.array([0.1])).vector
        proj = dphi - phi * np.vdot(phi, dphi)
        assert np.linalg.norm(proj) <= 1e-8
        with pytest.raises(ValidationError):
            horizontal_lift(model, np.array([0.1]))

    def test_nan_generator_rejected(self):
        h = np.array([[0.0, 1.0], [1.0, np.nan]])
        with pytest.raises(ValidationError):
            zoo_time_evolution(h, np.array([1.0, 0.0]))

    def test_matches_variance(self):
        rng = np.random.default_rng(21)
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = z + z.conj().T
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        model = zoo_time_evolution(h, psi)
        geom = info_geometry(frame_at(model, np.array([0.2])))
        target = 4.0 * model.meta["var_h"]
        assert abs(geom.JS[0, 0] - target) <= 1e-8 * max(1.0, target)


class TestExplicitAndSpec:
    def test_explicit_model_round_trip(self):
        phi = np.array([1.0, 0.0, 0.0], dtype=complex)
        tangent = np.array([0.0, 0.5, 0.0], dtype=complex)
        model = explicit_model(phi, [tangent])
        frame = frame_at(model, np.array([0.0]))
        assert np.max(np.abs(frame.lifts[0] - 2.0 * tangent)) <= 1e-10

    def test_pure_tangent_stack_reads_tangent_at(self):
        phi = np.array([0.6, 0.8j, 0.0])
        tvs = [np.array([0.0, 0.0, 0.5]), np.array([0.0, 0.3j, 0.1])]
        model = explicit_model(phi, tvs)
        thetas = np.array([[0.0, 0.0], [0.4, -0.2]])
        phis, dphis = models._pure_tangent_stack(model, thetas)
        assert phis.shape == (2, 3) and dphis.shape == (2, 2, 3)
        for row in range(2):
            assert np.array_equal(phis[row], phi)
            assert np.array_equal(dphis[row], np.array(tvs))

    def test_explicit_model_rejects_non_finite(self):
        phi = np.array([1.0, 0.0, 0.0], dtype=complex)
        tangent = np.array([0.0, 0.5, 0.0], dtype=complex)
        for state, tvs in ((phi, [np.array([0.0, np.nan, 0.0])]),
                           (phi, [tangent, np.array([np.inf, 0.0, 0.0])]),
                           (np.array([np.nan, 0.0, 0.0]), [tangent])):
            with pytest.raises(ValidationError):
                explicit_model(state, tvs)
        rho = np.diag([0.5, 0.5]).astype(complex)
        rho[0, 1] = np.nan
        with pytest.raises(ValidationError):
            explicit_model(rho, [0.1 * SIGMA_Z], pure=False)

    def test_spec_kinds(self):
        specs = [
            {"kind": "spin_coherent", "params": {"s": 0.5, "m_z": 0.5},
             "theta": [0.4, 0.2]},
            {"kind": "pm_shift", "params": {"n": 1}, "trunc_dim": 48,
             "theta": [0.0, 0.0]},
            {"kind": "canonical", "params": {"energies": [0.0, 1.0]},
             "theta": [1.0]},
            {"kind": "time_evolution",
             "params": {"h": [[[0.0, 0.0], [0.5, 0.0]],
                              [[0.5, 0.0], [0.0, 0.0]]],
                        "psi0": [[1.0, 0.0], [0.0, 0.0]]},
             "theta": [0.0]},
        ]
        for spec in specs:
            model, theta = load_model_spec(spec)
            assert len(theta) == model.m
            frame = frame_at(model, theta)
            assert frame.m == model.m

    def test_spec_errors(self):
        with pytest.raises(ValidationError):
            load_model_spec({"kind": "nope", "theta": []})
        with pytest.raises(ValidationError):
            load_model_spec({"kind": "spin_coherent",
                             "params": {"s": 0.5, "m_z": 0.5},
                             "theta": [0.1]})
