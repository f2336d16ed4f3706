"""End-to-end acceptance battery: one test (one pass/fail line under -v)
per criterion, each printing a short detail line."""

import time

import numpy as np
import pytest

from conftest import (
    diagonal_qubit_model,
    rotation_qubit_model,
    synthetic_lift_model,
)
from test_oracle import pvm_as_warm_start
from qest.bounds import (
    WeightMatrix,
    boundary_curve,
    cr_coherent,
    cr_general_js,
    cr_two_param,
)
from qest.geometry import InfoGeometry, geometry_at, info_geometry, uhlmann_curvature
from qest.measurements import (
    classical_fisher,
    construct_pvm_from_vectors,
    naimark_compress,
    optimal_vectors_two_param,
    outcome_distribution,
)
from qest.models import (
    frame_at,
    sld_solve,
    zoo_canonical,
    zoo_pm_shift,
    zoo_spin_coherent,
    zoo_squeezed,
)
from qest.oracle import SearchConfig, oracle_min_weighted_variance, verify_bound
from qest.simulate import QmleConfig, simulate_gqmle, time_energy_report

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def minvv(beta):
    return 4.0 / (1.0 + np.sqrt(1.0 - beta * beta))


def canonical_geom(beta):
    return InfoGeometry(
        JS=np.eye(2),
        Jtilde=np.array([[0.0, -beta], [beta, 0.0]]),
        beta_pairs=(beta,) if beta > 0 else (),
        n_zero=0 if beta > 0 else 2,
        quasi_classical=beta == 0.0,
        coherent=abs(beta - 1.0) <= 1e-6)


def test_criterion_01_spin_coherent_closed_forms():
    rng = np.random.default_rng(101)
    worst = 0.0
    for s, m_z in [(0.5, 0.5), (1.0, 0.0), (1.0, 1.0), (1.5, 0.5)]:
        model = zoo_spin_coherent(s, m_z)
        coeff = s * s + s - m_z * m_z
        for _ in range(5):
            th = np.array([rng.uniform(0.4, 2.7), rng.uniform(0.0, 6.2)])
            geom = geometry_at(model, th)
            ref = 2.0 * coeff * np.diag([1.0, np.sin(th[0]) ** 2])
            worst = max(worst,
                        np.max(np.abs(geom.JS - ref)) / np.max(np.abs(ref)))
            beta_ref = abs(m_z) / coeff
            if beta_ref == 0.0:
                assert geom.quasi_classical
            else:
                worst = max(worst,
                            abs(geom.beta_pairs[0] - beta_ref) / beta_ref)
    assert worst <= 1e-6
    print(f"criterion 1 detail: max relative deviation {worst:.3e}")


def test_criterion_02_closed_form_consistency():
    worst = 0.0
    for beta in np.linspace(0.0, 1.0, 11):
        beta = float(beta)
        target = minvv(beta)
        rows = boundary_curve(beta, samples=9)
        z0 = [z for x, z, b in rows if b == "curve" and abs(x) <= 1e-12]
        worst = max(worst, abs(2.0 * z0[0] - target))
        worst = max(worst,
                    abs(cr_general_js(canonical_geom(beta)).cr_value - target))
        if beta == 1.0:
            val = cr_coherent(canonical_geom(beta),
                              WeightMatrix.from_matrix(np.eye(2))).cr_value
            worst = max(worst, abs(val - target))
    assert worst <= 1e-12
    print(f"criterion 2 detail: max deviation {worst:.3e}")


def test_criterion_03_coherent_cross_check():
    geom = canonical_geom(1.0)
    g = WeightMatrix.from_matrix(np.diag([1.0, 4.0]))
    v1 = cr_two_param(geom, g).cr_value
    v2 = cr_coherent(geom, g).cr_value
    assert abs(v1 - 9.0) <= 1e-8
    assert abs(v2 - 9.0) <= 1e-8
    print(f"criterion 3 detail: {v1:.12g} / {v2:.12g} (target 9)")


def test_criterion_04_oracle_soundness_and_tightness():
    cfg = SearchConfig(restarts=64, local_steps=2000, seed=2024)

    model = zoo_spin_coherent(0.5, 0.5)
    theta = np.array([np.pi / 3, np.pi / 4])
    frame = frame_at(model, theta)
    geom = info_geometry(frame)
    res_spin = oracle_min_weighted_variance(frame, geom.JS, cfg)
    assert 4.0 - 1e-9 <= res_spin.best_value <= 4.12

    synth, th_s = synthetic_lift_model(np.array([[0.0, -0.6], [0.6, 0.0]]))
    res_synth = oracle_min_weighted_variance(frame_at(synth, th_s), np.eye(2),
                                             cfg)
    assert 2.2222 - 1e-9 <= res_synth.best_value <= 2.30

    weight = WeightMatrix.from_matrix(geom.JS)
    bound = cr_two_param(geom, weight)
    vectors, embedding = optimal_vectors_two_param(frame, weight, bound)
    pvm = construct_pvm_from_vectors(vectors)
    warm = pvm_as_warm_start(pvm, embedding, frame,
                             cfg.resolved_dim(frame.m))
    warm_cfg = SearchConfig(restarts=2, local_steps=400, seed=2024)
    report = verify_bound(frame, geom, weight, bound, warm_cfg,
                          warm_start=warm)
    assert -1e-9 <= report["gap_above"] <= 1e-8
    print(f"criterion 4 detail: spin {res_spin.best_value:.9g}, synthetic "
          f"{res_synth.best_value:.9g}, warm gap {report['gap_above']:.3e}")


def test_criterion_05_shifted_oscillator():
    worst_beta, worst_js = 0.0, 0.0
    for n in (0, 1, 5):
        model = zoo_pm_shift(n, trunc_dim=128)
        geom = geometry_at(model, np.array([0.15, -0.1]))
        worst_beta = max(worst_beta,
                         abs(geom.beta_pairs[0] - 1.0 / (2 * n + 1)))
        target = 4.0 * (n + 0.5)
        worst_js = max(worst_js,
                       np.max(np.abs(np.diag(geom.JS) - target)) / target)
    assert worst_beta <= 1e-6
    assert worst_js <= 1e-6
    print(f"criterion 5 detail: beta dev {worst_beta:.3e}, "
          f"J^S rel dev {worst_js:.3e}")


def test_criterion_06_squeezed_determinant_identity():
    worst = 0.0
    for t3 in (0.1, 0.3, 0.6):
        geom = geometry_at(zoo_squeezed(trunc_dim=64),
                           np.array([0.1, -0.05, t3, 0.2]))
        target = 4.0 * np.sinh(2 * t3) ** 2
        worst = max(worst,
                    abs(abs(np.linalg.det(geom.JS)) - target) / target,
                    abs(abs(np.linalg.det(geom.Jtilde)) - target) / target)
    assert worst <= 1e-5
    print(f"criterion 6 detail: max relative deviation {worst:.3e}")


def test_criterion_07_canonical_identity():
    rng = np.random.default_rng(7)
    spectra = [[0.0, 1.0], sorted(rng.uniform(0.0, 3.0, size=5))]
    worst_js, worst_jm = 0.0, 0.0
    for energies in spectra:
        model = zoo_canonical(list(energies))
        dim = len(energies)
        projectors = [np.diag((np.arange(dim) == k).astype(complex))
                      for k in range(dim)]
        for temp in np.linspace(0.4, 3.0, 10):
            frame = frame_at(model, np.array([float(temp)]))
            geom = info_geometry(frame)
            c = model.meta["heat_capacity"](float(temp))
            worst_js = max(worst_js,
                           abs(geom.JS[0, 0] - c / temp**2))
            p, dp = outcome_distribution(frame, projectors)
            jm, _ = classical_fisher(p, dp)
            worst_jm = max(worst_jm, abs(jm[0, 0] - geom.JS[0, 0]))
    assert worst_js <= 1e-8
    assert worst_jm <= 1e-8
    print(f"criterion 7 detail: thermal identity dev {worst_js:.3e}, "
          f"energy-PVM Fisher dev {worst_jm:.3e}")


def test_criterion_08_curvature_commutator_equivalence():
    rng = np.random.default_rng(88)
    checked = 0
    for k in range(20):
        theta = np.array([0.02 + 0.02 * k, 0.05])
        if k % 2 == 0:
            z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            basis, _ = np.linalg.qr(z)
            model = diagonal_qubit_model(basis)
        else:
            a, b = rng.uniform(0.3, 1.0, size=2)
            rho0 = np.diag([0.75, 0.25]).astype(complex)
            model = rotation_qubit_model(a * SIGMA_X, b * SIGMA_Y, rho0)
            theta = np.array([0.15, -0.1])
        f = uhlmann_curvature(model, theta)
        f_norm = float(np.max(np.abs(f[(0, 1)])))
        frame = sld_solve(model, theta)
        l1, l2 = frame.slds
        c_norm = float(np.linalg.norm(l1 @ l2 - l2 @ l1))
        assert (f_norm <= 1e-6) == (c_norm <= 1e-6), \
            f"instance {k}: |F|={f_norm:.2e}, |[L1,L2]|={c_norm:.2e}"
        checked += 1
    assert checked == 20
    print("criterion 8 detail: curvature iff commutator on 20 instances")


def test_criterion_09_time_energy():
    rng = np.random.default_rng(9)
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = z + z.conj().T
    psi0 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    rep = time_energy_report(h, psi0, 0.05, 10, hbar=0.8)
    dev = abs(rep.j_mms - rep.js) / max(1.0, rep.js)
    assert dev <= 1e-8

    errs = []
    for dt in (0.2, 0.1, 0.05):
        r = time_energy_report(0.5 * 1.1 * SIGMA_X, np.array([1.0, 0.0]),
                               dt, 5)
        errs.append(abs(r.w_ratio - 1.0))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.8
    print(f"criterion 9 detail: J_Mms dev {dev:.3e}, "
          f"observed orders {orders[0]:.2f}, {orders[1]:.2f}")


def test_criterion_10_property_battery_under_budget():
    start = time.monotonic()

    from test_properties import qubit_model
    rng = np.random.default_rng(10)

    # gauge invariance and beta range
    for slope in (0.0, 0.8, -1.4):
        geom = geometry_at(qubit_model(slope), np.array([0.9, 0.6]))
        assert all(0.0 <= b <= 1.0 + 1e-9 for b in geom.beta_pairs)
        if slope == 0.0:
            ref = geom
    assert np.max(np.abs(ref.JS
                         - geometry_at(qubit_model(0.8),
                                       np.array([0.9, 0.6])).JS)) <= 1e-6

    # reparametrization covariance
    from qest.models import ParametricModel
    a = np.array([[1.2, 0.3], [-0.4, 0.9]])
    model = qubit_model()
    th = np.array([0.9, 0.6])
    reparam = ParametricModel(kind="reparam", dim=2, m=2,
                              state_at=lambda e: model.state(
                                  np.linalg.inv(a) @ e))
    geom2 = geometry_at(reparam, a @ th)
    a_inv = np.linalg.inv(a)
    assert np.max(np.abs(geom2.JS - a_inv.T @ ref.JS @ a_inv)) <= 1e-5

    # hbar scaling of the CR value, beta hbar-invariant
    th2 = np.array([0.1, -0.2])
    g_id = WeightMatrix.from_matrix(np.eye(2))
    b1 = geometry_at(zoo_pm_shift(0, trunc_dim=32, hbar=1.0), th2)
    b2 = geometry_at(zoo_pm_shift(0, trunc_dim=32, hbar=2.0), th2)
    assert abs(cr_two_param(b2, g_id).cr_value
               - 2.0 * cr_two_param(b1, g_id).cr_value) <= 1e-5
    assert abs(b2.beta_pairs[0] - b1.beta_pairs[0]) <= 1e-6

    # CR monotone in beta
    vals = [cr_two_param(canonical_geom(float(b)), g_id).cr_value
            for b in np.linspace(0, 1, 21)]
    assert all(y >= x - 1e-12 for x, y in zip(vals, vals[1:]))

    # PVM completeness / idempotence through the full pipeline
    spin = zoo_spin_coherent(0.5, 0.5)
    frame = frame_at(spin, np.array([1.0, 0.4]))
    geom = info_geometry(frame)
    weight = WeightMatrix.from_matrix(geom.JS)
    bound = cr_two_param(geom, weight)
    vectors, embedding = optimal_vectors_two_param(frame, weight, bound)
    pvm = construct_pvm_from_vectors(vectors)
    total = sum(pvm.projectors)
    assert np.max(np.abs(total - np.eye(pvm.ambient_dim))) <= 1e-10
    for proj in pvm.projectors:
        assert np.max(np.abs(proj @ proj - proj)) <= 1e-10
    elements, _ = naimark_compress(pvm, embedding)
    assert np.max(np.abs(sum(elements) - np.eye(spin.dim))) <= 1e-10

    # oracle determinism under seed
    cfg = SearchConfig(restarts=2, local_steps=100, seed=77)
    r1 = oracle_min_weighted_variance(frame, np.eye(2), cfg)
    r2 = oracle_min_weighted_variance(frame, np.eye(2), cfg)
    assert r1.best_value == r2.best_value

    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"criterion 10 detail: battery completed in {elapsed:.1f} s")


@pytest.mark.research
def test_criterion_11_gqmle_conjecture_probe():
    # exploratory, non-gating: sequential-measurement conjecture
    model = zoo_spin_coherent(0.5, 0.5)
    theta = np.array([np.pi / 3, np.pi / 4])
    geom = geometry_at(model, theta)
    weight = WeightMatrix.from_matrix(geom.JS)
    cfg = QmleConfig(n_samples=2000, trials=500, seed=2024, reopt_every=20)
    res = simulate_gqmle(model, theta, weight, cfg)
    assert abs(res.scaled_risk - 4.0) <= 0.15 * 4.0
    print(f"criterion 11 detail: scaled risk {res.scaled_risk:.4f} "
          f"(target 4 within 15%), excluded {res.excluded_trials}")
