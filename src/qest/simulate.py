"""Monte-Carlo layer: adaptive weighted-quantum-MLE simulation (conjecture
probe) and the time-energy hypothesis-testing report."""

from dataclasses import dataclass

import numpy as np

from .operators import ValidationError, hermitian_eigendecomposition
from .models import frame_at
from .geometry import info_geometry
from .bounds import cr_two_param
from .measurements import (
    construct_pvm_from_vectors,
    naimark_compress,
    optimal_vectors_two_param,
)

__all__ = ["QmleConfig", "QmleResult", "simulate_gqmle",
           "TestPowerReport", "time_energy_report"]

INIT_OFFSET = (0.06, -0.05)   # first estimate: theta_true + this offset
NEWTON_ITERS = 4              # damped Newton steps per likelihood refit
GRID_POINTS = 7               # per-axis grid of the first refit's seed search


@dataclass(frozen=True)
class QmleConfig:
    n_samples: int = 2000
    trials: int = 500
    seed: int = 2024
    reopt_every: int = 1          # re-optimize the measurement every k steps
    fixed_measurement: bool = False   # baseline: optimal-at-theta_true, fixed

    def __post_init__(self):
        for name in ("n_samples", "trials", "reopt_every"):
            if getattr(self, name) < 1:
                raise ValidationError(
                    f"{name} must be at least 1, got {getattr(self, name)}")


@dataclass
class QmleResult:
    theta_hats: np.ndarray        # trials x m
    scaled_risk: float            # N * Tr G MSE
    mse: np.ndarray
    excluded_trials: int
    cr_value: float


def _measurement_elements(frame, geom, weight):
    """Base-space POVM elements of the optimal two-parameter measurement
    constructed at the frame's point (dilated PVM compressed back)."""
    bound = cr_two_param(geom, weight)
    vectors, basis = optimal_vectors_two_param(frame, weight, bound)
    pvm = construct_pvm_from_vectors(vectors)
    elements, _ = naimark_compress(pvm, basis)
    return elements


def _log_likelihood_factory(model, elements):
    """Vectorized heterogeneous log-likelihood over the recorded outcome
    elements, an (n, d, d) array (one POVM element per past measurement)."""

    def loglik(theta):
        phi = model.state(theta).vector
        p = np.einsum("a,nab,b->n", phi.conj(), elements, phi).real
        return float(np.sum(np.log(np.clip(p, 1e-300, None))))

    return loglik


def _maximize(loglik, theta0, radius, grid_points):
    """Trust-region maximization: coarse grid seed, then damped Newton with
    central finite differences, steps clipped to the region."""
    theta0 = np.asarray(theta0, dtype=float)
    m = len(theta0)
    best, best_val = theta0.copy(), loglik(theta0)
    if grid_points > 1:
        axes = [np.linspace(-radius, radius, grid_points)] * m
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([ax.ravel() for ax in mesh], axis=1)
        for d in pts:
            cand = theta0 + d
            val = loglik(cand)
            if val > best_val:
                best, best_val = cand, val

    h = 1e-4
    for _ in range(NEWTON_ITERS):
        grad = np.zeros(m)
        hess = np.zeros((m, m))
        evals = {}

        def f(d):
            key = tuple(np.round(d / h).astype(int))
            if key not in evals:
                evals[key] = loglik(best + d)
            return evals[key]

        for i in range(m):
            ei = np.zeros(m)
            ei[i] = h
            grad[i] = (f(ei) - f(-ei)) / (2 * h)
            hess[i, i] = (f(ei) - 2 * best_val + f(-ei)) / h**2
        for i in range(m):
            for j in range(i + 1, m):
                ei, ej = np.zeros(m), np.zeros(m)
                ei[i] = h
                ej[j] = h
                hess[i, j] = hess[j, i] = (
                    f(ei + ej) - f(ei - ej) - f(-ei + ej) + f(-ei - ej)
                ) / (4 * h**2)
        w = np.linalg.eigvalsh(hess)
        if w[-1] < 0:
            step = -np.linalg.solve(hess, grad)
        else:
            step = grad / max(np.linalg.norm(grad), 1e-12) * (0.1 * radius)
        nrm = np.linalg.norm(step)
        if nrm > radius:
            step = step * (radius / nrm)
        cand = best + step
        val = loglik(cand)
        if val >= best_val:
            best, best_val = cand, val
        else:
            break
    return best


def simulate_gqmle(model, theta_true, weight, cfg=QmleConfig()):
    """Adaptive weighted-quantum-MLE Monte Carlo.

    Each step measures the optimal projective measurement constructed at the
    current estimate (re-optimized every ``reopt_every`` steps) and updates
    the estimate by maximizing the accumulated heterogeneous log-likelihood
    within a shrinking trust region.  Returns the across-trial scaled risk
    N * Tr G MSE, to be compared with the attainable bound.  When the model
    has a chart map (``meta["canonicalize"]``), each estimate is mapped into
    the chart of ``theta_true`` first, so an alias of the true point counts
    as the point itself.
    """
    theta_true = np.asarray(theta_true, dtype=float)
    if model.m != 2 or not model.pure:
        raise ValidationError("simulate_gqmle covers 2-parameter pure models")
    frame_true = frame_at(model, theta_true)
    geom_true = info_geometry(frame_true)
    bound_true = cr_two_param(geom_true, weight)
    lam_min = float(np.linalg.eigvalsh(geom_true.JS)[0])

    def elements_at(theta):
        frame = frame_at(model, theta)
        return _measurement_elements(frame, info_geometry(frame), weight)

    theta_init = theta_true + np.array(INIT_OFFSET)
    phi_true = frame_true.phi
    init_elements = elements_at(theta_init)
    true_elements = (_measurement_elements(frame_true, geom_true, weight)
                     if cfg.fixed_measurement else None)

    canonicalize = model.meta.get("canonicalize")
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.trials)
    record = np.empty((cfg.n_samples, model.dim, model.dim), dtype=complex)
    hats = []
    excluded = 0
    for seq in seeds:
        rng = np.random.default_rng(seq)
        elements = true_elements if cfg.fixed_measurement else init_elements
        probs = np.array([np.vdot(phi_true, e @ phi_true).real
                          for e in elements])
        theta_hat = theta_init.copy()
        try:
            for i in range(1, cfg.n_samples + 1):
                k = rng.choice(len(probs), p=np.clip(probs, 0, None)
                               / np.clip(probs, 0, None).sum())
                record[i - 1] = elements[k]
                due = (i % cfg.reopt_every == 0) or (i == cfg.n_samples)
                if not due:
                    continue
                loglik = _log_likelihood_factory(model, record[:i])
                radius = min(3.0 / np.sqrt(i * lam_min), 0.7)
                theta_hat = _maximize(loglik, theta_hat, radius,
                                      GRID_POINTS if i <= cfg.reopt_every
                                      else 1)
                if not cfg.fixed_measurement and i < cfg.n_samples:
                    elements = elements_at(theta_hat)
                    probs = np.array([np.vdot(phi_true, e @ phi_true).real
                                      for e in elements])
            hats.append(theta_hat if canonicalize is None
                        else canonicalize(theta_hat, theta_true))
        except (ValidationError, np.linalg.LinAlgError):
            excluded += 1
    hats = np.array(hats)
    dev = hats - theta_true
    mse = dev.T @ dev / len(hats)
    scaled = float(cfg.n_samples * np.trace(weight.G @ mse))
    return QmleResult(theta_hats=hats, scaled_risk=scaled, mse=mse,
                      excluded_trials=excluded,
                      cr_value=bound_true.cr_value)


@dataclass
class TestPowerReport:
    dt: float
    n: int
    w: float
    stein_exponent: float
    power_approx: float
    js: float
    j_mms: float
    quadratic_regime: bool
    w_ratio: float                # w / (dt^2 <dH^2> / hbar^2)


def time_energy_report(h, psi0, dt, n, hbar=1.0):
    """Detectability of time evolution as a binary hypothesis test.

    Measures the survival measurement M_ms = {|psi(t0)><psi(t0)|, rest}, whose
    statistics do not depend on t0 for a static H:
    reports the exact escape probability w after ``dt``, the Stein exponent
    of the test, the approximate power after ``n`` copies, and the Fisher
    quantities J^S = 4 <dH^2>/hbar^2 and J_Mms (their equality is the
    optimality of M_ms at t0).
    """
    h = np.asarray(h, dtype=complex)
    psi0 = np.asarray(psi0, dtype=complex).ravel()
    psi0 = psi0 / np.linalg.norm(psi0)
    w_eig, u = hermitian_eigendecomposition(h)
    c0 = u.conj().T @ psi0

    def amplitude(delta):
        # <psi(t0)|psi(t0 + delta)> is t0-independent for static H
        return np.sum(np.abs(c0) ** 2 * np.exp(-1j * w_eig * delta / hbar))

    def escape(delta):
        return 1.0 - abs(amplitude(delta)) ** 2

    mean = np.sum(np.abs(c0) ** 2 * w_eig)
    var = np.sum(np.abs(c0) ** 2 * (w_eig - mean) ** 2)
    js = 4.0 * var / hbar**2

    # J of the survival measurement at t0 is a limit (both outcome
    # probabilities are stationary there); Richardson-extrapolate w/h^2
    scale = np.sqrt(js) if js > 1e-12 else 1.0
    step = 1e-3 / scale
    a1 = escape(step) / step**2
    a2 = escape(2 * step) / (2 * step) ** 2
    j_mms = 4.0 * (4.0 * a1 - a2) / 3.0

    w_val = float(escape(dt))
    stein = float(-np.log(max(1.0 - w_val, 1e-300)))
    power = float(1.0 - np.exp(-n * stein))
    quad = var * dt * dt / hbar**2
    return TestPowerReport(
        dt=float(dt), n=int(n), w=w_val, stein_exponent=stein,
        power_approx=power, js=float(js), j_mms=float(j_mms),
        quadratic_regime=bool(w_val < 0.1),
        w_ratio=float(w_val / quad) if quad > 0 else float("nan"),
    )
