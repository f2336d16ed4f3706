"""Monte-Carlo layer: adaptive weighted-quantum-MLE simulation (conjecture
probe) and the time-energy hypothesis-testing report."""

from dataclasses import dataclass
from itertools import combinations

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
GRID_POINTS = 7               # per-axis grid of the first refit's seed search
FD_STEP = 1e-4                # finite-difference step of the Newton stencil
DECREMENT_TOL = 1e-10         # Newton decrement g^T (-H)^{-1} g at convergence
NEWTON_MAX_ITERS = 50         # Newton iterations per refit, at most
STEP_HALVINGS = 10            # halvings of a rejected step before giving up


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
    vectors, basis = optimal_vectors_two_param(frame, geom, weight, bound)
    pvm = construct_pvm_from_vectors(vectors)
    elements, _ = naimark_compress(pvm, basis)
    return elements


def _log_likelihood_factory(model, elements):
    """Batched heterogeneous log-likelihood over the recorded outcome
    elements, an (n, d, d) array (one POVM element per past measurement):
    ``loglik(thetas)`` maps a (P, m) stack of points to P values, with the
    record read as an (n, d^2) matrix that meets the P outer products
    conj(phi) (x) phi in one product."""
    flat = elements.reshape(len(elements), -1)

    def loglik(thetas):
        phis = model.states(thetas)
        outer = (phis.conj()[:, :, None] * phis[:, None, :]).reshape(
            len(phis), -1)
        p = (outer @ flat.T).real
        return np.sum(np.log(np.maximum(p, 1e-300)), axis=1)

    return loglik


def _stencil(m):
    """Central-difference stencil of step ``FD_STEP``: the centre, +-e_i for
    each i, then the four (+-e_i) + (+-e_j) for each pair i < j."""
    e = FD_STEP * np.eye(m)
    rows = [np.zeros(m)]
    rows += [s for i in range(m) for s in (e[i], -e[i])]
    rows += [s for i, j in combinations(range(m), 2)
             for s in (e[i] + e[j], e[i] - e[j], -e[i] + e[j], -e[i] - e[j])]
    return np.array(rows)


def _derivatives(f, m):
    """Value, gradient and Hessian from the likelihood on ``_stencil(m)``."""
    h = FD_STEP
    fp, fm = f[1:2 * m + 1:2], f[2:2 * m + 1:2]
    grad = (fp - fm) / (2 * h)
    hess = np.diag((fp - 2 * f[0] + fm) / h**2)
    pairs = combinations(range(m), 2)
    for (i, j), (pp, pm, mp, mm) in zip(pairs, f[2 * m + 1:].reshape(-1, 4)):
        hess[i, j] = hess[j, i] = (pp - pm - mp + mm) / (4 * h**2)
    return f[0], grad, hess


def _maximize(loglik, theta0, radius, grid_points):
    """Trust-region maximization: coarse grid seed, then damped Newton with
    central finite differences, steps clipped to the region.

    The seed grid is one batched likelihood call (the centre first, then the
    grid in scan order; the first maximum wins).  Every other call scores a
    point together with its stencil, so an accepted candidate brings the
    derivatives of the next iteration with it.  A step that lowers the
    likelihood is halved, at most ``STEP_HALVINGS`` times.  The fit stops
    when the Newton decrement g^T (-H)^{-1} g is at most ``DECREMENT_TOL``,
    when the step is zero, or after ``NEWTON_MAX_ITERS`` iterations.
    """
    theta0 = np.asarray(theta0, dtype=float)
    m = len(theta0)
    best = theta0
    if grid_points > 1:
        axes = [np.linspace(-radius, radius, grid_points)] * m
        mesh = np.meshgrid(*axes, indexing="ij")
        offsets = np.stack([ax.ravel() for ax in mesh], axis=1)
        pts = np.concatenate([theta0[None], theta0 + offsets])
        best = pts[int(np.argmax(loglik(pts)))]

    stencil = _stencil(m)
    f = loglik(best + stencil)
    for _ in range(NEWTON_MAX_ITERS):
        val, grad, hess = _derivatives(f, m)
        if np.linalg.eigvalsh(hess)[-1] < 0:
            step = -np.linalg.solve(hess, grad)
            if grad @ step <= DECREMENT_TOL:
                return best
        else:
            step = grad / max(np.linalg.norm(grad), 1e-12) * (0.1 * radius)
        nrm = np.linalg.norm(step)
        if nrm == 0:
            return best
        if nrm > radius:
            step = step * (radius / nrm)
        for _ in range(STEP_HALVINGS + 1):
            fc = loglik(best + step + stencil)
            if fc[0] >= val:
                best, f = best + step, fc
                break
            step = 0.5 * step
        else:
            return best
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

    phi_true = frame_true.phi

    def law(elements):
        """The elements and their outcome probabilities at theta_true,
        clipped and normalized once per measurement."""
        p = np.clip((elements @ phi_true @ phi_true.conj()).real, 0, None)
        return elements, p / p.sum()

    def law_at(theta):
        frame = frame_at(model, theta)
        return law(_measurement_elements(frame, info_geometry(frame), weight))

    theta_init = theta_true + np.array(INIT_OFFSET)
    first_law = (law(_measurement_elements(frame_true, geom_true, weight))
                 if cfg.fixed_measurement else law_at(theta_init))

    canonicalize = model.meta.get("canonicalize")
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.trials)
    record = np.empty((cfg.n_samples, model.dim, model.dim), dtype=complex)
    hats = []
    excluded = 0
    for seq in seeds:
        rng = np.random.default_rng(seq)
        elements, probs = first_law
        theta_hat = theta_init.copy()
        try:
            i = 0
            while i < cfg.n_samples:
                # one refit interval: its outcomes in one draw, then the refit
                due = min(i + cfg.reopt_every, cfg.n_samples)
                record[i:due] = elements[rng.choice(len(probs), size=due - i,
                                                    p=probs)]
                i = due
                loglik = _log_likelihood_factory(model, record[:i])
                radius = min(3.0 / np.sqrt(i * lam_min), 0.7)
                theta_hat = _maximize(loglik, theta_hat, radius,
                                      GRID_POINTS if i <= cfg.reopt_every
                                      else 1)
                if not cfg.fixed_measurement and i < cfg.n_samples:
                    elements, probs = law_at(theta_hat)
            hats.append(theta_hat if canonicalize is None
                        else canonicalize(theta_hat, theta_true))
        except (ValidationError, np.linalg.LinAlgError) as exc:
            excluded += 1
            last_error = exc
    if not hats:
        raise ValidationError(f"all {excluded} trials excluded: {last_error}")
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
    if not (np.isfinite(dt) and dt > 0):
        raise ValidationError(f"dt must be finite and > 0, got {dt}")
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
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
