"""Monte-Carlo layer: adaptive weighted-quantum-MLE simulation (conjecture
probe) and the time-energy hypothesis-testing report."""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .operators import ValidationError, hermitian_eigendecomposition
from .models import _lifts, _pure_tangent_stack, frame_at
from .geometry import _derive_stack, _lift_gram, info_geometry
from .bounds import (_normalized_weight, _refuse_overflowing_weight,
                     _two_param_stack, cr_two_param)
from .measurements import _naimark_stack, _pvm_stack, _vector_stack

__all__ = ["QmleConfig", "QmleResult", "simulate_gqmle",
           "TestPowerReport", "time_energy_report"]

INIT_OFFSET = (0.06, -0.05)   # first estimate: theta_true + this offset
GRID_POINTS = 7               # per-axis grid of the first refit's seed search
FD_STEP = 1e-4                # finite-difference step of the Newton stencil
DECREMENT_TOL = 1e-10         # Newton decrement g^T (-H)^{-1} g at convergence
NEWTON_MAX_ITERS = 50         # Newton iterations per refit, at most
STEP_HALVINGS = 10            # halvings of a rejected step before giving up
RECORD_BUDGET = 2**24         # bytes of outcome record per chunk of trials
TRIAL_ERRORS = (ValidationError, np.linalg.LinAlgError)   # exclude a trial


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
    theta_hats: np.ndarray        # surviving trials x m, in trial order
    scaled_risk: float            # N * Tr G MSE
    mse: np.ndarray
    cr_value: float
    exclusions: tuple = ()        # (trial index, exception text) per exclusion

    @property
    def excluded_trials(self):
        return len(self.exclusions)


def _measurement_stack(model, thetas, weight):
    """Base-space POVM elements of the optimal two-parameter measurement at
    each point of a (T, 2) stack, in one stacked pass: frames from one
    ``states`` call, then geometry, bound, estimation vectors, PVM and
    compression (the dilated PVM compressed back) along the row axis, every
    verification applied per row.  Returns the (T, K, d, d) elements.  It
    raises when any row fails or the rows differ in structure; a build
    with T = 1 then tells the rows apart."""
    phis, dphis = _pure_tangent_stack(model, thetas)
    lifts = _lifts(phis, dphis)
    n_skew, s_half, s_inv_half, rows = _derive_stack(*_lift_gram(lifts))
    coherent = np.array([row[3] for row in rows])
    g = np.asarray(weight.G, dtype=float)
    g_n = _normalized_weight(s_inv_half, g)
    _, v_opt, c = _two_param_stack(g, g_n, s_half, s_inv_half,
                                   n_skew[:, 1, 0], coherent)
    phi_e, x_e, basis = _vector_stack(phis, lifts, c, v_opt,
                                      2 * model.m + 1)
    projectors, _, _ = _pvm_stack(phi_e, x_e, thetas)
    return _naimark_stack(projectors, basis)[0]


def _log_likelihood_factory(model, elements, counts):
    """Batched log-likelihood of a stack of counted outcome records.

    ``elements`` is (T, R, d, d): slot r of trial t holds one distinct
    outcome element, seen ``counts[t, r]`` times (0 for an empty slot).
    ``loglik(points, rows)`` maps an (n, P, m) stack of points, P for each
    of the trials ``rows``, to their (n, P) values; each trial's record is
    read as an (R, d^2) matrix that meets its P outer products
    conj(phi) (x) phi in one product, and its logs are weighted by the
    counts."""
    t_rows, slots = counts.shape
    flat_t = elements.reshape(t_rows, slots, -1).swapaxes(1, 2)
    weights = counts[:, :, None]

    def loglik(points, rows):
        n, p_pts, m = points.shape
        phis = model.states(points.reshape(-1, m)).reshape(n, p_pts, -1)
        outer = (phis.conj()[..., :, None] * phis[..., None, :]).reshape(
            n, p_pts, -1)
        # rows are ascending, so n = T means every trial: no copy
        f, w = ((flat_t, weights) if n == t_rows
                else (flat_t[rows], weights[rows]))
        p = (outer @ f).real
        return (np.log(np.maximum(p, 1e-300)) @ w)[..., 0]

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


def _fit(theta0, radius, grid_points):
    """One trial's trust-region maximization, as a generator: it yields
    each (P, m) batch of points it needs scored, is sent their P
    likelihoods, and returns the maximum.  Coarse grid seed, then damped
    Newton with central finite differences, steps clipped to the region.

    The seed grid is one batch (the centre first, then the grid in scan
    order; the first maximum wins).  Every other batch is a point together
    with its stencil, so an accepted candidate brings the derivatives of
    the next iteration with it.  A step that lowers the likelihood is
    halved, at most ``STEP_HALVINGS`` times.  The fit stops when the Newton
    decrement g^T (-H)^{-1} g is at most ``DECREMENT_TOL``, when the step is
    zero, or after ``NEWTON_MAX_ITERS`` iterations.
    """
    m = len(theta0)
    best = theta0
    if grid_points > 1:
        axes = [np.linspace(-radius, radius, grid_points)] * m
        mesh = np.meshgrid(*axes, indexing="ij")
        offsets = np.stack([ax.ravel() for ax in mesh], axis=1)
        pts = np.concatenate([theta0[None], theta0 + offsets])
        best = pts[int(np.argmax((yield pts)))]

    stencil = _stencil(m)
    f = yield best + stencil
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
            fc = yield best + step + stencil
            if fc[0] >= val:
                best, f = best + step, fc
                break
            step = 0.5 * step
        else:
            return best
    return best


def _maximize(loglik, theta0, radius, grid_points):
    """Run the :func:`_fit` of each row of the (T, m) starts ``theta0`` in
    lockstep: each round scores the batches of every trial still fitting in
    one ``loglik(points, rows)`` call, with ``points`` an (n, P, m) stack
    for the n trials ``rows`` (indices into ``theta0``), which returns their
    (n, P) likelihoods, NaN on a row that could not be scored.  Every batch
    of a round has the same P: the seed grid on the first, a stencil on
    every other.  Returns the (T, m) maxima, NaN on trials whose likelihood
    failed."""
    theta0 = np.asarray(theta0, dtype=float)
    best = np.full_like(theta0, np.nan)
    fits = [_fit(t, radius, grid_points) for t in theta0]
    pending = {t: next(fit) for t, fit in enumerate(fits)}
    while pending:
        rows = list(pending)
        values = loglik(np.array(list(pending.values())), np.array(rows))
        for t, f, bad in zip(rows, values,
                             np.isnan(values).any(axis=1).tolist()):
            if bad:
                del pending[t]
                continue
            try:
                pending[t] = fits[t].send(f)
            except StopIteration as stop:
                best[t] = stop.value
                del pending[t]
    return best


def _row_by_row(stacked, args, trials, offset, errors, fill):
    """The one rule that excludes a QMLE trial: ``stacked(*args)`` gives one
    result per row of the stacks ``args``, whose rows belong to the chunk's
    trials ``trials``; it is called on every row at once, and when that
    raises ``TRIAL_ERRORS``, on each row alone.  A row that still raises
    yields ``fill()``, and its trial, numbered from ``offset``, keeps its
    first exception in ``errors``.  ``trials`` and ``fill`` are read only
    then."""
    try:
        return stacked(*args)
    except TRIAL_ERRORS:
        out = []
        for i, t in enumerate(trials):
            try:
                out.append(stacked(*(a[i:i + 1] for a in args))[0])
            except TRIAL_ERRORS as exc:
                errors.setdefault(int(t) + offset, exc)
                out.append(fill())
        return out


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

    The trials advance in lockstep, one refit interval at a time, in chunks
    of at most ``RECORD_BUDGET`` bytes of outcome record (N d^2 complex
    numbers per trial).  Each trial draws from its own seed stream and keeps
    its outcomes as counts per distinct element.  Per interval a chunk makes
    one batched fit and one stacked measurement build for all its trials.
    A trial whose likelihood or measurement fails is excluded alone, with
    its exception recorded in ``exclusions``.
    """
    theta_true = np.asarray(theta_true, dtype=float)
    if model.m != 2 or not model.pure:
        raise ValidationError("simulate_gqmle covers 2-parameter pure models")
    frame_true = frame_at(model, theta_true)
    geom_true = info_geometry(frame_true)
    _refuse_overflowing_weight(geom_true, weight)
    bound_true = cr_two_param(geom_true, weight)
    if bound_true.C is None:
        raise ValidationError("simulate_gqmle needs a strictly positive "
                              "weight: a rank-one one has no optimum")
    lam_min = float(np.linalg.eigvalsh(geom_true.JS)[0])

    phi_true = frame_true.phi

    def probabilities(elements):
        """Outcome probabilities at theta_true of a (..., K, d, d) stack of
        measurements, clipped and normalized once per measurement."""
        p = np.maximum((elements @ phi_true @ phi_true.conj()).real, 0.0)
        return p / p.sum(axis=-1, keepdims=True)

    theta_init = theta_true + np.array(INIT_OFFSET)
    first = _measurement_stack(
        model, (theta_true if cfg.fixed_measurement else theta_init)[None],
        weight)[0]
    errors = {}   # excluded trial -> its first exception

    def run(seeds, offset):
        """Estimates (T, m) of the trials seeded by ``seeds``, numbered from
        ``offset``; NaN rows for excluded trials."""
        n, d = cfg.n_samples, model.dim
        rngs = [np.random.default_rng(seq) for seq in seeds]
        laws = [(first, probabilities(first))] * len(seeds)
        record = np.zeros((len(seeds), n, d, d), dtype=complex)
        counts = np.zeros((len(seeds), n))
        used = [0] * len(seeds)
        if cfg.fixed_measurement:
            # one measurement throughout: its elements hold every count
            used = [len(first)] * len(seeds)
            record[:, :used[0]] = first
        hats = np.tile(theta_init, (len(seeds), 1))
        live = list(range(len(seeds)))
        i = 0
        while i < n and live:
            # one refit interval: each trial's outcomes in one draw, counted
            due = min(i + cfg.reopt_every, n)
            for t in live:
                elements, probs = laws[t]
                seen = np.bincount(rngs[t].choice(len(probs), size=due - i,
                                                  p=probs),
                                   minlength=len(probs))
                if cfg.fixed_measurement:
                    counts[t, :len(seen)] += seen
                    continue
                drawn = seen.nonzero()[0]
                slots = slice(used[t], used[t] + len(drawn))
                record[t, slots] = elements[drawn]
                counts[t, slots] = seen[drawn]
                used[t] = slots.stop
            i = due
            width = max(used[t] for t in live)
            loglik = _log_likelihood_factory(model, record[:, :width],
                                             counts[:, :width])
            live_rows = np.array(live)

            def scored(points, rows):
                trials = live_rows[rows]
                return _row_by_row(
                    loglik, (points, trials), trials, offset, errors,
                    lambda: np.full(points.shape[1], np.nan))

            radius = min(3.0 / np.sqrt(i * lam_min), 0.7)
            hats[live] = _maximize(scored, hats[live], radius,
                                   GRID_POINTS if i <= cfg.reopt_every else 1)
            live = [t for t in live if not np.isnan(hats[t, 0])]
            if cfg.fixed_measurement or i >= n or not live:
                continue

            def build(estimates):
                elements = _measurement_stack(model, estimates, weight)
                return list(zip(elements, probabilities(elements)))

            for t, law in zip(live, _row_by_row(
                    build, (hats[live],), live, offset, errors,
                    lambda: None)):
                laws[t] = law
                if law is None:
                    hats[t] = np.nan
            live = [t for t in live if laws[t] is not None]
        for t in np.flatnonzero(np.isnan(hats[:, 0])):
            errors.setdefault(int(t) + offset,
                              ValidationError("non-finite likelihood"))
        return hats

    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.trials)
    chunk = max(1, RECORD_BUDGET // (16 * cfg.n_samples * model.dim**2))
    hats = np.concatenate([run(seeds[i:i + chunk], i)
                           for i in range(0, cfg.trials, chunk)])
    if len(errors) == cfg.trials:
        raise ValidationError(f"all {len(errors)} trials excluded: "
                              f"{errors[max(errors)]}")
    hats = hats[~np.isnan(hats).any(axis=1)]
    canonicalize = model.meta.get("canonicalize")
    if canonicalize is not None:
        hats = np.array([canonicalize(h, theta_true) for h in hats])
    dev = hats - theta_true
    mse = dev.T @ dev / len(hats)
    scaled = float(cfg.n_samples * np.trace(weight.G @ mse))
    return QmleResult(theta_hats=hats, scaled_risk=scaled, mse=mse,
                      cr_value=bound_true.cr_value,
                      exclusions=tuple((t, str(errors[t]))
                                       for t in sorted(errors)))


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
    with np.errstate(over="ignore"):  # a huge dt gives w_ratio's limit, 0
        quad = var * dt * dt / hbar**2
    return TestPowerReport(
        dt=float(dt), n=int(n), w=w_val, stein_exponent=stein,
        power_approx=power, js=float(js), j_mms=float(j_mms),
        quadratic_regime=bool(w_val < 0.1),
        w_ratio=float(w_val / quad) if quad > 0 else float("nan"),
    )
