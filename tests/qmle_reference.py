"""Reference QMLE trial loop: one trial after another over its raw outcome
record, the loop that ``simulate_gqmle`` ran before its trials advanced in
lockstep.  ``reference_gqmle`` returns the surviving estimates in trial
order, the exclusions as (trial index, exception text), and the scaled risk,
for comparison with the lockstep loop."""

import numpy as np

from qest.bounds import cr_two_param
from qest.geometry import info_geometry
from qest.measurements import (
    construct_pvm_from_vectors,
    naimark_compress,
    optimal_vectors,
)
from qest.models import frame_at
from qest.operators import ValidationError
from qest.simulate import (
    DECREMENT_TOL,
    GRID_POINTS,
    INIT_OFFSET,
    NEWTON_MAX_ITERS,
    STEP_HALVINGS,
    _derivatives,
    _stencil,
)

__all__ = ["reference_gqmle", "measurement_elements",
           "log_likelihood_factory", "maximize"]


def measurement_elements(frame, geom, weight):
    """Base-space POVM elements of the optimal two-parameter measurement
    constructed at the frame's point through the public single-point chain
    (dilated PVM compressed back)."""
    bound = cr_two_param(geom, weight)
    vectors, basis = optimal_vectors(frame, bound)
    pvm = construct_pvm_from_vectors(vectors)
    elements, _ = naimark_compress(pvm, basis)
    return elements


def log_likelihood_factory(model, elements):
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


def maximize(loglik, theta0, radius, grid_points):
    """Trust-region maximization: coarse grid seed, then damped Newton with
    central finite differences, steps clipped to the region."""
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


def reference_gqmle(model, theta_true, weight, cfg):
    """The trials of ``simulate_gqmle`` run one after another: returns
    ``(hats, exclusions, scaled_risk)``; raises like it when every trial is
    excluded."""
    theta_true = np.asarray(theta_true, dtype=float)
    frame_true = frame_at(model, theta_true)
    geom_true = info_geometry(frame_true)
    lam_min = float(np.linalg.eigvalsh(geom_true.JS)[0])

    phi_true = frame_true.phi

    def law(elements):
        p = np.clip((elements @ phi_true @ phi_true.conj()).real, 0, None)
        return elements, p / p.sum()

    def law_at(theta):
        frame = frame_at(model, theta)
        return law(measurement_elements(frame, info_geometry(frame), weight))

    theta_init = theta_true + np.array(INIT_OFFSET)
    first_law = (law(measurement_elements(frame_true, geom_true, weight))
                 if cfg.fixed_measurement else law_at(theta_init))

    canonicalize = model.meta.get("canonicalize")
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.trials)
    record = np.empty((cfg.n_samples, model.dim, model.dim), dtype=complex)
    hats = []
    exclusions = []
    for trial, seq in enumerate(seeds):
        rng = np.random.default_rng(seq)
        elements, probs = first_law
        theta_hat = theta_init.copy()
        try:
            i = 0
            while i < cfg.n_samples:
                due = min(i + cfg.reopt_every, cfg.n_samples)
                record[i:due] = elements[rng.choice(len(probs), size=due - i,
                                                    p=probs)]
                i = due
                loglik = log_likelihood_factory(model, record[:i])
                radius = min(3.0 / np.sqrt(i * lam_min), 0.7)
                theta_hat = maximize(loglik, theta_hat, radius,
                                     GRID_POINTS if i <= cfg.reopt_every
                                     else 1)
                if not cfg.fixed_measurement and i < cfg.n_samples:
                    elements, probs = law_at(theta_hat)
            hats.append(theta_hat if canonicalize is None
                        else canonicalize(theta_hat, theta_true))
        except (ValidationError, np.linalg.LinAlgError) as exc:
            exclusions.append((trial, str(exc)))
    if not hats:
        raise ValidationError(f"all {len(exclusions)} trials excluded: "
                              f"{exclusions[-1][1]}")
    hats = np.array(hats)
    dev = hats - theta_true
    mse = dev.T @ dev / len(hats)
    return hats, exclusions, float(cfg.n_samples * np.trace(weight.G @ mse))
