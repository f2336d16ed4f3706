"""Independent stochastic verification of the closed-form bounds.

Searches over projective measurements (orthonormal bases of the dilated
space) minimizing the optimally post-processed risk Tr G J_M^{-1}, providing
upper bounds on the attainable risk that must never undercut any closed-form
bound value.
"""

from dataclasses import dataclass

import numpy as np

from .operators import (DERIV_FLOOR, ORACLE_SLACK, PROB_FLOOR,
                        InternalConsistencyError, ValidationError)
from .models import _embed_frame, frame_at
from .geometry import info_geometry
from .bounds import WeightMatrix, sld_bound

__all__ = ["SearchConfig", "OracleResult", "oracle_min_weighted_variance",
           "verify_bound"]

INIT_ANGLE = 0.3        # scale of the first Givens rotation angles
ANGLE_DECAY = 0.995     # per-step shrink factor of that scale


@dataclass(frozen=True)
class SearchConfig:
    restarts: int = 64
    local_steps: int = 2000
    seed: int = 2024
    dilate_dim: int = None          # default 2m+1

    def __post_init__(self):
        if self.restarts < 1 or self.local_steps < 0:
            raise ValidationError(
                "need restarts >= 1 and local_steps >= 0, got "
                f"restarts={self.restarts}, local_steps={self.local_steps}")

    def resolved_dim(self, m):
        return self.dilate_dim if self.dilate_dim is not None else 2 * m + 1


@dataclass
class OracleResult:
    best_value: float
    best_basis: np.ndarray
    singular_fraction: float


def _risk_of_basis(basis, phi_e, l_e, g):
    """Optimally post-processed risk Tr G J_M^{-1} of the rank-one PVM given
    by the columns of ``basis``; returns inf when J_M is singular."""
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


def _random_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r))).conj()


def oracle_min_weighted_variance(model, theta, g, cfg=SearchConfig(),
                                 warm_start=None):
    """Stochastic search over dilated-space PVM bases.

    Each restart draws a Haar-ish random orthonormal basis and hill-climbs
    over random two-column unitary (Givens-like) perturbations, accepting
    improvements of the post-processed risk.  Deterministic for fixed
    (seed, cfg, model, theta, G).  ``warm_start`` (a dilate_dim x dilate_dim
    unitary) is injected as an extra restart.
    """
    frame = frame_at(model, theta)
    g = np.asarray(g, dtype=float)
    dim = cfg.resolved_dim(frame.m)
    _, phi_e, l_e = _embed_frame(frame, dim)

    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    best_value = np.inf
    best_basis = None
    n_singular = 0
    starts = [("rng", s) for s in seeds]
    if warm_start is not None:
        if warm_start.shape != (dim, dim):
            raise ValidationError("warm start has wrong dimension")
        starts.insert(0, ("warm", None))

    for tag, seed in starts:
        rng = np.random.default_rng(seed if seed is not None else 0)
        basis = warm_start.copy() if tag == "warm" else _random_unitary(rng, dim)
        value = _risk_of_basis(basis, phi_e, l_e, g)
        if not np.isfinite(value):
            n_singular += 1
        angle = INIT_ANGLE
        for _ in range(cfg.local_steps):
            i, j = rng.choice(dim, size=2, replace=False)
            a = angle * rng.standard_normal()
            ph = rng.uniform(0.0, 2.0 * np.pi)
            c, s = np.cos(a), np.sin(a)
            rot = np.array([[c, -s * np.exp(1j * ph)],
                            [s * np.exp(-1j * ph), c]])
            cand = basis.copy()
            cand[:, [i, j]] = cand[:, [i, j]] @ rot
            cand_value = _risk_of_basis(cand, phi_e, l_e, g)
            if cand_value < value:
                basis, value = cand, cand_value
            angle *= ANGLE_DECAY
        if value < best_value:
            best_value, best_basis = value, basis

    if not np.isfinite(best_value):
        raise ValidationError(
            "all restarts singular: only the interval "
            "[Tr G J^{S-1}, inf) is available")
    return OracleResult(best_value=float(best_value), best_basis=best_basis,
                        singular_fraction=n_singular / len(starts))


def verify_bound(model, theta, g, closed_form, cfg=SearchConfig(),
                 warm_start=None):
    """Check a closed-form bound against the oracle.

    Hard-asserts soundness (the oracle, being an achievable risk, can never
    be below the bound beyond round-off) and reports the relative gap above.
    """
    res = oracle_min_weighted_variance(model, theta, g, cfg,
                                       warm_start=warm_start)
    gap = res.best_value - closed_form.cr_value
    if gap < -ORACLE_SLACK * max(1.0, abs(closed_form.cr_value)):
        raise InternalConsistencyError(
            f"oracle ({res.best_value!r}) undercuts the closed-form bound "
            f"({closed_form.cr_value!r}): floor violation")
    floor = sld_bound(info_geometry(frame_at(model, theta)),
                      WeightMatrix.from_matrix(g)).cr_value
    return {
        "oracle_value": res.best_value,
        "cr_value": closed_form.cr_value,
        "gap_above": float(gap),
        "relative_gap": float(gap / max(abs(closed_form.cr_value), 1e-300)),
        "sld_floor": floor,
        "floor_violation": bool(res.best_value < floor - ORACLE_SLACK),
        "result": res,
    }
