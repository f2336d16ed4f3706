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


def _risks(amp, damp, g):
    """Optimally post-processed risks Tr G J_M^{-1} of a stack of rank-one
    PVMs, given by their amplitudes ``amp[r, k] = <b_k|phi>`` and
    ``damp[r, k, i] = <b_k|l_i>``; inf where J_M is singular or an outcome
    of zero probability carries information."""
    p = amp.real ** 2 + amp.imag ** 2
    # dp[r, k, i] = Re <l_i|b_k><b_k|phi>
    dp = (damp * amp.conj()[..., None]).real
    live = p > PROB_FLOOR
    dead = ((np.abs(dp) > DERIV_FLOOR) & ~live[..., None]).any(axis=(1, 2))
    sel = dp / np.sqrt(np.where(live, p, np.inf))[..., None]
    jm = sel.transpose(0, 2, 1) @ sel
    sign, logdet = np.linalg.slogdet(jm)
    bad = dead | (sign <= 0) | (logdet < -60)
    if bad.any():
        jm[bad] = np.eye(jm.shape[-1])
    risk = np.einsum("ij,rji->r", g, np.linalg.inv(jm))
    risk[bad] = np.inf
    return risk


def _random_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r))).conj()


def oracle_min_weighted_variance(model, theta, g, cfg=SearchConfig(),
                                 warm_start=None):
    """Stochastic search over dilated-space PVM bases.

    Each restart draws a Haar-ish random orthonormal basis and hill-climbs
    over random two-column unitary (Givens-like) perturbations, accepting
    strict improvements of the post-processed risk.  All restarts step
    together: one proposal each per step, scored as one batch.  Restart r
    draws from its own stream ``SeedSequence(seed).spawn(restarts)[r]``, so
    its trajectory does not depend on how many restarts run.  Deterministic
    for fixed (seed, cfg, model, theta, G).  ``warm_start`` (a dilate_dim x
    dilate_dim unitary) is injected as an extra, first restart.
    """
    frame = frame_at(model, theta)
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
    # (step, restart) layout: one contiguous slice per step
    cols_i, offsets, normals, phases = (np.array(x).T for x in zip(*draws))
    cols_j = (cols_i + offsets) % dim
    angles = INIT_ANGLE * ANGLE_DECAY ** np.arange(steps)[:, None] * normals
    cosines = np.cos(angles)[..., None]
    shifts = (np.sin(angles) * np.exp(1j * phases))[..., None]

    # Row k of held[r] is (<b_k|, <b_k|phi_e>, <b_k|L_e>) for basis B[r].
    # Rotating columns (i, j) of B by [[c, -s], [s*, c]] maps rows (i, j)
    # of held[r] by the adjoint [[c, s], [-s*, c]]; no other row changes.
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

    # report the risk of the returned basis, not of the running amplitudes
    amps = held[..., :dim] @ vecs
    value = _risks(amps[..., 0], amps[..., 1:], g)
    best = int(np.argmin(value))
    if not np.isfinite(value[best]):
        raise ValidationError(
            "all restarts singular: only the interval "
            "[Tr G J^{S-1}, inf) is available")
    return OracleResult(best_value=float(value[best]),
                        best_basis=held[best, :, :dim].conj().T,
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
