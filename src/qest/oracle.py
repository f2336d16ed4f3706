"""Independent stochastic verification of the closed-form bounds.

Searches over projective measurements (orthonormal bases of the dilated
space) minimizing the optimally post-processed risk Tr G J_M^{-1}, providing
upper bounds on the attainable risk that must never undercut any closed-form
bound value.
"""

from dataclasses import dataclass

import numpy as np

from .operators import ORACLE_SLACK, InternalConsistencyError, ValidationError
from .measurements import _fisher_risk
from .models import _embed_frame
from .bounds import sld_bound

__all__ = ["SearchConfig", "OracleResult", "oracle_min_weighted_variance",
           "verify_bound"]

INIT_ANGLE = 0.3        # scale of the first Givens rotation angles
ANGLE_DECAY = 0.995     # per-step shrink factor of that scale

# Cost model of the search, in microseconds (measured as in CHANGES.md): a
# synchronized step over A restarts costs STEP_COST[0] + STEP_COST[1] * A,
# a speculative round scoring N candidates ROUND_COST[0] + ROUND_COST[1] * N.
STEP_COST = (43.0, 1.25)
ROUND_COST = (81.0, 1.15)
# The switch to rounds is for good, and rounds last until the slowest
# restart finishes, so it needs rounds at most this fraction of the cost.
SWITCH_MARGIN = 0.8
MAX_BLOCK = 32          # proposals per restart in one round, at most
CHECK_EVERY = 32        # synchronized steps between looks at the cost model


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
    switch_step: int        # first step run in rounds; local_steps if none


def _risks(amp, damp, g):
    """Optimally post-processed risks Tr G J_M^{-1} of a stack of rank-one
    PVMs, given by their amplitudes ``amp[r, k] = <b_k|phi>`` and
    ``damp[r, k, i] = <b_k|l_i>``, by :func:`~qest.measurements._fisher_risk`
    (inf where J_M is singular)."""
    p = amp.real ** 2 + amp.imag ** 2
    # dp[r, i, k] = Re <l_i|b_k><b_k|phi>
    dp = (damp * amp.conj()[..., None]).real.swapaxes(1, 2)
    return _fisher_risk(p, dp, g)[0]


def _block(rate, active, k=1):
    """Proposals per restart, k, of the speculative round that resolves
    proposals most cheaply at acceptance ``rate`` over ``active`` restarts,
    and that cost per proposal.  A restart resolves min(G, k) proposals of
    a round, with G geometric in ``rate``.  The cost is unimodal in k, so
    a walk from the given k finds its minimum."""
    def cost(k):
        resolved = k if rate <= 0.0 else (1.0 - (1.0 - rate) ** k) / rate
        return (ROUND_COST[0] + ROUND_COST[1] * active * k) / (
            active * resolved)

    best = cost(k)
    while k > 1 and cost(k - 1) <= best:
        k, best = k - 1, cost(k - 1)
    while k < MAX_BLOCK and cost(k + 1) < best:
        k, best = k + 1, cost(k + 1)
    return k, best


def _rounds_pay(rate, active):
    """Whether a speculative round of k >= 2 resolves proposals enough more
    cheaply than a synchronized step (see SWITCH_MARGIN)."""
    k, cost = _block(rate, active)
    return k >= 2 and cost * active < SWITCH_MARGIN * (
        STEP_COST[0] + STEP_COST[1] * active)


def _speculate(held, value, start, rate, draws, g):
    """Continue the hill climb of every restart from step ``start`` in
    speculative rounds, updating ``held`` in place.

    A round scores each active restart's next k proposals against its
    current basis in one :func:`_risks` call.  The first candidate that
    strictly improves is accepted and the restart moves to the step after
    it; otherwise it moves on by k.  A rejected proposal leaves the basis
    as it was, so every restart follows the trajectory of the synchronized
    steps bit for bit: the rotated rows come from the same formula and
    ``_risks`` treats each row on its own.  ``rate`` is the acceptance rate
    of the steps before ``start``.
    """
    steps, n = draws[0].shape
    _, dim, width = held.shape
    end = steps * n
    cols_i, cols_j, cosines, shifts = (x.reshape(end, -1) for x in draws)
    lookahead = n * np.arange(MAX_BLOCK)
    # Active restarts, compacted: their numbers, the flat (step, restart)
    # index of their next proposal, their values and their rows of held.
    live = np.arange(n)
    at = start * n + live
    val = value.copy()
    cur = held.copy()
    accepted = np.zeros(n, dtype=int)
    k = 1
    while len(live):
        k = _block(rate, len(live), k)[0]
        near = at.max() + k * n >= end
        flat = at[:, None] + lookahead[:k]
        if near:
            # past its last step, a restart scores its last proposal again,
            # which cannot be accepted before the real one
            flat = np.minimum(flat, end - n + live[:, None])
        flat = flat.ravel()
        i, j = cols_i[flat, 0], cols_j[flat, 0]
        c, s = cosines[flat], shifts[flat]
        # the two rotated rows of each candidate, in full; the candidate
        # block holds the risk columns only
        rows = cur.reshape(-1, width)
        base = np.repeat(np.arange(0, len(rows), dim), k)
        r_i, r_j = base + i, base + j
        h_i, h_j = rows[r_i], rows[r_j]
        new_i = c * h_i + s * h_j
        new_j = c * h_j - s.conj() * h_i
        cand = np.repeat(cur[..., dim:], k, axis=0)
        slot = np.arange(0, len(base) * dim, dim)
        cand.reshape(-1, width - dim)[slot + i] = new_i[:, dim:]
        cand.reshape(-1, width - dim)[slot + j] = new_j[:, dim:]
        cand_value = _risks(cand[..., 0], cand[..., 1:], g)
        better = cand_value.reshape(-1, k) < val[:, None]
        hit = better.any(axis=1)
        first = better.argmax(axis=1)
        at += n * np.where(hit, first + 1, k)
        won = np.flatnonzero(hit)
        sel = won * k + first[won]
        accepted[won] += 1
        val[won] = cand_value[sel]
        rows[r_i[sel]] = new_i[sel]
        rows[r_j[sel]] = new_j[sel]
        if near:
            done = at >= end
            if done.any():
                held[live[done]] = cur[done]
                keep = ~done
                live, at, val = live[keep], at[keep], val[keep]
                accepted, cur = accepted[keep], cur[keep]
        # the acceptance rate, in the rounds, of the restarts still running
        rate = accepted.sum() / max((at // n).sum() - start * len(live), 1)


def _random_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r))).conj()


def oracle_min_weighted_variance(frame, g, cfg=SearchConfig(),
                                 warm_start=None):
    """Stochastic search over dilated-space PVM bases of a pure ``frame``.

    Each restart draws a Haar-ish random orthonormal basis and hill-climbs
    over random two-column unitary (Givens-like) perturbations, accepting
    strict improvements of the post-processed risk.  Restart r draws from
    its own stream ``SeedSequence(seed).spawn(restarts)[r]``, so its
    trajectory does not depend on how many restarts run.  Deterministic for
    fixed (seed, cfg, frame, G).  ``warm_start`` (a dilate_dim x dilate_dim
    unitary) is injected as an extra, first restart.

    All restarts first step together: one proposal each per step, scored as
    one batch.  Once the cost model says so (a low acceptance rate), the
    search goes on in speculative rounds (:func:`_speculate`), which follow
    the same trajectories; ``switch_step`` reports where.
    """
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
    # acceptances of the last CHECK_EVERY steps
    tally = np.zeros((CHECK_EVERY, len(starts)), dtype=bool)
    switch_step = steps
    for t in range(steps):
        if t and t % CHECK_EVERY == 0:
            rate = tally.mean()
            if _rounds_pay(rate, len(starts)):
                switch_step = t
                break
        i, j, c, s = cols_i[t], cols_j[t], cosines[t], shifts[t]
        h_i, h_j = held[rows, i], held[rows, j]
        cand = held.copy()
        cand[rows, i] = c * h_i + s * h_j
        cand[rows, j] = c * h_j - s.conj() * h_i
        cand_value = _risks(cand[..., dim], cand[..., dim + 1:], g)
        better = np.less(cand_value, value, out=tally[t % CHECK_EVERY])
        held = np.where(better[:, None, None], cand, held)
        value = np.where(better, cand_value, value)
    if switch_step < steps:
        _speculate(held, value, switch_step, rate,
                   (cols_i, cols_j, cosines, shifts), g)

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
                        singular_fraction=n_singular / len(starts),
                        switch_step=switch_step)


def verify_bound(frame, geom, weight, closed_form, cfg=SearchConfig(),
                 warm_start=None):
    """Check the oracle against the SLD floor of ``geom`` and, when
    ``closed_form`` (a :class:`~qest.bounds.BoundResult`) is given, against
    that bound.

    Hard-asserts soundness (the oracle, being an achievable risk, can never
    be below the closed form beyond round-off) and reports the gap above it.
    With ``closed_form=None`` only the oracle value and the floor are
    reported.
    """
    res = oracle_min_weighted_variance(frame, weight.G, cfg=cfg,
                                       warm_start=warm_start)
    floor = sld_bound(geom, weight).cr_value
    report = {
        "oracle_value": res.best_value,
        "sld_floor": floor,
        "floor_violation": bool(res.best_value < floor - ORACLE_SLACK),
        "result": res,
    }
    if closed_form is None:
        return report
    cr = closed_form.cr_value
    gap = res.best_value - cr
    if gap < -ORACLE_SLACK * max(1.0, abs(cr)):
        raise InternalConsistencyError(
            f"oracle ({res.best_value!r}) undercuts the closed-form bound "
            f"({cr!r}): floor violation")
    report.update(cr_value=cr, gap_above=float(gap),
                  relative_gap=float(gap / max(abs(cr), 1e-300)))
    return report
