"""Attainable Cramer-Rao-type bounds for pure-state models.

Implements the SLD matrix bound, the exact two-parameter solution (via the
constraint curve between the two normalized variances), the coherent-model
closed form, the invariant-weight bound for general pure models, and
direct-sum additivity over informationally independent blocks.
:func:`attainable_bound` picks the closed form that applies at a point.
"""

import math
from dataclasses import dataclass

import numpy as np

from .operators import (
    ARG_BETA_SLACK, LAGRANGE_RESIDUAL_TOL, OFF_BLOCK_RTOL, SINGULAR_RTOL,
    ValidationError, _require, _sqrtm_psd, as_hermitian)
from .geometry import InfoGeometry, decompose_direct_sum

__all__ = [
    "WeightMatrix",
    "BoundResult",
    "sld_bound",
    "attainable_bound",
    "cr_two_param",
    "boundary_curve",
    "cr_coherent",
    "cr_general_js",
    "cr_direct_sum",
]

BISECTION_TOL = 1e-14


@dataclass(frozen=True)
class WeightMatrix:
    """Real symmetric PSD weight G for the scalar risk Tr G V."""

    G: np.ndarray
    strict: bool

    @classmethod
    def from_matrix(cls, g):
        """Validated weight: a finite real symmetric PSD square matrix,
        strict when its eigenvalues exceed ``SINGULAR_RTOL`` times the top."""
        try:
            g = np.asarray(g, dtype=float)
        except (TypeError, ValueError):
            raise ValidationError("weight matrix must be a square array of "
                                  "numbers")
        if not np.all(np.isfinite(g)):
            raise ValidationError("weight matrix has non-finite entries")
        g = as_hermitian(g).real
        w = np.linalg.eigvalsh(g)
        cutoff = SINGULAR_RTOL * abs(w[-1])
        _require(-w[0], cutoff, "weight matrix has a negative eigenvalue",
                 ValidationError)
        return cls(G=g, strict=bool(w[0] > cutoff))


@dataclass(frozen=True)
class BoundResult:
    """Value and optimizer of a CR-type bound.

    ``attained`` is "attained" when some locally unbiased measurement
    realizes V_opt, "infimum_only" when the value is approached but not
    realized (rank-deficient weights on maximally incompatible pairs).
    ``C`` is the m x m coefficient matrix of the optimal estimation vectors
    X = L C (L the horizontal lifts), with Re C*Q = I for the lift Gram
    matrix Q = J^S + i J~; None where no measurement is built.
    """

    cr_value: float
    method: str
    attained: str = "attained"
    V_opt: np.ndarray = None
    C: np.ndarray = None
    note: str = ""


def sld_bound(geom, weight):
    """SLD floor Tr G J^{S-1} of the matrix bound V >= J^{S-1}; attainable
    iff the model is quasi-classical at the point, where C = J^{S-1}."""
    js_inv = np.linalg.inv(geom.JS)
    v_opt = 0.5 * (js_inv + js_inv.T)
    attained = geom.quasi_classical
    return BoundResult(
        cr_value=float(np.trace(weight.G @ js_inv)),
        method="sld",
        attained="attained" if attained else "infimum_only",
        V_opt=v_opt,
        C=v_opt if attained else None,
    )


def attainable_bound(geom, weight, pure):
    """The closed-form attainable bound at a point, or None.

    Regimes are tried in order: quasi-classical -> :func:`sld_bound`;
    two-parameter pure -> :func:`cr_two_param`; coherent ->
    :func:`cr_coherent` (closed forms after Matsumoto, J. Phys. A 35, 3111
    (2002)).  None means no closed form applies and only the interval
    [SLD floor, oracle] is available.
    """
    if geom.quasi_classical:
        return sld_bound(geom, weight)
    if geom.m == 2 and pure:
        return cr_two_param(geom, weight)
    if geom.coherent:
        return cr_coherent(geom, weight)
    return None


def _bisect(f, lo, hi):
    """Root of f, increasing on [lo, hi] with f(lo) <= 0 <= f(hi), to the
    absolute tolerance BISECTION_TOL."""
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _minimize_on_curve(g1, g2, beta):
    """Minimize g1 u + g2 v over the constraint curve
    sqrt(u-1) + sqrt(v-1) = beta sqrt(uv).

    With u = sec^2 a, v = sec^2 b and beta = sin gamma the curve is
    sin(a + b - gamma) = 0, the segment a + b = gamma with a in [0, gamma].
    Stationarity there is h(a) = g1 sin a cos^3 b - g2 sin b cos^3 a = 0,
    and h increases from -g2 beta to g1 beta; solve it by bisection and one
    Newton step, h'(a) = (g1 cos^2 b + g2 cos^2 a)(cos a cos b
    + 3 sin a sin b).  The sine and cosine of b come from beta and
    cos gamma = sqrt((1 - beta)(1 + beta)), not from a rounded gamma - a:
    v = sec^2 b is large where b nears pi/2.  Returns (u, v, value).
    """
    beta = min(beta, 1.0)
    cos_gamma = math.sqrt((1.0 - beta) * (1.0 + beta))

    def trig(a):
        ca, sa = math.cos(a), math.sin(a)
        return ca, sa, cos_gamma * ca + beta * sa, beta * ca - cos_gamma * sa

    def h(a):
        ca, sa, cb, sb = trig(a)
        return g1 * sa * cb ** 3 - g2 * sb * ca ** 3

    a = _bisect(h, 0.0, math.asin(beta))
    ca, sa, cb, sb = trig(a)
    a -= h(a) / ((g1 * cb * cb + g2 * ca * ca) * (ca * cb + 3.0 * sa * sb))
    ca, sa, cb, sb = trig(a)
    s, t = sa / ca, sb / cb
    u, v = 1.0 + s * s, 1.0 + t * t
    return u, v, g1 * u + g2 * v


def _so2_diagonalizer(g):
    """Proper rotations R (det +1) with R^T g R diagonal, larger eigenvalue
    first, for a (T, 2, 2) stack of symmetric matrices.  Properness keeps
    the sign of the antisymmetric part intact."""
    w, r = np.linalg.eigh(g)
    # eigh returns ascending; we want descending
    r = r[..., ::-1].copy()
    flip = r[:, 0, 0] * r[:, 1, 1] < r[:, 0, 1] * r[:, 1, 0]
    r[:, :, 1] *= 1 - 2 * flip[:, None]
    return r, w[..., ::-1]


def _normalized_weight(s_inv_half, g):
    """G in the coordinates where J^S = I: J^{S-1/2} G J^{S-1/2},
    symmetrized, for one J^{S-1/2} or a stack of them."""
    g_n = s_inv_half @ g @ s_inv_half
    return 0.5 * (g_n + g_n.swapaxes(-1, -2))


def cr_two_param(geom, weight):
    """Exact attainable bound for 2-parameter pure models.

    Coordinates are normalized so J^S = I (congruence by J^{S-1/2}), the
    weight is rotated diagonal, and the scalar risk is minimized on the
    constraint curve between the two normalized variances.  The Lagrange
    multiplier Lambda is recovered in closed form and the full stationarity
    system is checked as a residual.  The estimation vectors have
    C = V G (G - i Lambda)^{-1}, or C = J^{S-1} on a coherent point, where
    that matrix is (nearly) singular.  A weight is rank-one, with no C, only
    when both G and the normalized weight are singular: near a spin pole
    G = I is strict with a near-singular normalized weight, and G = J^S is
    not strict with a normalized weight of I.
    """
    if geom.m != 2:
        raise ValidationError("cr_two_param requires a 2-parameter model")
    s_inv = geom.S_inv_half
    g_n = _normalized_weight(s_inv, weight.G)
    gw = np.linalg.eigvalsh(g_n)

    if not weight.strict and gw[0] <= SINGULAR_RTOL * gw[-1]:
        # Tr G V is constant (= g1 * 1) along the achievable half-line; for
        # maximally incompatible pairs no finite optimizer exists.
        value = float(gw[-1])
        if value <= 0:
            return BoundResult(cr_value=0.0, method="two_param",
                               note="zero weight")
        if geom.coherent:
            return BoundResult(cr_value=value, method="two_param",
                               attained="infimum_only",
                               note="rank-one weight on a maximally "
                                    "incompatible pair: infimum only")
        # attained on the half-line: unit variance in the weighted direction,
        # the free direction inflated to v = 1 + 2 beta^2 / (1 - beta^2)
        beta = abs(geom.N[1, 0])
        r = _so2_diagonalizer(g_n[None])[0][0]
        v_line = np.diag([1.0, 1.0 + 2.0 * beta**2 / (1.0 - beta**2)])
        v_opt = s_inv @ (r @ v_line @ r.T) @ s_inv
        return BoundResult(cr_value=value, method="two_param",
                           V_opt=v_opt)

    value, v_opt, c = _two_param_stack(
        weight.G, g_n[None], geom.S_half[None], s_inv[None],
        geom.N[None, 1, 0], np.array([geom.coherent]))
    return BoundResult(cr_value=float(value[0]), method="two_param",
                       V_opt=v_opt[0], C=c[0])


def _two_param_stack(g, g_n, s_half, s_inv_half, beta_signed, coherent):
    """The full-rank case of :func:`cr_two_param` for a stack of points:
    the weight G, (T, 2, 2) normalized weights ``g_n`` and roots of J^S,
    (T,) signed betas and coherent flags.  Returns the values (T,), and
    V_opt and C as (T, 2, 2) stacks.  The curve is minimized row by row."""
    r, gw = _so2_diagonalizer(g_n)
    rows = zip(gw[:, 0].tolist(), gw[:, 1].tolist(), beta_signed.tolist(),
               coherent)
    # per row u, v, the value and g1 lambda; R diag(u, v) is R scaled by
    # column, and R [[0, -g1 lambda], [g1 lambda, 0]] is R with its
    # columns swapped and scaled by (g1 lambda, -g1 lambda)
    out = np.array([_curve_optimum(*row) for row in rows])
    r_t = r.swapaxes(1, 2)
    v_opt = s_inv_half @ ((r * out[:, None, :2]) @ r_t) @ s_inv_half
    v_opt = 0.5 * (v_opt + v_opt.swapaxes(1, 2))
    c = (s_inv_half @ s_inv_half).astype(complex)
    plain = ~coherent
    if plain.any():
        # C = V G (G - i Lambda)^{-1} is unchanged by (G, Lambda) -> 4^j (G,
        # Lambda): formed with |G| near 1, a subnormal G cannot overflow it
        k = -2 * (np.frexp(np.abs(g).max())[1] // 2)
        lam_rot = r[..., ::-1] * (np.ldexp(out[:, 3], k)[:, None, None]
                                  * np.array([1.0, -1.0]))
        lam = (s_half @ (lam_rot @ r_t) @ s_half)[plain]
        g = np.ldexp(g, k)
        c[plain] = v_opt[plain] @ g @ np.linalg.inv(g - 1j * lam)
    return out[:, 2], v_opt, c


def _curve_optimum(g1, g2, beta_signed, coherent):
    """Normalized variances u, v, the value and g1 lambda (lambda the
    Lagrange multiplier) of one point, from the weight's eigenvalues
    g1 >= g2 and the signed beta; the stationarity system is checked as a
    residual.  The weight is not rank-one: that has no finite optimizer."""
    if coherent:
        # classified coherent: the exact beta = 1 curve (u-1)(v-1) = 1, with
        # its minimum in closed form
        beta_signed = np.copysign(1.0, beta_signed) if beta_signed else 1.0
        s2 = math.sqrt(g2 / g1)
        u, v = 1.0 + s2, 1.0 + 1.0 / s2
        value = g1 * u + g2 * v
    else:
        u, v, value = _minimize_on_curve(g1, g2, abs(beta_signed))

    # Lagrange multiplier and stationarity residuals, in the normalized
    # rotated frame with the weight scaled to diag(1, gr):
    gr = g2 / g1
    bs = beta_signed
    lam = -u * v * bs * gr / (v * gr + u)
    r1 = u + v * lam * lam - u * u
    r2 = v * gr * gr + u * lam * lam - v * v * gr * gr
    tol = LAGRANGE_RESIDUAL_TOL * max(1.0, u * u, v * v)
    for r in (r1, r2):    # each alone: a NaN is lost in max(r1, r2)
        _require(abs(r), tol, "stationarity residuals too large")
    return u, v, value, g1 * lam


def boundary_curve(beta, samples=100, x_range=None):
    """Boundary of the achievable normalized-variance region in the
    (x, z) = ((u-v)/2, (u+v)/2) plane.

    Returns a list of rows ``(x, z, branch)`` with branch "curve" for the
    `samples` boundary points plus one "line_plus" / "line_minus" row each
    marking the half-lines z = 1 +- x that continue the boundary outward.
    The curved portion is the constraint curve of :func:`_minimize_on_curve`,
    solved at each x by the same bisection; beyond its reach the boundary
    continues along z = 1 + |x| (the curve meets the half-lines
    tangentially).
    """
    if not (0.0 <= beta <= 1.0 + ARG_BETA_SLACK):
        raise ValidationError(f"beta must be in [0, 1], got {beta}")
    beta = min(beta, 1.0)
    if samples < 2:
        raise ValidationError("samples must be >= 2")
    if x_range is not None and not (np.isfinite(x_range) and x_range > 0):
        raise ValidationError(f"x_range must be finite and > 0, got {x_range}")
    if x_range is None:
        x_max = 4.0 if beta == 1.0 else beta**2 / (1.0 - beta**2)
    else:
        x_max = float(x_range)
    # the samples span 2 x_max, which overflows above half the largest float
    with np.errstate(over="ignore", invalid="ignore"):
        xs = np.linspace(-x_max, x_max, samples)
    if not np.isfinite(xs).all():
        raise ValidationError(
            f"x_range must be at most {float(np.finfo(float).max) / 2!r} for "
            f"the samples to stay finite, got {x_range}")

    if beta == 0.0:
        rows = [(0.0, 1.0, "curve") for _ in range(samples)]
        rows.append((0.0, 1.0, "line_plus"))
        rows.append((0.0, 1.0, "line_minus"))
        return rows

    # u = sec^2 a and v = sec^2 (gamma - a) with beta = sin gamma, as in
    # _minimize_on_curve: x = (tan^2 a - tan^2 (gamma - a)) / 2 spans
    # +-tan^2 gamma / 2, and z = 1 + |x| + min(tan a, tan(gamma - a))^2.
    # At beta = 1 the hyperbola's 1 + x^2 rounds to x^2 from |x| = 2^27 on.
    gamma = math.asin(beta)
    reach = 2.0**27 if beta == 1.0 else 0.5 * math.tan(gamma) ** 2

    def z_of(x):
        if abs(x) >= reach:
            return 1.0 + abs(x)  # the half-line, or the hyperbola to the bit
        if beta == 1.0:
            return 1.0 + math.sqrt(1.0 + x * x)  # hyperbola (z-1)^2 - x^2 = 1
        a = _bisect(lambda a: math.tan(a) ** 2 - math.tan(gamma - a) ** 2
                    - 2.0 * x, 0.0, gamma)
        return 1.0 + abs(x) + min(math.tan(a), math.tan(gamma - a)) ** 2

    rows = [(float(x), float(z_of(x)), "curve") for x in xs]
    rows.append((float(x_max), float(1.0 + x_max), "line_plus"))
    rows.append((float(-x_max), float(1.0 + x_max), "line_minus"))
    return rows


def cr_coherent(geom, weight):
    """Closed form for coherent models (all beta = 1):
    Tr G J^{S-1} + Tr abs(G J^{S-1} J~ J^{S-1}), the last term the sum of
    |w| over the eigenvalues of iK, K = G^{1/2} J^{S-1} J~ J^{S-1} G^{1/2}
    (real antisymmetric, same nonzero spectrum); |K| = U |w| U^dag."""
    if not geom.coherent:
        raise ValidationError("cr_coherent requires a coherent model")
    g_half = _sqrtm_psd(weight.G)
    js_inv = np.linalg.inv(geom.JS)
    core = g_half @ js_inv @ geom.Jtilde @ js_inv @ g_half
    w, u = np.linalg.eigh(0.5j * (core - core.T))
    value = float(sld_bound(geom, weight).cr_value + np.abs(w).sum())

    if not weight.strict:
        return BoundResult(cr_value=value, method="coherent",
                           attained="infimum_only",
                           note="singular weight: closed form is proved for "
                                "strictly positive G; value is an infimum")

    g_inv_half = np.linalg.inv(g_half)
    abs_core = ((u * np.abs(w)) @ u.conj().T).real
    v_opt = js_inv + g_inv_half @ abs_core @ g_inv_half
    return BoundResult(cr_value=value, method="coherent",
                       V_opt=0.5 * (v_opt + v_opt.T), C=js_inv)


def cr_general_js(geom):
    """Invariant-weight bound CR(J^S) for a general pure model: over the m
    eigenvalue moduli alpha of J^{S-1} J~, the sum of
    2 / (1 + sqrt(1 - alpha^2)); each beta pair contributes twice and each
    zero eigenvalue 1.  Equals m when quasi-classical and 2m when
    coherent."""
    betas = np.clip(geom.beta_pairs, 0.0, 1.0)
    value = float(np.sum(4.0 / (1.0 + np.sqrt(1.0 - betas**2)))
                  + geom.n_zero)
    return BoundResult(cr_value=value, method="general_js",
                       note="weight G = J^S")


def cr_direct_sum(geom, weight):
    """Additive bound over informationally independent blocks.

    The blocks come from :func:`decompose_direct_sum` of ``geom``.  The
    weight must be block-diagonal in the decomposition's coordinates
    (relative off-block mass <= ``OFF_BLOCK_RTOL``); otherwise no closed
    form applies and the caller should fall back to the oracle interval.
    """
    blocks, a = decompose_direct_sum(geom)
    a_inv = np.linalg.inv(a)
    g_new = a_inv.T @ weight.G @ a_inv
    g_new = 0.5 * (g_new + g_new.T)
    jt_new = a_inv.T @ geom.Jtilde @ a_inv

    mask = np.zeros_like(g_new, dtype=bool)
    for blk in blocks:
        idx = np.array(blk.indices)
        mask[np.ix_(idx, idx)] = True
    _require(np.abs(np.where(mask, 0.0, g_new)),
             OFF_BLOCK_RTOL * max(1.0, np.max(np.abs(g_new))),
             "weight couples independent blocks; no closed form "
             "(use the oracle + SLD floor interval)", ValidationError)

    total = 0.0
    v_new = np.zeros_like(g_new)
    attained = "attained"
    for blk in blocks:
        idx = np.array(blk.indices)
        gb = g_new[np.ix_(idx, idx)]
        if len(idx) == 1:
            total += gb[0, 0] * 1.0  # normalized 1-parameter block: J^S = 1
            v_new[idx[0], idx[0]] = 1.0
            continue
        sub = InfoGeometry(JS=np.eye(2), Jtilde=jt_new[np.ix_(idx, idx)])
        res = cr_two_param(sub, WeightMatrix.from_matrix(gb))
        total += res.cr_value
        if res.attained == "infimum_only":
            attained = "infimum_only"
        if res.V_opt is not None:
            v_new[np.ix_(idx, idx)] = res.V_opt
    v_opt = a_inv @ v_new @ a_inv.T
    return BoundResult(cr_value=float(total), method="direct_sum",
                       attained=attained, V_opt=0.5 * (v_opt + v_opt.T))
