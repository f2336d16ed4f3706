"""Attainable Cramer-Rao-type bounds for pure-state models.

Implements the SLD matrix bound, the exact two-parameter solution (via the
constraint curve between the two normalized variances), the coherent-model
closed form, the invariant-weight bound for general pure models, and
direct-sum additivity over informationally independent blocks.
:func:`attainable_bound` picks the closed form that applies at a point.
"""

from dataclasses import dataclass

import numpy as np

from .operators import (
    SINGULAR_RTOL,
    InternalConsistencyError,
    ValidationError,
    _sqrtm_psd,
    as_hermitian,
)
from .geometry import (
    COHERENT_BETA_TOL,
    QUASI_CLASSICAL_RTOL,
    InfoGeometry,
    _normalized_skew,
    decompose_direct_sum,
)

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

LAGRANGE_RESIDUAL_TOL = 1e-8
BISECTION_TOL = 1e-14


@dataclass(frozen=True)
class WeightMatrix:
    """Real symmetric PSD weight G for the scalar risk Tr G V."""

    G: np.ndarray
    strict: bool

    @classmethod
    def from_matrix(cls, g):
        """Validated weight: a finite real symmetric PSD square matrix."""
        try:
            g = np.asarray(g, dtype=float)
        except (TypeError, ValueError):
            raise ValidationError("weight matrix must be a square array of "
                                  "numbers")
        if not np.all(np.isfinite(g)):
            raise ValidationError("weight matrix has non-finite entries")
        g = as_hermitian(g).real
        w = np.linalg.eigvalsh(g)
        cutoff = SINGULAR_RTOL * max(1.0, abs(w[-1]))
        if w[0] < -cutoff:
            raise ValidationError(f"weight matrix has eigenvalue {w[0]:.3e} < 0")
        return cls(G=g, strict=bool(w[0] > cutoff))


@dataclass(frozen=True)
class BoundResult:
    """Value and optimizer of a CR-type bound.

    ``attained`` is "attained" when some locally unbiased measurement
    realizes V_opt, "infimum_only" when the value is approached but not
    realized (rank-deficient weights on maximally incompatible pairs).
    """

    cr_value: float
    method: str
    attained: str = "attained"
    V_opt: np.ndarray = None
    Lambda: np.ndarray = None
    note: str = ""


def sld_bound(geom, weight):
    """SLD floor Tr G J^{S-1} of the matrix bound V >= J^{S-1}; attainable
    iff the model is quasi-classical at the point."""
    js_inv = np.linalg.inv(geom.JS)
    return BoundResult(
        cr_value=float(np.trace(weight.G @ js_inv)),
        method="sld",
        attained="attained" if geom.quasi_classical else "infimum_only",
        V_opt=0.5 * (js_inv + js_inv.T),
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


def _curve_t(s, beta):
    """Second normalized coordinate on the constraint curve
    sqrt(u-1) + sqrt(v-1) = beta sqrt(uv), rational in s = sqrt(u-1):
    t = (beta - c s) / (c + beta s) with c = sqrt(1 - beta^2)."""
    c = np.sqrt(max(0.0, 1.0 - beta * beta))
    return (beta - c * s) / (c + beta * s)


def _minimize_on_curve(g1, g2, beta):
    """Minimize g1 (1+s^2) + g2 (1+t(s)^2) over the constraint curve.

    Stationarity f'(s) = 2 g1 s - 2 g2 t / (c + beta s)^2 has a single sign
    change on the admissible s-interval; solve it by bisection.
    Returns (u, v, value).
    """
    if beta <= 1e-14:
        return 1.0, 1.0, g1 + g2
    c = np.sqrt(max(0.0, 1.0 - beta * beta))

    def fprime(s):
        t = _curve_t(s, beta)
        return 2.0 * g1 * s - 2.0 * g2 * t / (c + beta * s) ** 2

    if c < 1e-14:
        # beta = 1: curve is (u-1)(v-1) = 1, minimum in closed form
        s2 = np.sqrt(g2 / g1)
        u, v = 1.0 + s2, 1.0 + 1.0 / s2
        return u, v, g1 * u + g2 * v

    lo, hi = 0.0, beta / c
    flo, fhi = fprime(lo), fprime(hi)
    if not (flo <= 0.0 <= fhi):
        raise InternalConsistencyError(
            f"stationarity bracket failed: f'({lo})={flo}, f'({hi})={fhi}")
    while hi - lo > BISECTION_TOL * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if fprime(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    s = 0.5 * (lo + hi)
    t = _curve_t(s, beta)
    u, v = 1.0 + s * s, 1.0 + t * t
    return u, v, g1 * u + g2 * v


def _so2_diagonalizer(g):
    """Proper rotation R (det +1) with R^T g R diagonal, larger eigenvalue
    first.  Properness keeps the sign of the antisymmetric part intact."""
    w, r = np.linalg.eigh(g)
    # eigh returns ascending; we want descending
    r = r[:, ::-1]
    if np.linalg.det(r) < 0:
        r[:, 1] = -r[:, 1]
    return r, w[::-1]


def cr_two_param(geom, weight):
    """Exact attainable bound for 2-parameter pure models.

    Coordinates are normalized so J^S = I (congruence by J^{S-1/2}), the
    weight is rotated diagonal, and the scalar risk is minimized on the
    constraint curve between the two normalized variances.  The Lagrange
    multiplier lambda is recovered in closed form and the full stationarity
    system is checked as a residual.
    """
    if geom.m != 2:
        raise ValidationError("cr_two_param requires a 2-parameter model")
    g = weight.G
    jt_n, s_half, s_inv = _normalized_skew(geom.JS, geom.Jtilde)
    beta_signed = jt_n[1, 0]
    beta = abs(beta_signed)
    g_n = s_inv @ g @ s_inv
    g_n = 0.5 * (g_n + g_n.T)

    gw = np.linalg.eigvalsh(g_n)
    rank1 = gw[0] <= SINGULAR_RTOL * max(1.0, gw[-1])

    if rank1:
        # Tr G V is constant (= g1 * 1) along the achievable half-line; for
        # maximally incompatible pairs no finite optimizer exists.
        g1 = gw[-1]
        value = g1 * 1.0
        if g1 <= 0:
            return BoundResult(cr_value=0.0, method="two_param",
                               note="zero weight")
        if beta >= 1.0 - COHERENT_BETA_TOL:
            return BoundResult(cr_value=float(value), method="two_param",
                               attained="infimum_only",
                               note="rank-one weight on a maximally "
                                    "incompatible pair: infimum only")
        # attained on the half-line: unit variance in the weighted direction,
        # the free direction inflated to v = 1 + 2 beta^2 / (1 - beta^2)
        r, _ = _so2_diagonalizer(g_n)
        v_line = np.diag([1.0, 1.0 + 2.0 * beta**2 / (1.0 - beta**2)])
        v_opt = s_inv @ (r @ v_line @ r.T) @ s_inv
        return BoundResult(cr_value=float(value), method="two_param",
                           V_opt=v_opt)

    if beta >= 1.0 - COHERENT_BETA_TOL:
        # classified coherent: use the exact beta = 1 curve (the bisection
        # bracket degenerates as beta -> 1 and loses accuracy)
        beta_signed = np.copysign(1.0, beta_signed) if beta_signed else 1.0
        beta = 1.0
    r, (g1, g2) = _so2_diagonalizer(g_n)
    u, v, value = _minimize_on_curve(g1, g2, beta)

    # Lagrange multiplier and stationarity residuals, in the normalized
    # rotated frame with the weight scaled to diag(1, gr):
    gr = g2 / g1
    bs = beta_signed
    lam = -u * v * bs * gr / (v * gr + u)
    r1 = u + v * lam * lam - u * u
    r2 = v * gr * gr + u * lam * lam - v * v * gr * gr
    scale = max(1.0, u * u, v * v)
    if max(abs(r1), abs(r2)) > LAGRANGE_RESIDUAL_TOL * scale:
        raise InternalConsistencyError(
            f"stationarity residuals too large: {r1:.3e}, {r2:.3e}")

    v_rot = np.diag([u, v])
    lam_rot = g1 * np.array([[0.0, -lam], [lam, 0.0]])
    v_opt = s_inv @ (r @ v_rot @ r.T) @ s_inv
    lam_full = s_half @ (r @ lam_rot @ r.T) @ s_half
    return BoundResult(cr_value=float(value), method="two_param",
                       V_opt=0.5 * (v_opt + v_opt.T), Lambda=lam_full)


def boundary_curve(beta, samples=100, x_range=None):
    """Boundary of the achievable normalized-variance region in the
    (x, z) = ((u-v)/2, (u+v)/2) plane.

    Returns a list of rows ``(x, z, branch)`` with branch "curve" for the
    `samples` boundary points plus one "line_plus" / "line_minus" row each
    marking the half-lines z = 1 +- x that continue the boundary outward.
    The curved portion solves the stationary-boundary equation by bisection;
    beyond its reach the boundary continues along z = 1 + |x| (the curve
    meets the half-lines tangentially).
    """
    if not (0.0 <= beta <= 1.0 + 1e-12):
        raise ValidationError(f"beta must be in [0, 1], got {beta}")
    beta = min(beta, 1.0)
    if samples < 2:
        raise ValidationError("samples must be >= 2")
    c = np.sqrt(max(0.0, 1.0 - beta * beta))

    if beta == 0.0:
        rows = [(0.0, 1.0, "curve") for _ in range(samples)]
        rows.append((0.0, 1.0, "line_plus"))
        rows.append((0.0, 1.0, "line_minus"))
        return rows

    if x_range is None:
        x_max = 4.0 if c < 1e-12 else beta**2 / (1.0 - beta**2)
    else:
        x_max = float(x_range)

    def z_of(x):
        if c < 1e-12:
            return 1.0 + np.sqrt(1.0 + x * x)  # hyperbola (z-1)^2 - x^2 = 1

        def f(z):
            sp = np.sqrt(max(0.0, z + x - 1.0))
            sm = np.sqrt(max(0.0, z - x - 1.0))
            return beta * sp * sm + c * (sp + sm) - beta

        lo = 1.0 + abs(x)
        if f(lo) >= -1e-15:
            return lo  # outside the curved reach: boundary is the half-line
        hi = lo + 2.0
        while f(hi) < 0.0:
            hi += 2.0
        while hi - lo > BISECTION_TOL * max(1.0, hi):
            mid = 0.5 * (lo + hi)
            if f(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    xs = np.linspace(-x_max, x_max, samples)
    rows = [(float(x), float(z_of(x)), "curve") for x in xs]
    rows.append((float(x_max), float(1.0 + x_max), "line_plus"))
    rows.append((float(-x_max), float(1.0 + x_max), "line_minus"))
    return rows


def cr_coherent(geom, weight):
    """Closed form for coherent models (all beta = 1):
    Tr G J^{S-1} + Tr abs(G J^{S-1} J~ J^{S-1})."""
    if not geom.coherent:
        raise ValidationError("cr_coherent requires a coherent model")
    g = weight.G
    js_inv = np.linalg.inv(geom.JS)
    a = g @ js_inv @ geom.Jtilde @ js_inv
    eig = np.linalg.eigvals(a)
    value = float(sld_bound(geom, weight).cr_value + np.sum(np.abs(eig)))

    if not weight.strict:
        return BoundResult(cr_value=value, method="coherent",
                           attained="infimum_only",
                           note="singular weight: closed form is proved for "
                                "strictly positive G; value is an infimum")

    g_half = _sqrtm_psd(g)
    g_inv_half = np.linalg.inv(g_half)
    core = g_half @ js_inv @ geom.Jtilde @ js_inv @ g_half
    abs_core = _sqrtm_psd(core @ core.conj().T)
    v_opt = js_inv + g_inv_half @ abs_core @ g_inv_half
    return BoundResult(cr_value=value, method="coherent",
                       V_opt=0.5 * (v_opt + v_opt.T))


def cr_general_js(geom):
    """Invariant-weight bound CR(J^S) for a general pure model:
    sum over all m eigenvalue moduli alpha of J^{S-1} J~ of
    2 / (1 + sqrt(1 - alpha^2)).  Equals m when quasi-classical and 2m when
    coherent."""
    moduli = geom.eigenvalue_moduli()
    moduli = np.clip(moduli, 0.0, 1.0)
    value = float(np.sum(2.0 / (1.0 + np.sqrt(1.0 - moduli**2))))
    return BoundResult(cr_value=value, method="general_js",
                       note="weight G = J^S")


def cr_direct_sum(geom, weight):
    """Additive bound over informationally independent blocks.

    The blocks come from :func:`decompose_direct_sum` of ``geom``.  The
    weight must be block-diagonal in the decomposition's coordinates
    (off-block mass <= 1e-10 relative); otherwise the closed form does not
    apply and the caller should fall back to the oracle interval.
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
    off = np.max(np.abs(np.where(mask, 0.0, g_new)))
    if off > 1e-10 * max(1.0, np.max(np.abs(g_new))):
        raise ValidationError(
            "weight couples independent blocks; no closed form "
            "(use the oracle + SLD floor interval)")

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
        sub = InfoGeometry(JS=np.eye(2), Jtilde=jt_new[np.ix_(idx, idx)],
                           beta_pairs=(blk.beta,), n_zero=0,
                           quasi_classical=blk.beta <= QUASI_CLASSICAL_RTOL,
                           coherent=abs(blk.beta - 1) <= COHERENT_BETA_TOL)
        res = cr_two_param(sub, WeightMatrix.from_matrix(gb))
        total += res.cr_value
        if res.attained == "infimum_only":
            attained = "infimum_only"
        if res.V_opt is not None:
            v_new[np.ix_(idx, idx)] = res.V_opt
    v_opt = a_inv @ v_new @ a_inv.T
    return BoundResult(cr_value=float(total), method="direct_sum",
                       attained=attained, V_opt=0.5 * (v_opt + v_opt.T))
