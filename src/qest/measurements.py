"""Measurement-side machinery: outcome statistics and classical Fisher
information, optimal locally unbiased post-processing, the projective
measurements realizing the SLD bound of quasi-classical pure models and the
two-parameter exact bound (built from estimation vectors in a dilated space),
the commuting-SLD estimator for faithful models, and Naimark compression.
"""

from dataclasses import dataclass, field

import numpy as np

from .operators import (
    DERIV_FLOOR,
    PROB_FLOOR,
    SINGULAR_RTOL,
    InternalConsistencyError,
    ValidationError,
    _sqrtm_psd,
    gram_schmidt_real_coefficients,
)
from .models import _embed_frame
from .geometry import COHERENT_BETA_TOL, _normalized_skew
from .bounds import _so2_diagonalizer

__all__ = [
    "PvmEstimator",
    "EstimationVectors",
    "outcome_distribution",
    "classical_fisher",
    "optimal_postprocessing",
    "construct_pvm_from_vectors",
    "optimal_vectors_sld",
    "optimal_vectors_two_param",
    "commuting_sld_estimator",
    "naimark_compress",
]

PVM_TOL = 1e-10
UNBIASED_TOL = 1e-8
XCHECK_TOL = 1e-8
COMMUTATOR_TOL = 1e-8


@dataclass
class PvmEstimator:
    """Projective measurement with per-outcome estimates.

    ``projectors[k]`` is Hermitian idempotent on a space of dimension
    ``ambient_dim``; projectors sum to the identity.  ``estimates[k]`` is the
    parameter estimate announced on outcome k.
    """

    projectors: list
    estimates: list
    ambient_dim: int
    meta: dict = field(default_factory=dict)

    def validate(self):
        total = np.zeros((self.ambient_dim, self.ambient_dim), dtype=complex)
        for p in self.projectors:
            if np.max(np.abs(p - p.conj().T)) > PVM_TOL:
                raise ValidationError("projector not Hermitian")
            if np.max(np.abs(p @ p - p)) > PVM_TOL:
                raise ValidationError("projector not idempotent")
            total += p
        if np.max(np.abs(total - np.eye(self.ambient_dim))) > PVM_TOL:
            raise ValidationError("projectors do not sum to identity")


@dataclass(frozen=True)
class EstimationVectors:
    """Columns x^1..x^m and base point phi in a common (possibly dilated)
    space, satisfying <phi|x^i> = 0, Re X*L = I and Im X*X = 0."""

    phi: np.ndarray
    X: np.ndarray  # shape (dim, m)
    theta: np.ndarray


def outcome_distribution(frame, projectors):
    """Probabilities p_k = tr(rho P_k) and derivatives dp_k/dtheta_i.

    ``frame`` supplies the state and its tangent data; projectors act on the
    same space as the frame (no dilation here -- compress first).
    """
    m = frame.m
    n = len(projectors)
    p = np.zeros(n)
    dp = np.zeros((m, n))
    if frame.pure:
        phi = frame.phi
        for k, proj in enumerate(projectors):
            pk = np.vdot(phi, proj @ phi).real
            p[k] = max(pk, 0.0) if pk > -PROB_FLOOR else 0.0
            if pk < -PROB_FLOOR:
                raise ValidationError(f"negative outcome probability {pk:.3e}")
            for i, l in enumerate(frame.lifts):
                dp[i, k] = np.vdot(l, proj @ phi).real
    else:
        rho = frame.rho
        drhos = [0.5 * (l @ rho + rho @ l) for l in frame.slds]
        for k, proj in enumerate(projectors):
            pk = np.trace(rho @ proj).real
            p[k] = max(pk, 0.0)
            for i in range(m):
                dp[i, k] = np.trace(drhos[i] @ proj).real
    return p, dp


def classical_fisher(p, dp):
    """Classical Fisher matrix of an outcome distribution.

    Outcomes with p <= PROB_FLOOR are excluded; if such an outcome still has
    a first-order probability flow (|dp| > DERIV_FLOOR) the information
    diverges in that direction and the result carries ``singular=True``.

    Returns ``(J_M, singular)``.
    """
    p = np.asarray(p, dtype=float)
    dp = np.asarray(dp, dtype=float)
    live = p > PROB_FLOOR
    singular = bool(np.any(~live & (np.max(np.abs(dp), axis=0) > DERIV_FLOOR)))
    sel = dp[:, live] / np.sqrt(p[live])
    jm = sel @ sel.T
    return 0.5 * (jm + jm.T), singular


def optimal_postprocessing(p, dp, g):
    """Best locally unbiased post-processing of a fixed measurement.

    Returns ``(min Tr G V, corrections)`` where corrections[k] is the
    estimate offset from theta on outcome k: J_M^{-1} score_k.
    Outcomes with p ~ 0 get correction 0.
    """
    jm, singular = classical_fisher(p, dp)
    if singular:
        raise ValidationError(
            "unbounded information direction: zero-probability outcome with "
            "nonzero derivative")
    w = np.linalg.eigvalsh(jm)
    if w[0] <= SINGULAR_RTOL * max(1.0, w[-1]):
        raise ValidationError("singular classical Fisher matrix: "
                              "interval-only result")
    jm_inv = np.linalg.inv(jm)
    value = float(np.trace(np.asarray(g) @ jm_inv))
    corrections = np.zeros((len(p), jm.shape[0]))
    live = p > PROB_FLOOR
    scores = np.zeros_like(corrections)
    scores[live] = (dp[:, live] / p[live]).T
    corrections[live] = scores[live] @ jm_inv.T
    return value, corrections


def _householder_orthogonal(k):
    """Symmetric orthogonal (k x k) matrix whose first column is the uniform
    vector (1,...,1)/sqrt(k): the Householder reflection swapping e_1 with it."""
    c = np.full(k, 1.0 / np.sqrt(k))
    e1 = np.zeros(k)
    e1[0] = 1.0
    w = e1 - c
    nw = np.linalg.norm(w)
    if nw < 1e-14:
        return np.eye(k)
    w /= nw
    return np.eye(k) - 2.0 * np.outer(w, w)


def construct_pvm_from_vectors(vectors, rng_seed=0):
    """Projective measurement realizing the covariance Re X*X.

    Given estimation vectors (phi, X) with real Gram data (<phi|x^i> = 0,
    Im X*X = 0), orthonormalizes {phi, x^1..x^m} with real coefficients,
    mixes the resulting basis by a real orthogonal O whose first column is
    uniform (so every mixed vector overlaps phi), and returns the rank-one
    projectors |b'_k><b'_k| plus a remainder projector with estimate theta.

    Output covariance equals Re X*X and the measurement is locally unbiased;
    both are verified before returning.
    """
    phi = vectors.phi
    xs = [vectors.X[:, i] for i in range(vectors.X.shape[1])]
    theta = vectors.theta
    dim = len(phi)

    basis, coeffs, rank = gram_schmidt_real_coefficients([phi] + xs)
    if dim < rank:
        raise ValidationError("ambient space too small for the construction")
    # lam[i, j]: coefficient of x^i on basis vector j (row 0 of coeffs is phi)
    lam = coeffs[1:]

    k = rank
    o = _householder_orthogonal(k)
    rng = np.random.default_rng(rng_seed)
    for _ in range(32):
        overlaps = o[:, 0]  # <b'_kappa | phi> since b^1 = phi
        if np.min(np.abs(overlaps)) > 1e-9:
            break
        q, r = np.linalg.qr(rng.standard_normal((k, k)))
        o = q * np.sign(np.diag(r))
    else:
        raise InternalConsistencyError("could not find an orthogonal mix "
                                       "with nonzero overlaps")

    bmat = np.column_stack(basis)          # dim x k
    bprime = bmat @ o.T                    # columns are b'_kappa
    projectors = []
    estimates = []
    for kappa in range(k):
        v = bprime[:, kappa]
        projectors.append(np.outer(v, v.conj()))
        corr = (lam @ o[kappa, :]) / o[kappa, 0]
        estimates.append(theta + corr)
    rem = np.eye(dim, dtype=complex) - bmat @ bmat.conj().T
    if np.max(np.abs(rem)) > PVM_TOL:
        projectors.append(rem)
        estimates.append(theta.copy())

    pvm = PvmEstimator(projectors=projectors, estimates=estimates,
                       ambient_dim=dim)
    pvm.validate()

    # verify local unbiasedness and the covariance identity
    p = np.array([np.vdot(phi, proj @ phi).real for proj in projectors])
    est = np.array(estimates)
    mean = p @ est
    if np.max(np.abs(mean - theta)) > UNBIASED_TOL:
        raise InternalConsistencyError("constructed PVM is biased")
    dev = est - theta
    cov = (dev * p[:, None]).T @ dev
    target = (vectors.X.conj().T @ vectors.X).real
    if np.max(np.abs(cov - target)) > 1e-9 * max(1.0, np.max(np.abs(target))):
        raise InternalConsistencyError(
            "constructed PVM covariance does not match Re X*X")
    pvm.meta["covariance"] = cov
    return pvm


def _verified_vectors(frame, phi_e, l_e, x_e, v_opt):
    """Estimation vectors after checking Re X*L = I, Im X*X = 0,
    Re X*X = V and <phi|x^i> = 0 in the dilated space."""
    xl = x_e.conj().T @ l_e
    dev = np.max(np.abs(xl.real - np.eye(frame.m)))
    if dev > XCHECK_TOL:
        raise InternalConsistencyError(f"Re X*L != I (max dev {dev:.3e})")
    xx = x_e.conj().T @ x_e
    scale = max(1.0, np.max(np.abs(xx)))
    if np.max(np.abs(xx.imag)) > XCHECK_TOL * scale:
        raise InternalConsistencyError("Im X*X != 0")
    if np.max(np.abs(xx.real - v_opt)) > XCHECK_TOL * scale:
        raise InternalConsistencyError("Re X*X != V")
    if np.max(np.abs(x_e.conj().T @ phi_e)) > XCHECK_TOL:
        raise InternalConsistencyError("<phi|x^i> != 0")
    return EstimationVectors(phi=phi_e, X=x_e,
                             theta=np.asarray(frame.theta, dtype=float))


def optimal_vectors_sld(frame, bound):
    """Estimation vectors X = L J^{S-1} attaining the SLD bound of a
    quasi-classical pure model, for any weight and any m.

    ``bound`` is the :func:`~qest.bounds.sld_bound` result (V = J^{S-1});
    the vectors stay in the span of phi and the lifts, so no dilation
    beyond m + 1 dimensions is needed.  Returns ``(vectors, basis)`` like
    :func:`optimal_vectors_two_param`.
    """
    if bound.method != "sld" or bound.attained != "attained":
        raise ValidationError("requires an attained SLD bound "
                              "(quasi-classical model)")
    basis, phi_e, l_e = _embed_frame(frame, frame.m + 1)
    x_e = l_e @ bound.V_opt
    return _verified_vectors(frame, phi_e, l_e, x_e, bound.V_opt), basis


def optimal_vectors_two_param(frame, weight, bound):
    """Estimation vectors attaining the two-parameter exact bound, in a
    dilated space of dimension 2m+1 = 5.

    Away from maximal incompatibility the vectors stay in the span of the
    lifts: X = L V G (G - i Lambda)^{-1} with (V, Lambda) from
    ``cr_two_param``.  When beta is within 1e-6 of 1 that matrix is (nearly)
    singular and the optimizer genuinely needs the dilation: in normalized
    rotated coordinates X = L'' + Y with Y orthogonal to the physical span
    and Y*Y = V'' - L''*L''.  Both branches verify Re X*L = I, Im X*X = 0
    and Re X*X = V before returning.
    """
    if not frame.pure or frame.m != 2:
        raise ValidationError("requires a 2-parameter pure model")
    if bound.V_opt is None:
        raise ValidationError("bound carries no optimizer (infimum only?)")
    g = np.asarray(weight.G, dtype=float)
    v_opt = bound.V_opt

    dilate_dim = 2 * frame.m + 1
    basis, phi_e, l_e = _embed_frame(frame, dilate_dim)
    span_k = basis.shape[1]

    # normalized rotated frame data
    ll = l_e.conj().T @ l_e
    jt_n, s_half, s_inv = _normalized_skew(ll.real, ll.imag)
    beta = abs(jt_n[1, 0])

    if beta < 1.0 - COHERENT_BETA_TOL:
        if bound.Lambda is None:
            raise ValidationError("bound carries no Lagrange multiplier")
        x_e = l_e @ v_opt @ g @ np.linalg.inv(g - 1j * bound.Lambda)
    else:
        if span_k + 2 > dilate_dim:
            raise InternalConsistencyError("dilated space too small")
        g_n = s_inv @ g @ s_inv
        r, _ = _so2_diagonalizer(0.5 * (g_n + g_n.T))
        l_rot = l_e @ s_inv @ r
        v_rot = r.T @ (s_half @ v_opt @ s_half) @ r
        q = v_rot - l_rot.conj().T @ l_rot
        q = 0.5 * (q + q.conj().T)
        wq = np.linalg.eigvalsh(q)
        if wq[0] < -1e-7:
            raise InternalConsistencyError(
                f"dilation tail not PSD (min eig {wq[0]:.3e})")
        extra = np.zeros((dilate_dim, 2), dtype=complex)
        extra[span_k, 0] = 1.0
        extra[span_k + 1, 1] = 1.0
        x_rot = l_rot + extra @ _sqrtm_psd(q)
        x_e = x_rot @ r.T @ s_inv

    return _verified_vectors(frame, phi_e, l_e, x_e, v_opt), basis


def commuting_sld_estimator(frame, geom):
    """Optimal projective estimator for a faithful model with commuting SLDs.

    ``frame`` is the mixed tangent frame at theta and ``geom`` its
    information geometry (only J^S is read).  Measures the simultaneous
    eigenbasis of the SLDs and announces theta + J^{S-1} lambda(omega), where
    lambda_k(omega) is the eigenvalue of L_k on the outcome vector.
    Covariance equals J^{S-1}.
    """
    if frame.pure:
        raise ValidationError("the commuting-SLD estimator needs a faithful "
                              "mixed frame")
    slds = frame.slds
    m = len(slds)
    scale = max(max(np.max(np.abs(l)) for l in slds), 1e-300)
    for i in range(m):
        for j in range(i + 1, m):
            comm = slds[i] @ slds[j] - slds[j] @ slds[i]
            nrm = np.max(np.abs(comm))
            if nrm > COMMUTATOR_TOL * scale**2:
                raise ValidationError(
                    f"SLDs do not commute: max |[L_{i},L_{j}]| = {nrm:.3e}")

    # simultaneous eigenbasis via a generic linear combination
    rng = np.random.default_rng(7)
    dim = len(frame.rho)
    for _ in range(16):
        c = rng.standard_normal(m)
        mix = sum(ci * li for ci, li in zip(c, slds))
        mix = mix + rng.standard_normal() * frame.rho  # break ties generically
        _, u = np.linalg.eigh(0.5 * (mix + mix.conj().T))
        diag_ok = all(
            np.max(np.abs(u.conj().T @ l @ u
                          - np.diag(np.diag(u.conj().T @ l @ u))))
            <= 1e-6 * max(1.0, np.max(np.abs(l))) for l in slds)
        if diag_ok:
            break
    else:
        raise InternalConsistencyError("simultaneous diagonalization failed")

    js_inv = np.linalg.inv(geom.JS)
    projectors = []
    estimates = []
    for w in range(dim):
        v = u[:, w]
        projectors.append(np.outer(v, v.conj()))
        lam = np.array([np.vdot(v, l @ v).real for l in slds])
        estimates.append(frame.theta + js_inv @ lam)
    pvm = PvmEstimator(projectors=projectors, estimates=estimates,
                       ambient_dim=dim)
    pvm.validate()
    return pvm


def naimark_compress(pvm, embedding):
    """Compress a dilated PVM to POVM elements on the base space.

    ``embedding`` is the (base_dim x k) orthonormal matrix whose columns span
    the physically relevant subspace; the dilated space holds that subspace
    in its first k coordinates.  Returns POVM elements M_k on the base space
    plus a remainder element absorbing the orthogonal complement, so the
    elements sum to the base identity.
    """
    base_dim, k = embedding.shape
    elements = []
    for proj in pvm.projectors:
        block = proj[:k, :k]
        elem = embedding @ block @ embedding.conj().T
        elements.append(0.5 * (elem + elem.conj().T))
    total = sum(elements)
    rem = np.eye(base_dim, dtype=complex) - total
    if np.max(np.abs(rem)) > 1e-9:
        elements.append(0.5 * (rem + rem.conj().T))
    else:
        rem = None
    return elements, rem is not None
