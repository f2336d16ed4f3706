"""Measurement-side machinery: outcome statistics and classical Fisher
information, optimal locally unbiased post-processing, the projective
measurements realizing an attained pure-state bound (built from the
estimation vectors X = L C of its coefficient matrix C in a dilated space),
the commuting-SLD estimator for faithful models, and Naimark compression.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .operators import (
    DERIV_FLOOR,
    GRAM_IMAG_RTOL,
    PROB_FLOOR,
    SINGULAR_RTOL,
    InternalConsistencyError,
    NotRealGramError,
    ValidationError,
    _sqrtm_psd,
)
from .models import _embed_stack

__all__ = [
    "PvmEstimator",
    "EstimationVectors",
    "outcome_distribution",
    "classical_fisher",
    "optimal_postprocessing",
    "construct_pvm_from_vectors",
    "optimal_vectors",
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

    ``projectors`` is a (K, d, d) stack, d = ``ambient_dim``: each
    ``projectors[k]`` is Hermitian idempotent, and they sum to the identity.
    ``estimates`` is (K, m): row k is the parameter estimate announced on
    outcome k.
    """

    projectors: np.ndarray
    estimates: np.ndarray
    ambient_dim: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.projectors = np.asarray(self.projectors, dtype=complex)
        self.estimates = np.asarray(self.estimates, dtype=float)

    def validate(self):
        _check_pvm(self.projectors, self.ambient_dim)


def _check_pvm(p, dim):
    """Hermitian idempotent projectors summing to the identity: a (K, d, d)
    stack, or a (T, K, d, d) stack of them."""
    if np.abs(p - p.swapaxes(-1, -2).conj()).max() > PVM_TOL:
        raise ValidationError("projector not Hermitian")
    if np.abs(p @ p - p).max() > PVM_TOL:
        raise ValidationError("projector not idempotent")
    if np.abs(p.sum(axis=-3) - np.eye(dim)).max() > PVM_TOL:
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


@functools.cache
def _householder_orthogonal(k):
    """Symmetric orthogonal (k x k) matrix whose first column is the uniform
    vector (1,...,1)/sqrt(k): the Householder reflection swapping e_1 with
    it.  Built once per k, read-only."""
    c = np.full(k, 1.0 / np.sqrt(k))
    e1 = np.zeros(k)
    e1[0] = 1.0
    w = e1 - c
    w /= np.linalg.norm(w)
    o = np.eye(k) - 2.0 * np.outer(w, w)
    o.flags.writeable = False
    return o


def construct_pvm_from_vectors(vectors):
    """Projective measurement realizing the covariance Re X*X.

    Given estimation vectors (phi, X) in C^D, factors Re X*X = R^T R
    (Cholesky) and takes the orthonormal basis phi, X R^{-1}: the
    orthonormalization of {phi, x^1..x^m} with real coefficients
    lambda = [0 | R^T].  It mixes that basis by the real orthogonal
    Householder O whose first column is uniform (so every mixed vector
    overlaps phi), and returns the rank-one projectors |b'_k><b'_k| plus,
    when D > m + 1, a remainder projector with estimate theta.

    Raises :class:`NotRealGramError` when Im X*X is not zero, and
    :class:`ValidationError` when some <phi|x^i> is not zero, when the x^i
    are linearly dependent, or when D < m + 1.  Output covariance equals
    Re X*X and the measurement is locally unbiased; both are verified
    before returning.
    """
    phi = np.asarray(vectors.phi, dtype=complex)
    projectors, est, cov = _pvm_stack(
        phi[None], np.asarray(vectors.X, dtype=complex)[None],
        np.asarray(vectors.theta, dtype=float)[None])
    pvm = PvmEstimator(projectors=projectors[0], estimates=est[0],
                       ambient_dim=len(phi))
    pvm.meta["covariance"] = cov[0]
    return pvm


def _pvm_stack(phi, x, theta):
    """:func:`construct_pvm_from_vectors` for a stack of T rows: states
    (T, D), vectors (T, D, m) and points (T, m).  Returns the projectors
    (T, K, D, D), the estimates (T, K, m) and the covariances (T, m, m),
    every row verified.  Row t's basis is phi, then the rows of R^{-T} X^T
    from the Cholesky factor Re X*X = R^T R.  The stack is refused when
    any row has Im X*X != 0 (:class:`NotRealGramError`), some
    <phi|x^i> != 0, linearly dependent x^i, or D < m + 1."""
    dim, m = x.shape[1:]
    x_adj = x.conj().swapaxes(1, 2)
    gram = x_adj @ x
    big = np.maximum(np.abs(gram).max(axis=(1, 2)), 1.0)
    imag = np.abs(gram.imag).max(axis=(1, 2))
    if (imag > GRAM_IMAG_RTOL * big).any():
        raise NotRealGramError(
            f"Gram matrix imaginary part {imag.max():.3e} exceeds tolerance")
    if np.abs(x_adj @ phi[:, :, None]).max() > XCHECK_TOL:
        raise ValidationError("estimation vectors not orthogonal to phi")
    if dim < m + 1:
        raise ValidationError("ambient space too small for the construction")
    try:
        r_t = np.linalg.cholesky(gram.real)
    except np.linalg.LinAlgError:
        raise ValidationError(
            "estimation vectors are linearly dependent") from None
    # rows of basis are b^1 = phi, b^2, ...; lam[t, i, j]: coefficient of
    # x^i on basis vector j, zero on phi
    basis = np.concatenate(
        [phi[:, None], np.linalg.solve(r_t, x.swapaxes(1, 2))], axis=1)
    lam = np.concatenate([np.zeros((len(x), m, 1)), r_t], axis=2)

    o = _householder_orthogonal(m + 1)
    # <b'_kappa | phi> = O[kappa, 0] since b^1 = phi: 1/sqrt(m + 1) each
    if np.min(np.abs(o[:, 0])) <= 1e-9:
        raise InternalConsistencyError("orthogonal mix has an outcome with "
                                       "zero overlap")

    bprime = o @ basis                     # rows are b'_kappa
    projectors = bprime[..., :, None] * bprime.conj()[..., None, :]
    est = theta[:, None] + (o @ lam.swapaxes(1, 2)) / o[:, :1]
    if dim > m + 1:
        rem = np.eye(dim) - basis.swapaxes(1, 2) @ basis.conj()
        projectors = np.concatenate([projectors, rem[:, None]], axis=1)
        est = np.concatenate([est, theta[:, None]], axis=1)
    _check_pvm(projectors, dim)

    # verify local unbiasedness and the covariance identity
    p = ((projectors @ phi[:, None, :, None])[..., 0]
         @ phi.conj()[:, :, None])[..., 0].real
    mean = (p[:, None] @ est)[:, 0]
    if np.abs(mean - theta).max() > UNBIASED_TOL:
        raise InternalConsistencyError("constructed PVM is biased")
    dev = est - theta[:, None]
    cov = (dev * p[..., None]).swapaxes(1, 2) @ dev
    if (np.abs(cov - gram.real).max(axis=(1, 2)) > 1e-9 * np.maximum(
            1.0, np.abs(gram.real).max(axis=(1, 2)))).any():
        raise InternalConsistencyError(
            "constructed PVM covariance does not match Re X*X")
    return projectors, est, cov


def optimal_vectors(frame, bound):
    """Estimation vectors attaining ``bound`` at a pure frame.

    ``bound`` is an attained :class:`~qest.bounds.BoundResult` carrying its
    coefficient matrix C and V_opt.  X = L C fills the leading coordinates;
    where Z = C*QC is not real (Q the lift Gram matrix), W = (V - Z)^{1/2}
    fills the last m coordinates, so that Re X*L = I, Im X*X = 0 and
    Re X*X = V, all verified.  The space has m + 1 dimensions for the SLD
    bound and 2m + 1 otherwise.  Returns ``(vectors, basis)``, ``basis``
    the embedding of the physical span for :func:`naimark_compress`.
    """
    if not frame.pure:
        raise ValidationError("optimal vectors need a pure model")
    if bound.attained != "attained":
        raise ValidationError(f"the {bound.method} bound is only an infimum "
                              f"here: no measurement attains it")
    if bound.C is None:
        raise ValidationError(f"the {bound.method} bound carries no "
                              f"optimizer C")
    m = frame.m
    phi_e, x_e, basis = _vector_stack(
        frame.phi[None], np.array(frame.lifts)[None], bound.C[None],
        bound.V_opt[None], m + 1 if bound.method == "sld" else 2 * m + 1)
    return (EstimationVectors(phi=phi_e[0], X=x_e[0],
                              theta=np.asarray(frame.theta, dtype=float)),
            basis[0])


# perfbench/tracer.py wraps this name; without it every traced run crashes.
optimal_vectors_two_param = optimal_vectors


def _vector_stack(phis, lifts, c, v_opt, dilate_dim):
    """:func:`optimal_vectors` for a stack of T frames, given as (T, d)
    states and (T, m, d) lifts, with (T, m, m) stacks of C and V_opt.
    Returns the dilated states (T, D), vectors (T, D, m) and embeddings
    (T, d, k), every row verified.  Rows whose Z is real get W = 0."""
    basis, phi_e, l_e = _embed_stack(phis, lifts, dilate_dim)
    m = c.shape[2]
    x_e = l_e @ c
    z = x_e.conj().swapaxes(1, 2) @ x_e
    scale = np.maximum(1.0, np.abs(z).max(axis=(1, 2)))
    tail = np.abs(z.imag).max(axis=(1, 2)) > XCHECK_TOL * scale
    if tail.any():
        if dilate_dim < 2 * m + 1:
            raise InternalConsistencyError("dilated space too small")
        q = v_opt[tail] - z[tail]
        q = 0.5 * (q + q.conj().swapaxes(1, 2))
        wq = np.linalg.eigvalsh(q)[:, 0]
        if (wq < -1e-7 * scale[tail]).any():
            raise InternalConsistencyError(
                f"dilation tail not PSD (min eig {wq.min():.3e})")
        x_e[tail, -m:] = _sqrtm_psd(q)
    _verify_stack(phi_e, l_e, x_e, v_opt)
    return phi_e, x_e, basis


def _verify_stack(phi_e, l_e, x_e, v_opt):
    """Re X*L = I, Im X*X = 0, Re X*X = V and <phi|x^i> = 0 in the dilated
    space, on each row of a stack."""
    m = x_e.shape[2]
    x_adj = x_e.conj().swapaxes(1, 2)
    dev = np.abs((x_adj @ l_e).real - np.eye(m)).max()
    if dev > XCHECK_TOL:
        raise InternalConsistencyError(f"Re X*L != I (max dev {dev:.3e})")
    xx = x_adj @ x_e
    scale = np.maximum(1.0, np.abs(xx).max(axis=(1, 2)))
    if (np.abs(xx.imag).max(axis=(1, 2)) > XCHECK_TOL * scale).any():
        raise InternalConsistencyError("Im X*X != 0")
    if (np.abs(xx.real - v_opt).max(axis=(1, 2)) > XCHECK_TOL * scale).any():
        raise InternalConsistencyError("Re X*X != V")
    if np.abs(x_adj @ phi_e[:, :, None]).max() > XCHECK_TOL:
        raise InternalConsistencyError("<phi|x^i> != 0")


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

    # commuting Hermitian matrices: the eigenbasis of a generic combination
    # diagonalizes each of them
    c = np.random.default_rng(7).standard_normal(m)
    _, u = np.linalg.eigh(sum(ci * li for ci, li in zip(c, slds)))
    for l in slds:
        d = u.conj().T @ l @ u
        if (np.max(np.abs(d - np.diag(np.diag(d))))
                > 1e-6 * max(1.0, np.max(np.abs(l)))):
            raise InternalConsistencyError(
                "simultaneous diagonalization failed")

    # outcome w: |u_w><u_w| announcing theta + J^{S-1} (<u_w|L_i|u_w>)_i
    lam = np.einsum("aw,iab,bw->wi", u.conj(), np.array(slds), u).real
    pvm = PvmEstimator(projectors=u.T[:, :, None] * u.T.conj()[:, None, :],
                       estimates=frame.theta + lam @ np.linalg.inv(geom.JS).T,
                       ambient_dim=len(u))
    pvm.validate()
    return pvm


def naimark_compress(pvm, embedding):
    """Compress a dilated PVM to POVM elements on the base space.

    ``embedding`` is the (base_dim x k) orthonormal matrix whose columns span
    the physically relevant subspace; the dilated space holds that subspace
    in its first k coordinates.  Returns ``(elements, has_remainder)``: the
    POVM elements M_k on the base space as one (K, base_dim, base_dim)
    stack, compressed in one product, ending with a remainder element that
    absorbs the orthogonal complement when one is needed, so the elements
    sum to the base identity.

    Each element is reported only to the precision it is computed at: every
    real or imaginary part below one ulp of the element's largest entry,
    eps * max_ab |M_k[a, b]|, is set to +0.0.  Adding such a part to that
    entry changes nothing, and the parts cleared come in Hermitian pairs of
    equal magnitude, so each element stays exactly Hermitian.
    :func:`_naimark_stack`, whose elements are never printed, keeps them.
    """
    elements, has_rem = _naimark_stack(pvm.projectors[None],
                                       np.asarray(embedding)[None])
    elements = elements[0]
    ulp = np.finfo(float).eps * np.abs(elements).max(axis=(1, 2))
    parts = elements.view(float)
    parts[np.abs(parts) < ulp[:, None, None]] = 0.0
    return elements, has_rem


def _naimark_stack(projectors, embedding):
    """:func:`naimark_compress` for a (T, K, D, D) stack of PVMs and a
    (T, base_dim, k) stack of embeddings; every row must need the remainder
    element, or none."""
    base_dim, k = embedding.shape[1:]
    emb = embedding[:, None]
    elements = emb @ projectors[:, :, :k, :k] @ emb.conj().swapaxes(2, 3)
    elements = 0.5 * (elements + elements.swapaxes(2, 3).conj())
    rem = np.eye(base_dim) - elements.sum(axis=1)
    has_rem = np.abs(rem).max(axis=(1, 2)) > 1e-9
    if (has_rem != has_rem[0]).any():
        raise ValidationError("stacked measurements differ in remainder")
    if not has_rem[0]:
        return elements, False
    rem = 0.5 * (rem + rem.conj().swapaxes(1, 2))
    return np.concatenate([elements, rem[:, None]], axis=1), True
