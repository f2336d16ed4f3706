"""Information geometry at a point: the SLD metric J^S, its antisymmetric
partner J~, the beta-spectrum classification, Uhlmann curvature, and
horizontal (relative-phase) transport along curves.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .operators import InternalConsistencyError, ValidationError, _sqrtm_psd
from .models import frame_at, sld_solve

__all__ = [
    "InfoGeometry",
    "info_geometry",
    "geometry_at",
    "coherency_det_check",
    "uhlmann_curvature",
    "rpf_transport",
    "DirectSumBlock",
    "decompose_direct_sum",
]

QUASI_CLASSICAL_RTOL = 1e-9
COHERENT_BETA_TOL = 1e-6
BETA_PAIR_TOL = 1e-8
BETA_PAIR_HARD = 1e-6
CURVATURE_STEP = 1e-4


@dataclass(frozen=True)
class InfoGeometry:
    """J^S, J~ and derived classification at one parameter point.

    ``beta_pairs`` lists one beta per 2-dimensional rotation block of
    J^{S-1} J~ (the +-i*beta eigenvalue pairs); ``n_zero`` counts the
    remaining zero eigenvalues, so 2*len(beta_pairs) + n_zero = m.
    """

    JS: np.ndarray
    Jtilde: np.ndarray
    beta_pairs: tuple
    n_zero: int
    quasi_classical: bool
    coherent: bool

    @property
    def m(self):
        return self.JS.shape[0]

    def eigenvalue_moduli(self):
        """All m moduli (each pair contributes twice, zeros once)."""
        out = []
        for b in self.beta_pairs:
            out.extend([b, b])
        out.extend([0.0] * self.n_zero)
        return np.array(sorted(out, reverse=True))


def _normalized_skew(js, jt):
    """N = J^{S-1/2} J~ J^{S-1/2} and the symmetric roots J^{S1/2},
    J^{S-1/2}.  For m = 2, N = [[0, -b], [b, 0]] with b the signed beta."""
    s_half, s_inv_half = _sqrtm_psd(js, inverse=True)
    n = s_inv_half @ jt @ s_inv_half
    n = 0.5 * (n - n.T)
    return n, s_half, s_inv_half


def _pair_betas(n_skew, m):
    """Singular values of the normalized antisymmetric matrix come in equal
    pairs (plus zeros); collapse them to one beta per pair."""
    sv = np.linalg.svd(n_skew, compute_uv=False)
    sv = np.sort(sv)[::-1]
    pairs = []
    i = 0
    scale = max(sv[0], 1.0) if len(sv) else 1.0
    while i < len(sv) and sv[i] > BETA_PAIR_TOL * scale:
        if i + 1 >= len(sv) or abs(sv[i] - sv[i + 1]) > BETA_PAIR_HARD * scale:
            raise InternalConsistencyError(
                f"unpaired singular value {sv[i]:.6e} in the antisymmetric "
                "spectrum; broken antisymmetry upstream")
        pairs.append(0.5 * (sv[i] + sv[i + 1]))
        i += 2
    n_zero = m - 2 * len(pairs)
    return tuple(pairs), n_zero


def info_geometry(frame):
    """Compute :class:`InfoGeometry` from a tangent frame.

    Pure models: J^S + i J~ = the Gram matrix of the horizontal lifts.
    Faithful models: the same with <l_i|l_j> replaced by tr rho L_i L_j.
    """
    m = frame.m
    c = np.zeros((m, m), dtype=complex)
    if frame.pure:
        for i in range(m):
            for j in range(m):
                c[i, j] = np.vdot(frame.lifts[i], frame.lifts[j])
    else:
        for i in range(m):
            for j in range(m):
                c[i, j] = np.trace(frame.rho @ frame.slds[i] @ frame.slds[j])
    js = 0.5 * (c.real + c.real.T)
    jt = 0.5 * (c.imag - c.imag.T)

    n_skew, _, _ = _normalized_skew(js, jt)
    beta_pairs, n_zero = _pair_betas(n_skew, m)
    if beta_pairs and beta_pairs[0] > 1.0 + 1e-9:
        raise InternalConsistencyError(
            f"beta = {beta_pairs[0]!r} exceeds 1; invalid frame")

    quasi = np.max(np.abs(jt)) <= QUASI_CLASSICAL_RTOL * max(np.max(np.abs(js)), 1e-300)
    coherent = (m % 2 == 0 and len(beta_pairs) == m // 2 and
                all(abs(b - 1.0) <= COHERENT_BETA_TOL for b in beta_pairs))
    return InfoGeometry(JS=js, Jtilde=jt, beta_pairs=beta_pairs,
                        n_zero=n_zero, quasi_classical=bool(quasi),
                        coherent=bool(coherent))


def geometry_at(model, theta):
    """Convenience: frame + geometry in one call."""
    return info_geometry(frame_at(model, theta))


def coherency_det_check(geom):
    """Determinant test for coherency: | |det J^S| - |det J~| | small.

    Only even parameter counts can be coherent; for odd m this returns False
    (det J~ = 0 identically).
    """
    if geom.m % 2 == 1:
        return False
    det_js = abs(np.linalg.det(geom.JS))
    det_jt = abs(np.linalg.det(geom.Jtilde))
    return bool(abs(det_js - det_jt) <= 1e-6 * det_js)


def uhlmann_curvature(model, theta):
    """Curvature F_ij = (d_i L_j - d_j L_i) - [L_i, L_j]/2 of a faithful model,
    with SLD derivatives by central differences of step CURVATURE_STEP."""
    theta = np.asarray(theta, dtype=float)
    m = model.m
    frame0 = sld_solve(model, theta)
    slds = frame0.slds
    dl = []  # dl[i][j] = d_i L_j, Richardson-extrapolated central differences
    for i in range(m):
        dt = np.zeros(m)
        dt[i] = CURVATURE_STEP
        lp = sld_solve(model, theta + dt).slds
        lm = sld_solve(model, theta - dt).slds
        lp2 = sld_solve(model, theta + 2 * dt).slds
        lm2 = sld_solve(model, theta - 2 * dt).slds
        dl.append([(8.0 * (lp[j] - lm[j]) - (lp2[j] - lm2[j]))
                   / (12.0 * CURVATURE_STEP) for j in range(m)])
    f = {}
    for i in range(m):
        for j in range(i + 1, m):
            comm = slds[i] @ slds[j] - slds[j] @ slds[i]
            f[(i, j)] = (dl[i][j] - dl[j][i]) - 0.5 * comm
    return f


def rpf_transport(model, vertices, steps_per_edge=200):
    """Horizontal transport of a purification along a closed polygonal curve.

    Integrates dW/dt = (1/2) L(t) W with classical 4th-order Runge-Kutta and
    per-step renormalization, where L(t) is the SLD operator of the velocity.
    Returns ``(rpf, phase)``: the relative-phase factor comparing the
    transported endpoint against the start (an r x r unitary in general) and,
    for pure models, the scalar phase -i ln of the unimodular factor.
    """
    vertices = [np.asarray(v, dtype=float) for v in vertices]
    if np.linalg.norm(vertices[0] - vertices[-1]) > 1e-12:
        raise ValidationError("curve must be closed")

    st0 = model.state(vertices[0])
    if model.pure:
        w = st0.vector.copy().astype(complex)
    else:
        p, u = np.linalg.eigh(st0.density)
        w = u * np.sqrt(np.clip(p, 0, None))
    w0 = w.copy()

    def l_of(theta, velocity):
        ops = frame_at(model, theta).sld_operators()
        acc = np.zeros((model.dim, model.dim), dtype=complex)
        for v, op in zip(velocity, ops):
            acc += v * op
        return acc

    for a, b in zip(vertices[:-1], vertices[1:]):
        seg = b - a
        if np.linalg.norm(seg) == 0:
            continue
        h = 1.0 / steps_per_edge
        for k in range(steps_per_edge):
            t = k * h
            w_prev = w

            def rhs(tau, wmat):
                return 0.5 * l_of(a + (t + tau) * seg, seg) @ wmat

            k1 = rhs(0.0, w)
            k2 = rhs(0.5 * h, w + 0.5 * h * k1)
            k3 = rhs(0.5 * h, w + 0.5 * h * k2)
            k4 = rhs(h, w + h * k3)
            w = w + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            # re-project to unit trace norm
            if w.ndim == 1:
                w = w / np.linalg.norm(w)
                step_phase = abs(np.angle(np.vdot(w_prev, w)))
            else:
                w = w / np.sqrt(np.trace(w @ w.conj().T).real)
                ov = np.trace(w_prev.conj().T @ w)
                step_phase = abs(np.angle(ov)) if abs(ov) > 1e-12 else 0.0
            if step_phase > 0.5:
                raise ValidationError(
                    "transport step too coarse: per-step phase change "
                    f"{step_phase:.3f} rad > 0.5; increase steps_per_edge")

    if model.pure:
        rpf = np.vdot(w0, w)
        rpf = rpf / abs(rpf)
        phase = float(np.angle(rpf))  # = -i ln(rpf) for unimodular rpf
        return rpf, phase
    # reference purification of the endpoint state = the start purification
    # (closed loop), which trivially satisfies the parallelism condition
    u_raw = np.linalg.pinv(w0) @ w
    uu, _, vv = np.linalg.svd(u_raw)
    return uu @ vv, None


@dataclass(frozen=True)
class DirectSumBlock:
    """One block of the canonical decomposition: indices into the normalized
    parameter ordering and the block's beta (None for 1-dim zero blocks)."""

    indices: tuple
    beta: float


def decompose_direct_sum(geom):
    """Split the model into informationally independent sub-blocks.

    Normalizes coordinates so J^S = I (congruence by J^{S-1/2}), then brings
    the antisymmetric J~ to its real canonical form: an orthogonal change of
    parameters Q with Q^T N Q block-diagonal, 2x2 rotation generators
    [[0, -beta_k], [beta_k, 0]] followed by zeros.

    Returns ``(blocks, A)`` where theta_new = A theta puts the model in the
    canonical frame: J^S_new = I and J~_new block-diagonal as above.
    """
    n_skew, s_half, _ = _normalized_skew(geom.JS, geom.Jtilde)
    m = geom.m
    t, q = scipy.linalg.schur(n_skew, output="real")
    # normalize block layout: scan the quasi-triangular diagonal
    blocks = []
    cols = []
    i = 0
    while i < m:
        if i + 1 < m and abs(t[i + 1, i]) > BETA_PAIR_TOL:
            b = t[i, i + 1]
            c0, c1 = q[:, i].copy(), q[:, i + 1].copy()
            if b > 0:  # enforce sign convention [[0, -beta],[beta, 0]]
                c0, c1 = c1, c0
                b = -b
            blocks.append((abs(b), [c0, c1]))
            i += 2
        else:
            blocks.append((None, [q[:, i].copy()]))
            i += 1
    # order: beta descending, zero blocks last
    blocks.sort(key=lambda it: -(it[0] if it[0] is not None else -1.0))
    out_blocks = []
    pos = 0
    for b, vecs in blocks:
        cols.extend(vecs)
        out_blocks.append(DirectSumBlock(indices=tuple(range(pos, pos + len(vecs))),
                                         beta=b))
        pos += len(vecs)
    q_ord = np.column_stack(cols)
    a = q_ord.T @ s_half

    # verify: A maps J^S to I and J~ to the canonical form
    a_inv = np.linalg.inv(a)
    js_new = a_inv.T @ geom.JS @ a_inv
    if np.max(np.abs(js_new - np.eye(m))) > 1e-8:
        raise InternalConsistencyError("direct-sum normalization failed")
    return out_blocks, a
