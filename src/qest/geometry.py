"""Information geometry at a point: the SLD metric J^S, its antisymmetric
partner J~, the beta-spectrum classification, Uhlmann curvature, and the
discrete holonomy (relative-phase factor) of closed curves.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .operators import (
    BETA_PAIR_TOL, CLOSURE_TOL, COHERENT_BETA_TOL, DET_CHECK_RTOL,
    DIRECT_SUM_TOL, FRAME_BETA_SLACK, QUASI_CLASSICAL_RTOL, STEP_FIDELITY,
    ValidationError, _require, _sqrtm_psd)
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

CURVATURE_STEP = 1e-4


@dataclass(frozen=True)
class InfoGeometry:
    """J^S, J~ and the classification derived from them at one point.

    Only ``JS`` and ``Jtilde`` are given; the rest is derived once, here:
    ``N`` = J^{S-1/2} J~ J^{S-1/2} with the roots ``S_half`` = J^{S1/2} and
    ``S_inv_half`` = J^{S-1/2}; ``beta_pairs`` lists one beta per
    2-dimensional rotation block of J^{S-1} J~ (the positive eigenvalues of
    iN, descending), and ``n_zero`` counts the zero eigenvalues, so
    2*len(beta_pairs) + n_zero = m.
    """

    JS: np.ndarray
    Jtilde: np.ndarray
    N: np.ndarray = field(init=False)
    S_half: np.ndarray = field(init=False)
    S_inv_half: np.ndarray = field(init=False)
    beta_pairs: tuple = field(init=False)
    n_zero: int = field(init=False)
    quasi_classical: bool = field(init=False)
    coherent: bool = field(init=False)

    def __post_init__(self):
        n, s_half, s_inv_half, rows = _derive_stack(self.JS[None],
                                                    self.Jtilde[None])
        beta_pairs, n_zero, quasi, coherent = rows[0]
        derived = {"N": n[0], "S_half": s_half[0], "S_inv_half": s_inv_half[0],
                   "beta_pairs": beta_pairs, "n_zero": n_zero,
                   "quasi_classical": quasi, "coherent": coherent}
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def m(self):
        return self.JS.shape[0]


def _derive_stack(js, jt):
    """The derived fields of :class:`InfoGeometry` for a (T, m, m) stack of
    (J^S, J~) pairs: N, S_half and S_inv_half with a leading row axis, and
    per row the tuple (beta_pairs, n_zero, quasi_classical, coherent).  The
    Hermitian iN has eigenvalues +-beta and zeros: one stacked ``eigvalsh``
    gives each row's beta pairs as its eigenvalues above ``BETA_PAIR_TOL``."""
    m = js.shape[-1]
    n_skew, s_half, s_inv_half = _normalized_skew(js, jt)
    quasi = np.abs(jt).max(axis=(1, 2)) <= QUASI_CLASSICAL_RTOL * np.maximum(
        np.abs(js).max(axis=(1, 2)), 1e-300)
    rows = []
    for w, q in zip(np.linalg.eigvalsh(1j * n_skew)[:, ::-1].tolist(),
                    quasi.tolist()):
        # w[0] is the largest beta whenever there is one
        _require(w[0], 1.0 + FRAME_BETA_SLACK, "beta exceeds 1; invalid frame")
        beta_pairs = tuple(b for b in w if b > BETA_PAIR_TOL)
        coherent = (2 * len(beta_pairs) == m and all(
            abs(b - 1.0) <= COHERENT_BETA_TOL for b in beta_pairs))
        rows.append((beta_pairs, m - 2 * len(beta_pairs), q, coherent))
    return n_skew, s_half, s_inv_half, rows


def _normalized_skew(js, jt):
    """N = J^{S-1/2} J~ J^{S-1/2} and the symmetric roots J^{S1/2},
    J^{S-1/2}, for each matrix of a stack.  For m = 2,
    N = [[0, -b], [b, 0]] with b the signed beta."""
    s_half, s_inv_half = _sqrtm_psd(js, inverse=True)
    n = s_inv_half @ jt @ s_inv_half
    n = 0.5 * (n - n.swapaxes(-1, -2))
    return n, s_half, s_inv_half


def _lift_gram(lifts):
    """J^S and J~ of each row of a (T, m, d) stack of pure-state lifts:
    J^S + i J~ is their Gram matrix."""
    c = np.vecdot(lifts[:, :, None, :], lifts[:, None, :, :])
    return (0.5 * (c.real + c.real.swapaxes(1, 2)),
            0.5 * (c.imag - c.imag.swapaxes(1, 2)))


def info_geometry(frame):
    """Compute :class:`InfoGeometry` from a tangent frame.

    Pure models: J^S + i J~ = the Gram matrix of the horizontal lifts.
    Faithful models: the same with <l_i|l_j> replaced by tr rho L_i L_j.
    """
    if frame.pure:
        js, jt = _lift_gram(frame.lifts[None])
        return InfoGeometry(JS=js[0], Jtilde=jt[0])
    slds = frame.slds
    c = np.trace(frame.rho @ slds[:, None] @ slds, axis1=2, axis2=3)
    return InfoGeometry(JS=0.5 * (c.real + c.real.T),
                        Jtilde=0.5 * (c.imag - c.imag.T))


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
    return bool(abs(det_js - det_jt) <= DET_CHECK_RTOL * det_js)


def uhlmann_curvature(model, theta):
    """Curvature F_ij = (d_i L_j - d_j L_i) - [L_i, L_j]/2 of a faithful model,
    with SLD derivatives by central differences of step CURVATURE_STEP."""
    theta = np.asarray(theta, dtype=float)
    m = model.m
    slds = sld_solve(model, theta).slds
    steps = CURVATURE_STEP * np.eye(m)

    def shifted(k):   # row i: the SLDs at theta + k h e_i
        return np.array([sld_solve(model, theta + k * dt).slds
                         for dt in steps])

    # dl[i, j] = d_i L_j, Richardson-extrapolated central differences
    dl = ((8.0 * (shifted(1) - shifted(-1)) - (shifted(2) - shifted(-2)))
          / (12.0 * CURVATURE_STEP))
    prod = slds[:, None] @ slds   # L_i L_j
    f = (dl - dl.swapaxes(0, 1)) - 0.5 * (prod - prod.swapaxes(0, 1))
    return {(i, j): f[i, j] for i in range(m) for j in range(i + 1, m)}


def rpf_transport(model, vertices, steps_per_edge=200):
    """Relative-phase factor ``(rpf, phase)`` of a closed polygon: the discrete
    holonomy of the states at ``steps_per_edge`` evenly spaced points per
    edge, k = 0 .. N-1, closed by N = 0.  Every consecutive fidelity,
    |<phi_k|phi_{k+1}>| or tr S below, must be at least cos 0.5.

    Pure models (Bargmann product): from one ``model.states`` call,
    rpf = prod_k conj<phi_k|phi_{k+1}> / |<phi_k|phi_{k+1}>| and ``phase`` =
    arg rpf.  A small counter-clockwise loop of area A in the
    (theta_i, theta_j) plane has phase ~ -A Jtilde_ij / 2.

    Faithful mixed models (Uhlmann parallel transport): W_0 = U sqrt(p) from
    rho_0 = U p U^dag and W_{k+1} = sqrt(rho_{k+1}) Q P^dag, where
    W_k^dag sqrt(rho_{k+1}) = P S Q^dag, so that W_k^dag W_{k+1} >= 0.  Then
    W_N = sqrt(rho_0) (u_0 .. u_{N-1})^dag U with u_k the unitary polar
    factor of sqrt(rho_k) sqrt(rho_{k+1}); rpf is the polar factor of
    pinv(W_0) W_N, and ``phase`` is None.
    """
    vertices = np.array(vertices, dtype=float)
    if len(vertices) < 2:
        raise ValidationError(
            f"polygon needs at least two vertices, got {len(vertices)}")
    if steps_per_edge < 1:
        raise ValidationError(
            f"steps_per_edge must be at least 1, got {steps_per_edge}")
    _require(np.linalg.norm(vertices[0] - vertices[-1]), CLOSURE_TOL,
             "curve must be closed", ValidationError)
    t = np.arange(steps_per_edge)[:, None] / steps_per_edge
    edges = vertices[1:] - vertices[:-1]
    points = (vertices[:-1, None] + t * edges[:, None]).reshape(-1, model.m)
    if model.pure:
        phi = model.states(points)
        overlap = np.vecdot(phi, np.roll(phi, -1, axis=0))
        fidelity = np.abs(overlap)
    else:
        root = _sqrtm_psd(np.array([model.state(p).density for p in points]))
        a, s, bh = np.linalg.svd(root @ np.roll(root, -1, axis=0))
        fidelity = s.sum(axis=1)
    _require(-fidelity, -STEP_FIDELITY, "transport step too coarse (negated "
             "fidelity); increase steps_per_edge", ValidationError)
    if model.pure:
        rpf = np.prod(overlap.conj() / fidelity)
        return rpf, float(np.angle(rpf))
    u = np.linalg.eigh(root[0])[1]
    holonomy = functools.reduce(np.matmul, a @ bh)  # u_0 u_1 .. u_{N-1}
    return u.conj().T @ holonomy.conj().T @ u, None


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
    n_skew, s_half, m = geom.N, geom.S_half, geom.m
    # i N is Hermitian.  An eigenvector x + i y with eigenvalue beta > 0 has
    # N x = beta y and N y = -beta x, so sqrt(2) (x, y) is an orthonormal
    # pair carrying the block [[0, -beta], [beta, 0]]; the kernel of the real
    # N is real.  Betas descending, kernel last.
    w, v = np.linalg.eigh(1j * n_skew)
    blocks, cols = [], []
    canon = np.zeros((m, m))
    for b, x in zip(w[::-1], v[:, ::-1].T):
        if b > BETA_PAIR_TOL:
            i = len(cols)
            blocks.append(DirectSumBlock(indices=(i, i + 1), beta=b))
            canon[i, i + 1], canon[i + 1, i] = -b, b
            cols += [np.sqrt(2.0) * x.real, np.sqrt(2.0) * x.imag]
    z = v[:, np.abs(w) <= BETA_PAIR_TOL]
    kernel = np.linalg.svd(np.hstack([z.real, z.imag]))[0][:, :m - len(cols)]
    for c in kernel.T:
        blocks.append(DirectSumBlock(indices=(len(cols),), beta=None))
        cols.append(c)
    a = np.column_stack(cols).T @ s_half

    # verify: A maps J^S to I and J~ to the canonical form
    a_inv = np.linalg.inv(a)
    js_new = a_inv.T @ geom.JS @ a_inv
    jt_new = a_inv.T @ geom.Jtilde @ a_inv
    _require(np.abs(np.concatenate([js_new - np.eye(m), jt_new - canon])),
             DIRECT_SUM_TOL, "direct-sum normalization failed")
    return blocks, a
