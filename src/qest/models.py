"""Parametric quantum-state models: tangents, horizontal lifts, SLDs and the
built-in model zoo (spin-coherent rotations, displaced squeezed vacuum,
phase-space shifts of a Fock state, Gibbs families, unitary time evolution).
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .operators import (
    ALIGN_FLOOR, FAITHFUL_MIN_EIG, LEAKAGE_TOL, LIFT_RANK_RTOL,
    LIFT_RESIDUAL_RTOL, SINGULAR_RTOL, ValidationError, _require,
    hermitian_eigendecomposition, mixed_state, pure_state, skew_flow,
    unit_rows)

__all__ = [
    "ParametricModel",
    "TangentFrame",
    "tangents",
    "horizontal_lift",
    "sld_solve",
    "frame_at",
    "zoo_spin_coherent",
    "zoo_squeezed",
    "zoo_pm_shift",
    "zoo_canonical",
    "zoo_time_evolution",
    "explicit_model",
    "load_model_spec",
    "annihilation",
]

FD_STEP_DEFAULT = 1e-5
TRUNC_DIM_DEFAULT = 64


@dataclass(frozen=True)
class ParametricModel:
    """Map theta in R^m -> quantum state, with a tangent supplier.

    ``state_at(theta)`` returns a :class:`QuantumState`.  Tangents are
    central finite differences by default; models that know their derivative
    in closed form may supply ``tangent_at(theta)``, the m derivatives
    d_i(state) as a sequence or a stacked array.
    Pure models may supply ``states_at(thetas)``, the state vectors at a
    (P, m) stack of points as a (P, dim) array, for :meth:`states`.
    """

    kind: str
    dim: int
    m: int
    state_at: callable
    hbar: float = 1.0
    fd_step: float = FD_STEP_DEFAULT
    tangent_at: callable = None
    states_at: callable = None
    pure: bool = True
    meta: dict = field(default_factory=dict)

    def state(self, theta):
        return self.state_at(np.asarray(theta, dtype=float))

    def states(self, thetas):
        """Unit state vectors of a pure model at a (P, m) stack of points,
        one row each: ``states_at`` when the model has it, else the stacked
        ``state_at`` vectors."""
        if not self.pure:
            raise ValidationError("states needs a pure model")
        thetas = np.asarray(thetas, dtype=float)
        if self.states_at is None:
            return np.array([self.state_at(t).vector for t in thetas])
        return unit_rows(self.states_at(thetas))


@dataclass(frozen=True)
class TangentFrame:
    """State plus derivative data at a point.

    Pure models carry the base vector ``phi`` and the horizontal lifts as
    one complex (m, d) array, ``lifts[i] = 2 (I - |phi><phi|) |d_i phi>``
    (each orthogonal to phi).  Faithful mixed models carry ``rho`` and the
    Hermitian SLD operators as one complex (m, d, d) array, ``slds[i]``
    solving  d_i rho = (L_i rho + rho L_i)/2.
    """

    theta: np.ndarray
    pure: bool
    phi: np.ndarray = None
    lifts: np.ndarray = None
    rho: np.ndarray = None
    slds: np.ndarray = None

    @property
    def m(self):
        return len(self.lifts) if self.pure else len(self.slds)


def _embed_frame(frame, dilate_dim):
    """Dilated embedding of a pure frame.

    Returns ``(basis, phi_e, L_e)``: an orthonormal basis of
    span{phi, l_1..l_m} in the model space, and the coordinates of phi and
    of the lifts (columns of L_e) in C^dilate_dim, where that span occupies
    the leading coordinates.
    """
    if not frame.pure:
        raise ValidationError(
            "the dilated embedding needs a pure model; mixed models have no "
            "measurement search yet (only the SLD floor is available)")
    basis, phi_e, l_e = _embed_stack(frame.phi[None], frame.lifts[None],
                                     dilate_dim)
    return basis[0], phi_e[0], l_e[0]


def _embed_stack(phis, lifts, dilate_dim):
    """:func:`_embed_frame` of each row of a stack of pure frames, given as
    the (T, d) states and (T, m, d) lifts; the results gain a leading axis.
    Every row must keep the same number of basis vectors."""
    mat = np.concatenate([phis[:, :, None], lifts.swapaxes(1, 2)], axis=2)
    q, r = np.linalg.qr(mat)
    diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
    keep = diag > SINGULAR_RTOL * np.maximum(
        1.0, np.abs(r).max(axis=(1, 2)))[:, None]
    k = keep.shape[1]
    if not keep.all():
        k = int(keep[0].sum())
        if (keep.sum(axis=1) != k).any():
            raise ValidationError("stacked frames span subspaces of "
                                  "different dimensions")
        cols = np.argsort(~keep, axis=1, kind="stable")[:, None, :k]
        q = np.take_along_axis(q, cols, axis=2)
    m = lifts.shape[1]
    if dilate_dim < max(k, m + 1):
        raise ValidationError(
            f"dilate_dim {dilate_dim} below the embedding requirement "
            f"{max(k, m + 1)}")
    out = np.zeros((len(mat), dilate_dim, m + 1), dtype=complex)
    out[:, :k, :] = q.conj().swapaxes(1, 2) @ mat
    return q, out[:, :, 0], out[:, :, 1:]


def tangents(model, theta, with_state=False):
    """The m derivatives d_i(state) at theta as one complex array, (m, d)
    for a pure model and (m, d, d) for a mixed one: the model's
    ``tangent_at`` when it has one, else central finite differences.  A pure
    model's come from :func:`_pure_tangent_stack`.  With ``with_state``, a
    pure model's state vector at theta comes first, as ``(phi, array)``."""
    theta = np.asarray(theta, dtype=float)
    if model.pure:
        phis, dphis = _pure_tangent_stack(model, theta[None])
        return (phis[0], dphis[0]) if with_state else dphis[0]
    if model.tangent_at is not None:
        return np.array(model.tangent_at(theta), dtype=complex)
    h, m = model.fd_step, model.m
    pts = theta + h * np.concatenate([np.eye(m), -np.eye(m)])
    rhos = np.array([model.state(t).rho for t in pts])
    return (rhos[:m] - rhos[m:]) / (2.0 * h)


def _pure_tangent_stack(model, thetas):
    """State vectors and tangents of a pure model at a (T, m) stack of
    points, as (T, d) and (T, m, d) arrays.  Without ``tangent_at`` they are
    central differences whose (2m + 1) T points come from one
    :meth:`ParametricModel.states` call: per row the centre, then
    theta + h e_i and theta - h e_i for each i, each neighbour
    phase-aligned to its centre."""
    if model.tangent_at is not None:
        return (np.array([model.state(t).vector for t in thetas]),
                np.array([model.tangent_at(t) for t in thetas], dtype=complex))
    t_rows, m = thetas.shape
    h = model.fd_step
    steps = h * np.eye(m)
    pts = np.concatenate([thetas[:, None], thetas[:, None] + steps,
                          thetas[:, None] - steps], axis=1)
    vs = model.states(pts.reshape(-1, m)).reshape(t_rows, 2 * m + 1, -1)
    phis, nbrs = vs[:, 0], vs[:, 1:]
    ov = np.vecdot(phis[:, None, :], nbrs)
    size = np.abs(ov)
    _require(-size.min(), -ALIGN_FLOOR, "phase alignment impossible: neighbor "
             "state orthogonal to center (fd_step far too large?)",
             ValidationError)
    nbrs = nbrs * (ov.conj() / size)[:, :, None]
    return phis, (nbrs[:, :m] - nbrs[:, m:]) / (2.0 * h)


def horizontal_lift(model, theta):
    """Tangent frame of a pure model: horizontal lifts of the coordinate
    tangents, l_i = 2 (I - |phi><phi|) |d_i phi>."""
    if not model.pure:
        raise ValidationError("horizontal_lift requires a pure model")
    theta = np.asarray(theta, dtype=float)
    phi, dphis = tangents(model, theta, with_state=True)
    return TangentFrame(theta=theta, pure=True, phi=phi,
                        lifts=_lifts(phi[None], dphis[None])[0])


def _lifts(phis, dphis):
    """Horizontal lifts of a stack of tangents: (T, d) states and (T, m, d)
    tangents give (T, m, d) lifts, each row checked for redundant
    parameters."""
    ov = np.vecdot(phis[:, None, :], dphis)
    lifts = 2.0 * (dphis - ov[:, :, None] * phis[:, None, :])

    # non-redundancy: the real span of the lifts must have dimension m
    stacked = np.concatenate([lifts.real, lifts.imag], axis=2)
    scale = np.maximum(np.linalg.norm(stacked, axis=(1, 2)), 1e-300)
    rank = np.linalg.matrix_rank(stacked, tol=LIFT_RANK_RTOL * scale)
    _require(lifts.shape[1] - rank, 0.0, "redundant parameters: real span "
             "of lifts is rank-deficient", ValidationError)
    return lifts


def sld_solve(model, theta):
    """Tangent frame of a faithful mixed model: Hermitian SLDs from the
    eigenbasis formula (L_i)_{ab} = 2 <a|d_i rho|b> / (p_a + p_b), all m
    at once, each held to its own reconstruction residual."""
    theta = np.asarray(theta, dtype=float)
    st = model.state(theta)
    if st.kind != "mixed":
        raise ValidationError("sld_solve requires a mixed model")
    rho = st.density
    p, u = hermitian_eigendecomposition(rho)
    _require(-p[0], -FAITHFUL_MIN_EIG, "state not faithful: use the pure-"
             "state path or regularize the model", ValidationError)
    drhos = tangents(model, theta)
    u_adj = u.conj().T
    l = u @ (2.0 * (u_adj @ drhos @ u) / (p[:, None] + p[None, :])) @ u_adj
    slds = 0.5 * (l + l.conj().swapaxes(1, 2))
    _require(np.linalg.norm(0.5 * (slds @ rho + rho @ slds) - drhos,
                            axis=(1, 2)),
             LIFT_RESIDUAL_RTOL * np.maximum(
                 1.0, np.linalg.norm(drhos, axis=(1, 2))),
             "SLD reconstruction residual too large", ValidationError)
    return TangentFrame(theta=theta, pure=False, rho=rho, slds=slds)


def frame_at(model, theta):
    """Dispatch to horizontal_lift (pure) or sld_solve (faithful mixed)."""
    if model.pure:
        return horizontal_lift(model, theta)
    return sld_solve(model, theta)


# ---------------------------------------------------------------------------
# model zoo
# ---------------------------------------------------------------------------

def _spin_matrices(s, hbar):
    """Spin matrices S_x, S_y for spin s, basis ordered m = s..-s."""
    dim = int(round(2 * s)) + 1
    mvals = s - np.arange(dim)
    sp = np.zeros((dim, dim), dtype=complex)  # raising operator
    for k in range(1, dim):
        m = mvals[k]
        sp[k - 1, k] = hbar * np.sqrt(s * (s + 1) - m * (m + 1))
    sm = sp.conj().T
    sx = 0.5 * (sp + sm)
    sy = -0.5j * (sp - sm)
    return sx, sy


@functools.cache
def _spin_flow(s, hbar):
    """``flow(t, v) = exp(i t S_x) v`` for spin ``s``, diagonalized and
    checked once per (s, hbar) and process; ``s`` is validated by the
    caller."""
    return skew_flow(_spin_matrices(s, hbar)[0])


def zoo_spin_coherent(s, m_z, hbar=1.0, fd_step=FD_STEP_DEFAULT):
    """Rotated spin eigenstate model, 2 parameters.

    phi(theta) = exp[i theta^1 (sin(theta^2) S_x - cos(theta^2) S_y)] |s, m_z>.

    The generator is S_x turned about z: sin(theta^2) S_x - cos(theta^2) S_y
    = V S_x V^dag with V = exp(-i (theta^2 - pi/2) m) and m = S_z / hbar
    (dimensionless).  So S_x is diagonalized and checked once per (s, hbar)
    and process, by :func:`skew_flow`, and a state costs two d x d
    matrix-vector products.
    ``states_at`` evaluates one point or a stack of them, and ``state_at``
    is its one-point case.

    Closed forms, with c = s^2 + s - m_z^2 (the state turns by hbar theta^1):
    J^S = 2 c diag(hbar^2, sin^2(hbar theta^1)),
    J~_{12} = 2 m_z hbar sin(hbar theta^1),  beta = |m_z| / c.
    ``meta["canonicalize"](theta, ref)`` maps theta into the chart of ``ref``.
    """
    if (2 * s) % 1 != 0 or s <= 0:
        raise ValidationError(f"s must be a positive half-integer, got {s}")
    if abs(m_z) > s or (s - m_z) % 1 != 0:
        raise ValidationError(f"invalid m_z={m_z} for s={s}")
    dim = int(round(2 * s)) + 1
    mvals = s - np.arange(dim)
    flow = _spin_flow(s, hbar)
    phi0 = np.zeros(dim, dtype=complex)
    phi0[int(round(s - m_z))] = 1.0

    def states_at(thetas):
        v = np.exp(-1j * (thetas[..., 1:] - 0.5 * np.pi) * mvals)
        return v * flow(thetas[..., 0], (v.conj() * phi0).T).T

    def state_at(theta):
        return pure_state(states_at(theta))

    # theta^1 -> theta^1 + 2 pi / hbar multiplies the state by (-1)^{2s}, and
    # (theta^1, theta^2) -> (-theta^1, theta^2 + pi) leaves it unchanged, so
    # every cell [k, k + 1] pi / hbar of theta^1 holds one alias of each ray.
    half = np.pi / hbar

    def canonicalize(theta, ref):
        """The alias of ``theta`` with theta^1 in the cell of ``ref`` (that
        is [0, pi / hbar] when ref^1 is) and theta^2 in ref^2 + (-pi, pi]."""
        t1 = theta[0] - 2 * half * np.floor(theta[0] / (2 * half))
        t2 = theta[1]
        if t1 > half:
            t1, t2 = 2 * half - t1, t2 + np.pi
        k = np.floor(ref[0] / half)
        if k % 2:
            t1, t2 = (k + 1) * half - t1, t2 + np.pi
        else:
            t1 = t1 + k * half
        t2 = t2 - 2 * np.pi * np.ceil((t2 - ref[1] - np.pi) / (2 * np.pi))
        return np.array([t1, t2])

    return ParametricModel(kind="spin_coherent", dim=dim, m=2,
                           state_at=state_at, states_at=states_at, hbar=hbar,
                           fd_step=fd_step, meta={"canonicalize": canonicalize})


def annihilation(n):
    """Truncated bosonic annihilation matrix on an n-dimensional Fock space."""
    a = np.zeros((n, n), dtype=complex)
    for k in range(1, n):
        a[k - 1, k] = np.sqrt(k)
    return a


def _check_leakage(vec, label):
    _require((np.abs(vec[-2:]) ** 2).sum(), LEAKAGE_TOL,
             f"{label}: top-Fock population too large; increase trunc_dim",
             ValidationError)


@functools.cache
def _fock_displacement(trunc_dim):
    """``displace(alpha, v) = D(alpha) v``, D(alpha) = exp(alpha a^dag -
    conj(alpha) a), on a truncated Fock space, shared by the Fock models.

    D(r) = exp(i r H) with H = -i (a^dag - a) is diagonalized once, and
    D(r e^{i psi}) = R(-psi) D(r) R(psi) with R(phi) = exp(-i phi n); this
    is exact in the truncated space, where R(phi) a R(phi)^dag = e^{i phi} a.
    """
    if trunc_dim < 32:
        raise ValidationError(f"trunc_dim must be >= 32, got {trunc_dim}")
    a = annihilation(trunc_dim)
    flow = skew_flow(-1j * (a.conj().T - a))
    n = np.arange(trunc_dim)
    n.flags.writeable = False

    def displace(alpha, v):
        r = np.exp(1j * np.angle(alpha) * n)
        return r * flow(abs(alpha), r.conj() * v)

    return displace


@functools.cache
def _fock_squeeze(trunc_dim):
    """``squeeze(r, v) = S(r) v``, S(r) = exp((r/2)(a^2 - a^dag^2)), on a
    truncated Fock space, built once per truncation."""
    a2 = np.linalg.matrix_power(annihilation(trunc_dim), 2)
    return skew_flow(-0.5j * (a2 - a2.conj().T))


def zoo_squeezed(trunc_dim=TRUNC_DIM_DEFAULT, hbar=1.0,
                 fd_step=FD_STEP_DEFAULT):
    """Displaced squeezed vacuum |z, xi> = D(z) S(xi) |0>, 4 parameters.

    z = (theta^1 + i theta^2) / (2 sqrt(hbar)) and xi = theta^3 exp(-2i theta^4).
    The displacement normalization is chosen so the determinant identity of
    the coherent model comes out as |det J^S| = |det J~| =
    (4/hbar^2) sinh^2(2 theta^3); rescaling theta^1, theta^2 only rescales
    both determinants together.  S(xi) |0> = R(theta^4) S(theta^3) |0>, with
    S(r) = exp((r/2)(a^2 - a^dag^2)) diagonalized once.  States live on a
    truncated Fock space; ``state_at`` rejects points where the truncation
    leaks.
    """
    displace = _fock_displacement(trunc_dim)
    squeeze = _fock_squeeze(trunc_dim)
    n = np.arange(trunc_dim)
    vac = (n == 0).astype(complex)

    def state_at(theta):
        z = (theta[0] + 1j * theta[1]) / (2.0 * np.sqrt(hbar))
        v = displace(z, np.exp(-1j * theta[3] * n) * squeeze(theta[2], vac))
        _check_leakage(v, "squeezed model")
        return pure_state(v)

    return ParametricModel(kind="squeezed", dim=trunc_dim, m=4,
                           state_at=state_at, hbar=hbar, fd_step=fd_step)


def zoo_pm_shift(phi0=0, trunc_dim=TRUNC_DIM_DEFAULT, hbar=1.0,
                 fd_step=FD_STEP_DEFAULT):
    """Phase-space shift model, 2 parameters (x0, p0).

    phi(x0, p0) = exp[(i/hbar)(p0 X - x0 P)] |phi0> with X, P built from the
    truncated ladder operator, [X, P] = i hbar, and ``phi0`` a Fock index n
    in [0, trunc_dim - 2).  The generator is the displacement D(alpha) with
    alpha = (x0 + i p0) / sqrt(2 hbar).
    """
    displace = _fock_displacement(trunc_dim)
    if not (isinstance(phi0, (int, np.integer)) and not isinstance(phi0, bool)
            and 0 <= phi0 < trunc_dim - 2):
        raise ValidationError(f"pm_shift param 'n' must be an integer in "
                              f"[0, {trunc_dim - 2}), got {phi0!r}")
    ref = (np.arange(trunc_dim) == phi0).astype(complex)

    def state_at(theta):
        v = displace((theta[0] + 1j * theta[1]) / np.sqrt(2.0 * hbar), ref)
        _check_leakage(v, "pm-shift model")
        return pure_state(v)

    return ParametricModel(kind="pm_shift", dim=trunc_dim, m=2,
                           state_at=state_at, hbar=hbar, fd_step=fd_step)


def zoo_canonical(energies, k_b=1.0, hbar=1.0, fd_step=FD_STEP_DEFAULT):
    """Gibbs family rho(T) = exp(-H / k_B T) / Z, 1 parameter T > 0.

    ``meta`` holds the heat capacity C(T) = Var(H) / (k_B T^2), the
    Fisher information J^S(T) = C(T) / (k_B T^2) and the optimal temperature
    estimator that assigns T + (E_w - <H>_T) / C(T) to energy outcome w.
    """
    e = np.asarray(energies, dtype=float).ravel()
    if len(e) < 2:
        raise ValidationError("need at least two energy levels")

    def probs(t):
        if t <= 0:
            raise ValidationError(f"temperature must be positive, got {t}")
        x = -(e - e.min()) / (k_b * t)
        p = np.exp(x)
        return p / p.sum()

    def state_at(theta):
        return mixed_state(np.diag(probs(theta[0]).astype(complex)),
                           require_faithful=True)

    def heat_capacity(t):
        p = probs(t)
        mean = p @ e
        var = p @ (e - mean) ** 2
        return var / (k_b * t * t)

    def best_estimates(t):
        p = probs(t)
        mean = p @ e
        return t + (e - mean) / heat_capacity(t)

    meta = {
        "heat_capacity": heat_capacity,
        "best_estimates": best_estimates,
        "js": lambda t: heat_capacity(t) / (k_b * t * t),
    }
    return ParametricModel(kind="canonical", dim=len(e), m=1,
                           state_at=state_at, hbar=hbar, fd_step=fd_step,
                           pure=False, meta=meta)


def zoo_time_evolution(h, psi0, hbar=1.0, fd_step=FD_STEP_DEFAULT):
    """Unitary time evolution phi(t) = exp(-i H t / hbar) psi0, 1 parameter.

    ``meta`` holds H, the given psi0 and the energy variance <dH^2> of the
    normalized psi0."""
    h = np.asarray(h, dtype=complex)
    given = np.asarray(psi0, dtype=complex).ravel()
    norm = np.linalg.norm(given)
    if not norm > 0:
        raise ValidationError("time_evolution param 'psi0' must be a nonzero "
                              "vector")
    psi0 = given / norm
    flow = skew_flow(h)

    def state_at(theta):
        return pure_state(flow(-theta[0] / hbar, psi0))

    mean = np.vdot(psi0, h @ psi0).real
    var = (np.vdot(psi0, h @ h @ psi0).real - mean * mean)
    meta = {"h": h, "psi0": given, "var_h": var}
    return ParametricModel(kind="time_evolution", dim=len(psi0), m=1,
                           state_at=state_at, hbar=hbar, fd_step=fd_step,
                           meta=meta)


def explicit_model(state, tangent_vectors, hbar=1.0, pure=True):
    """Single-point model: state and tangents supplied directly.

    Returns the same state and tangents at every theta, so it is only
    meaningful at the one point they were taken at; used by the CLI
    "explicit" model-spec kind and by tests.  It takes at least one
    tangent, each of the state's shape (d for a pure state, d x d mixed).
    """
    tvs =[np.asarray(t, dtype=complex) for t in tangent_vectors]
    if not tvs:
        raise ValidationError("explicit model needs at least one tangent")
    if not all(np.all(np.isfinite(a))
               for a in [np.asarray(state, dtype=complex)] + tvs):
        raise ValidationError("explicit model state and tangents must be "
                              "finite")
    st = (pure_state(state) if pure
          else mixed_state(state, require_faithful=True))
    shape = st.vector.shape if pure else st.density.shape
    if any(t.shape != shape for t in tvs):
        raise ValidationError("explicit model tangents must each have the "
                              f"state's shape {shape}")
    return ParametricModel(kind="explicit", dim=st.dim, m=len(tvs),
                           state_at=lambda th: st, hbar=hbar,
                           tangent_at=lambda th: tvs, pure=pure)


# ---------------------------------------------------------------------------
# model-spec files
# ---------------------------------------------------------------------------

def _complex_array(pairs, name):
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] != 2 or not np.all(np.isfinite(arr)):
        raise ValidationError(f"model spec param {name!r} must hold finite "
                              "[re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def _finite_floats(values, what):
    try:
        out = np.array([float(v) for v in values])
    except (TypeError, ValueError):
        out = np.array([np.nan])
    if not np.all(np.isfinite(out)):
        raise ValidationError(f"{what} must be finite numbers, got {values!r}")
    return out


def _positive(spec, key, default):
    try:
        value = float(spec.get(key, default))
    except (TypeError, ValueError):
        value = np.nan
    if not (np.isfinite(value) and value > 0):
        raise ValidationError(f"model spec {key!r} must be finite and > 0")
    return value


def load_model_spec(spec):
    """Build (model, theta) from a JSON-compatible mapping.

    Format: { "kind": str, "hbar": num, "k_b": num, "trunc_dim": int,
    "params": {...}, "theta": [...], "fd_step": num }.  Kind "explicit"
    supplies "state" and "tangents" as arrays of [re, im] pairs.  A bad field
    raises :class:`ValidationError` naming it.
    """
    if not isinstance(spec, dict):
        raise ValidationError("model spec must be a mapping")
    kind = spec.get("kind")
    hbar = _positive(spec, "hbar", 1.0)
    k_b = _positive(spec, "k_b", 1.0)
    fd_step = _positive(spec, "fd_step", FD_STEP_DEFAULT)
    theta = _finite_floats(spec.get("theta", []), "theta")
    params = spec.get("params", {})

    try:
        trunc = int(spec.get("trunc_dim", TRUNC_DIM_DEFAULT))
        if kind == "spin_coherent":
            model = zoo_spin_coherent(float(params["s"]),
                                      float(params["m_z"]),
                                      hbar=hbar, fd_step=fd_step)
        elif kind == "squeezed":
            model = zoo_squeezed(trunc_dim=trunc, hbar=hbar, fd_step=fd_step)
        elif kind == "pm_shift":
            model = zoo_pm_shift(params.get("n", 0), trunc_dim=trunc,
                                 hbar=hbar, fd_step=fd_step)
        elif kind == "canonical":
            model = zoo_canonical(_finite_floats(params["energies"],
                                                 "energies"),
                                  k_b=k_b, hbar=hbar, fd_step=fd_step)
        elif kind == "time_evolution":
            model = zoo_time_evolution(_complex_array(params["h"], "h"),
                                       _complex_array(params["psi0"], "psi0"),
                                       hbar=hbar, fd_step=fd_step)
        elif kind == "explicit":
            model = explicit_model(
                _complex_array(params["state"], "state"),
                [_complex_array(t, "tangents") for t in params["tangents"]],
                hbar=hbar, pure=params.get("pure", True))
        else:
            raise ValidationError(f"unknown model kind: {kind!r}")
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ValidationError):
            raise
        raise ValidationError(f"model spec of kind {kind!r} has a missing or "
                              f"invalid param: {exc}")

    if len(theta) != model.m:
        raise ValidationError(
            f"theta has {len(theta)} components, model needs {model.m}")
    return model, theta
