"""Parametric quantum-state models: tangents, horizontal lifts, SLDs and the
built-in model zoo (spin-coherent rotations, displaced squeezed vacuum,
phase-space shifts of a Fock state, Gibbs families, unitary time evolution).
"""

from dataclasses import dataclass, field

import numpy as np

from .operators import (
    FAITHFUL_MIN_EIG,
    LIFT_RESIDUAL_RTOL,
    SINGULAR_RTOL,
    ValidationError,
    _check_unitary,
    hermitian_eigendecomposition,
    mixed_state,
    pure_state,
)

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
LEAKAGE_TOL = 1e-10


@dataclass(frozen=True)
class ParametricModel:
    """Map theta in R^m -> quantum state, with a tangent supplier.

    ``state_at(theta)`` returns a :class:`QuantumState`.  Tangents are
    central finite differences by default; models that know their derivative
    in closed form may supply ``tangent_at(theta) -> list of d(state)``.
    """

    kind: str
    dim: int
    m: int
    state_at: callable
    hbar: float = 1.0
    fd_step: float = FD_STEP_DEFAULT
    tangent_at: callable = None
    pure: bool = True
    meta: dict = field(default_factory=dict)

    def state(self, theta):
        return self.state_at(np.asarray(theta, dtype=float))


@dataclass(frozen=True)
class TangentFrame:
    """State plus derivative data at a point.

    Pure models carry the base vector ``phi`` and horizontal lifts
    ``lifts[i] = 2 (I - |phi><phi|) |d_i phi>`` (each orthogonal to phi).
    Faithful mixed models carry ``rho`` and Hermitian SLD operators
    ``slds[i]`` solving  d_i rho = (L_i rho + rho L_i)/2.
    """

    theta: np.ndarray
    pure: bool
    phi: np.ndarray = None
    lifts: list = None
    rho: np.ndarray = None
    slds: list = None

    @property
    def m(self):
        return len(self.lifts) if self.pure else len(self.slds)

    def sld_operators(self):
        """SLD operators, valid for pure frames too:
        L_i = |l_i><phi| + |phi><l_i|."""
        if not self.pure:
            return list(self.slds)
        return [np.outer(l, self.phi.conj()) + np.outer(self.phi, l.conj())
                for l in self.lifts]


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
    mat = np.column_stack([frame.phi] + list(frame.lifts))
    q, r = np.linalg.qr(mat)
    keep = np.abs(np.diag(r)) > SINGULAR_RTOL * max(1.0, np.abs(r).max())
    q = q[:, keep]
    k = q.shape[1]
    if dilate_dim < max(k, frame.m + 1):
        raise ValidationError(
            f"dilate_dim {dilate_dim} below the embedding requirement "
            f"{max(k, frame.m + 1)}")
    out = np.zeros((dilate_dim, mat.shape[1]), dtype=complex)
    out[:k, :] = q.conj().T @ mat
    return q, out[:, 0], out[:, 1:]


def _align_phase(ref, vec):
    """Multiply ``vec`` by a unimodular factor so <ref|vec> is real positive."""
    ov = np.vdot(ref, vec)
    if abs(ov) < 1e-12:
        raise ValidationError(
            "phase alignment impossible: neighbor state orthogonal to center "
            "(fd_step far too large?)")
    return vec * (ov.conjugate() / abs(ov))


def tangents(model, theta):
    """List of d_i(state) at theta: the model's ``tangent_at`` when it has
    one, else central finite differences with pure-state phase alignment."""
    theta = np.asarray(theta, dtype=float)
    if model.tangent_at is not None:
        return [np.asarray(t, dtype=complex) for t in model.tangent_at(theta)]

    h = model.fd_step
    st0 = model.state(theta)
    out = []
    for i in range(model.m):
        dt = np.zeros(model.m)
        dt[i] = h
        sp = model.state(theta + dt)
        sm = model.state(theta - dt)
        if model.pure:
            vp = _align_phase(st0.vector, sp.vector)
            vm = _align_phase(st0.vector, sm.vector)
            out.append((vp - vm) / (2.0 * h))
        else:
            out.append((sp.rho - sm.rho) / (2.0 * h))
    return out


def horizontal_lift(model, theta):
    """Tangent frame of a pure model: horizontal lifts of the coordinate
    tangents, l_i = 2 (I - |phi><phi|) |d_i phi>."""
    if not model.pure:
        raise ValidationError("horizontal_lift requires a pure model")
    theta = np.asarray(theta, dtype=float)
    phi = model.state(theta).vector
    dphis = tangents(model, theta)
    lifts = []
    for dphi in dphis:
        l = 2.0 * (dphi - phi * np.vdot(phi, dphi))
        lifts.append(l)

    # non-redundancy: the real span of the lifts must have dimension m
    stacked = np.array([np.concatenate([l.real, l.imag]) for l in lifts])
    scale = max(np.linalg.norm(stacked), 1e-300)
    rank = np.linalg.matrix_rank(stacked, tol=1e-8 * scale)
    if rank < model.m:
        raise ValidationError(
            f"redundant parameters: real span of lifts has rank {rank} < {model.m}")
    return TangentFrame(theta=theta, pure=True, phi=phi, lifts=lifts)


def sld_solve(model, theta):
    """Tangent frame of a faithful mixed model: Hermitian SLDs from the
    eigenbasis formula (L_i)_{ab} = 2 <a|d_i rho|b> / (p_a + p_b)."""
    theta = np.asarray(theta, dtype=float)
    st = model.state(theta)
    if st.kind != "mixed":
        raise ValidationError("sld_solve requires a mixed model")
    rho = st.density
    p, u = hermitian_eigendecomposition(rho)
    if p[0] < FAITHFUL_MIN_EIG:
        raise ValidationError(
            f"state not faithful at theta={theta}: min eigenvalue {p[0]:.3e}; "
            "use the pure-state path or regularize the model")
    drhos = tangents(model, theta)
    denom = p[:, None] + p[None, :]
    slds = []
    for drho in drhos:
        m_eig = 2.0 * (u.conj().T @ drho @ u) / denom
        l = u @ m_eig @ u.conj().T
        l = 0.5 * (l + l.conj().T)
        resid = np.linalg.norm(0.5 * (l @ rho + rho @ l) - drho)
        if resid > LIFT_RESIDUAL_RTOL * max(1.0, np.linalg.norm(drho)):
            raise ValidationError(f"SLD reconstruction residual {resid:.3e}")
        slds.append(l)
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


def zoo_spin_coherent(s, m_z, hbar=1.0, fd_step=FD_STEP_DEFAULT):
    """Rotated spin eigenstate model, 2 parameters.

    phi(theta) = exp[i theta^1 (sin(theta^2) S_x - cos(theta^2) S_y)] |s, m_z>.

    The generator is S_x turned about z: sin(theta^2) S_x - cos(theta^2) S_y
    = V S_x V^dag with V = exp(-i (theta^2 - pi/2) m) and m = S_z / hbar
    (dimensionless).  So S_x is diagonalized and checked once, here, and a
    state costs two d x d matrix-vector products.

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
    sx, _ = _spin_matrices(s, hbar)
    w, u = hermitian_eigendecomposition(sx)
    _check_unitary(u, "S_x eigenbasis")
    u_adj = u.conj().T
    phi0 = np.zeros(dim, dtype=complex)
    phi0[int(round(s - m_z))] = 1.0

    def state_at(theta):
        v = np.exp(-1j * (theta[1] - 0.5 * np.pi) * mvals)
        c = u_adj @ (v.conj() * phi0)
        return pure_state(v * (u @ (np.exp(1j * theta[0] * w) * c)))

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
                           state_at=state_at, hbar=hbar, fd_step=fd_step,
                           meta={"canonicalize": canonicalize})


def annihilation(n):
    """Truncated bosonic annihilation matrix on an n-dimensional Fock space."""
    a = np.zeros((n, n), dtype=complex)
    for k in range(1, n):
        a[k - 1, k] = np.sqrt(k)
    return a


def _check_leakage(vec, label):
    leak = np.abs(vec[-2:]) ** 2
    if leak.sum() > LEAKAGE_TOL:
        raise ValidationError(
            f"{label}: top-Fock population {leak.sum():.3e} exceeds "
            f"{LEAKAGE_TOL:.0e}; increase trunc_dim")


def zoo_squeezed(trunc_dim=TRUNC_DIM_DEFAULT, hbar=1.0,
                 fd_step=FD_STEP_DEFAULT):
    """Displaced squeezed vacuum |z, xi> = D(z) S(xi) |0>, 4 parameters.

    z = (theta^1 + i theta^2) / (2 sqrt(hbar)) and xi = theta^3 exp(-2i theta^4).
    The displacement normalization is chosen so the determinant identity of
    the coherent model comes out as |det J^S| = |det J~| =
    (4/hbar^2) sinh^2(2 theta^3); rescaling theta^1, theta^2 only rescales
    both determinants together.  States live on a truncated Fock space; the
    constructor rejects points where the truncation leaks.
    """
    if trunc_dim < 32:
        raise ValidationError("trunc_dim must be >= 32")
    a = annihilation(trunc_dim)
    ad = a.conj().T
    a2 = a @ a
    ad2 = ad @ ad
    vac = np.zeros(trunc_dim, dtype=complex)
    vac[0] = 1.0
    from scipy.linalg import expm

    def state_at(theta):
        z = (theta[0] + 1j * theta[1]) / (2.0 * np.sqrt(hbar))
        xi = theta[2] * np.exp(-2j * theta[3])
        sq = expm(0.5 * (np.conj(xi) * a2 - xi * ad2))
        disp = expm(z * ad - np.conj(z) * a)
        v = disp @ (sq @ vac)
        _check_leakage(v, "squeezed model")
        return pure_state(v / np.linalg.norm(v))

    return ParametricModel(kind="squeezed", dim=trunc_dim, m=4,
                           state_at=state_at, hbar=hbar, fd_step=fd_step)


def zoo_pm_shift(phi0=0, trunc_dim=TRUNC_DIM_DEFAULT, hbar=1.0,
                 fd_step=FD_STEP_DEFAULT):
    """Phase-space shift model, 2 parameters (x0, p0).

    phi(x0, p0) = exp[(i/hbar)(p0 X - x0 P)] |phi0> with X, P built from the
    truncated ladder operator, [X, P] = i hbar.  ``phi0`` is a Fock index or
    an explicit reference vector.
    """
    a = annihilation(trunc_dim)
    ad = a.conj().T
    x = np.sqrt(hbar / 2.0) * (a + ad)
    p = 1j * np.sqrt(hbar / 2.0) * (ad - a)
    if np.isscalar(phi0):
        ref = np.zeros(trunc_dim, dtype=complex)
        ref[int(phi0)] = 1.0
    else:
        ref = np.asarray(phi0, dtype=complex).ravel()
        ref = ref / np.linalg.norm(ref)
    from scipy.linalg import expm

    def state_at(theta):
        gen = (theta[1] * x - theta[0] * p) / hbar
        v = expm(1j * gen) @ ref
        _check_leakage(v, "pm-shift model")
        return pure_state(v / np.linalg.norm(v))

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
    psi0 = given / np.linalg.norm(given)
    w, u = hermitian_eigendecomposition(h)
    coeff = u.conj().T @ psi0

    def state_at(theta):
        return pure_state(u @ (np.exp(-1j * w * theta[0] / hbar) * coeff))

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
    "explicit" model-spec kind and by tests.
    """
    tvs = [np.asarray(t, dtype=complex) for t in tangent_vectors]
    st = (pure_state(state) if pure
          else mixed_state(state, require_faithful=True))
    return ParametricModel(kind="explicit", dim=st.dim, m=len(tvs),
                           state_at=lambda th: st, hbar=hbar,
                           tangent_at=lambda th: tvs, pure=pure)


# ---------------------------------------------------------------------------
# model-spec files
# ---------------------------------------------------------------------------

def _complex_array(pairs):
    arr = np.asarray(pairs, dtype=float)
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
            model = zoo_canonical(params["energies"], k_b=k_b, hbar=hbar,
                                  fd_step=fd_step)
        elif kind == "time_evolution":
            model = zoo_time_evolution(_complex_array(params["h"]),
                                       _complex_array(params["psi0"]),
                                       hbar=hbar, fd_step=fd_step)
        elif kind == "explicit":
            model = explicit_model(
                _complex_array(params["state"]),
                [_complex_array(t) for t in params["tangents"]],
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
