"""Dense complex linear algebra and validated quantum-state containers.

Everything downstream (tangent frames, information matrices, measurement
constructions) goes through the helpers here, so the numerical conventions
(eigenvector phase fixing, thresholds) are centralized in this module.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ValidationError",
    "NotRealGramError",
    "InternalConsistencyError",
    "as_hermitian",
    "hermitian_eigendecomposition",
    "skew_flow",
    "matrix_exponential_skew",
    "QuantumState",
    "pure_state",
    "unit_rows",
    "mixed_state",
]


# The tolerance table: every tolerance of qest, fixed, named once.  No
# function takes a tolerance argument.  An RTOL is multiplied by the size of
# the tested quantity where it is used.  Every check passes its residual to
# _require; a classification compares with its constant directly.
# states and operators
HERMITIAN_RTOL = 1e-12       # max |A - A^dag|
NORM_TOL = 1e-12             # |<phi|phi> - 1| and |tr rho - 1|, per dimension
PSD_FLOOR = -1e-12           # allowed negative eigenvalue of a state
FAITHFUL_MIN_EIG = 1e-10     # smallest eigenvalue of a faithful state
RECONSTRUCTION_RTOL = 1e-10  # eigendecomposition residual, per dimension
UNITARY_TOL = 1e-10          # singular-value deviation of a unitary
PHASE_RTOL = 1e-8            # eigenvector component counted for phase fixing
SINGULAR_RTOL = 1e-12        # eigenvalue or QR pivot counted as zero
JS_SINGULAR_RTOL = 1e-13     # eigenvalue ratio at which J^S is singular
# models
ALIGN_FLOOR = 1e-12          # smallest |<phi|phi'>| of an aligned neighbour
LIFT_RANK_RTOL = 1e-8        # singular value of the lifts counted as zero
LIFT_RESIDUAL_RTOL = 1e-8    # SLD reconstruction residual
LEAKAGE_TOL = 1e-10          # population of the top two Fock levels
# geometry
QUASI_CLASSICAL_RTOL = 1e-9  # max |J~| of a quasi-classical point, rel. J^S
BETA_PAIR_TOL = 1e-8         # eigenvalue of iN counted as a beta pair
COHERENT_BETA_TOL = 1e-6     # |beta - 1| of every pair of a coherent point
FRAME_BETA_SLACK = 1e-9      # round-off by which a frame's beta may exceed 1
DET_CHECK_RTOL = 1e-6        # | |det J^S| - |det J~| |, relative to |det J^S|
CLOSURE_TOL = 1e-12          # distance of a closed polygon's last vertex
DIRECT_SUM_TOL = 1e-8        # normalized J^S and J~ off their canonical form
STEP_FIDELITY = np.cos(0.5)  # smallest fidelity of consecutive states
# bounds
LAGRANGE_RESIDUAL_TOL = 1e-8  # two-parameter stationarity residual, relative
ARG_BETA_SLACK = 1e-12       # amount by which a beta argument may exceed 1
OFF_BLOCK_RTOL = 1e-10       # weight mass coupling independent blocks
# measurements and the oracle
PROB_FLOOR = 1e-12           # outcome probability counted as zero
DERIV_FLOOR = 1e-9           # dead-outcome derivative that makes J_M unbounded
PVM_TOL = 1e-10              # Hermitian, idempotent and complete projectors
XCHECK_TOL = 1e-8            # X*X real, Re X*X = V, Re X*L = I, <phi|x^i> = 0
UNBIASED_TOL = 1e-8          # mean estimate of a built PVM minus theta
COVARIANCE_RTOL = 1e-9       # covariance of a built PVM minus Re X*X
TAIL_PSD_RTOL = 1e-7         # allowed negative eigenvalue of V - Z
OVERLAP_FLOOR = 1e-9         # overlap with phi at which an outcome is lost
COMMUTATOR_TOL = 1e-8        # max |[L_i, L_j]| of commuting SLDs, rel. |L|^2
DIAGONAL_RTOL = 1e-6         # off-diagonal part of a diagonalized SLD
REMAINDER_TOL = 1e-9         # Naimark remainder element counted as present
ORACLE_SLACK = 1e-9          # round-off by which the oracle may beat a bound


class ValidationError(ValueError):
    """Input fails a structural precondition (bad state, non-Hermitian, ...)."""


class NotRealGramError(ValidationError):
    """Gram matrix of the input vectors is not real: the commuting-measurement
    precondition is violated."""


class InternalConsistencyError(RuntimeError):
    """A derived quantity failed its own verification -- indicates a bug, not
    bad user input."""


def _require(residual, tol, what, error=InternalConsistencyError):
    """The check rule: raise ``error`` unless every residual is at most its
    tolerance, so that a NaN residual fails.  ``tol`` is a float, or an
    array with one tolerance per entry for a row-scaled stacked check; a
    lower bound x >= floor is checked as -x <= -floor.  The message is
    ``what`` followed by the worst residual and its tolerance."""
    if isinstance(tol, float):
        worst = residual if isinstance(residual, float) else residual.max()
        if worst <= tol:
            return
    else:
        ok = residual <= tol
        if ok.all():
            return
        k = np.argmax(np.where(ok, -np.inf, residual - tol))   # NaN first
        worst, tol = residual.flat[k], tol.flat[k]
    raise error(f"{what} (worst residual {worst:.3e}, tolerance {tol:.3e})")


def as_hermitian(a):
    """Validate Hermiticity of ``a`` and return the symmetrized matrix."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    _require(np.abs(a - a.conj().T),
             HERMITIAN_RTOL * max(1.0, np.abs(a).max()),
             "matrix is not Hermitian: max |A - A^dag|", ValidationError)
    return 0.5 * a + 0.5 * a.conj().T    # a + a^dag may overflow


def _fix_phases(vecs):
    """Deterministic eigenvector gauge: first component of each column with
    modulus above ``PHASE_RTOL`` (relative to the column max) is made real
    positive."""
    out = vecs.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        idx = np.flatnonzero(np.abs(col) > PHASE_RTOL * np.max(np.abs(col)))[0]
        phase = col[idx] / abs(col[idx])
        out[:, k] = col / phase
    return out


def hermitian_eigendecomposition(a):
    """Eigendecomposition of a Hermitian matrix with deterministic ordering.

    Returns ``(w, u)`` with eigenvalues ``w`` ascending and unitary ``u``
    such that ``a = u @ diag(w) @ u^dag``.  Eigenvector phases are fixed so
    the first significant component of each column is real positive, which
    makes degenerate subspaces reproducible across runs.
    """
    a = as_hermitian(a)
    w, u = np.linalg.eigh(a)
    u = _fix_phases(u)
    _require(np.linalg.norm(u @ np.diag(w) @ u.conj().T - a),
             RECONSTRUCTION_RTOL * max(np.max(np.abs(w)), 1.0) * a.shape[0],
             "eigendecomposition residual too large")
    return w, u


def _sqrtm_psd(a, inverse=False):
    """Hermitian square root of a PSD matrix, or of each matrix of a stack,
    with round-off negative eigenvalues clipped to zero.  ``inverse=True``
    (used for J^S) also returns the inverse root from the same
    eigendecomposition and rejects a singular matrix."""
    w, u = np.linalg.eigh(a)
    # refused at equality, and where NaN
    if inverse and not (w[..., 0] > JS_SINGULAR_RTOL
                        * np.maximum(w[..., -1], 1.0)).all():
        raise ValidationError("singular J^S: redundant parameters")
    w = np.sqrt(np.maximum(w, 0.0))[..., None, :]
    u_adj = u.conj().swapaxes(-1, -2)
    root = (u * w) @ u_adj
    if not inverse:
        return root
    return root, (u / w) @ u_adj


def _check_unitary(v, what):
    _require(np.abs(np.linalg.svd(v, compute_uv=False) - 1.0), UNITARY_TOL,
             f"{what} deviates from unitarity")


def skew_flow(h):
    """``flow(t, v) = exp(i t H) v`` for Hermitian ``H``, diagonalized and
    checked once; ``v`` is a vector or a matrix of column vectors, and ``t``
    a scalar or one time per column.  A column costs the same two
    matrix-vector products as a vector, so its bits do not depend on the
    columns that come with it.  Its arrays are read-only."""
    w, u = hermitian_eigendecomposition(h)
    _check_unitary(u, "eigenbasis")
    u_adj = u.conj().T
    for arr in (w, u, u_adj):
        arr.flags.writeable = False

    def flow(t, v):
        if v.ndim == 1:
            return u @ (np.exp(1j * t * w) * (u_adj @ v))
        c = (u_adj @ v.T[..., None])[..., 0]
        c = np.exp(1j * np.multiply.outer(t, w)) * c
        return (u @ c[..., None])[..., 0].T

    return flow


def matrix_exponential_skew(h, scale=1.0):
    """Unitary ``exp(i * scale * H)`` for Hermitian ``H``."""
    v = skew_flow(h)(scale, np.eye(np.shape(h)[0]))
    _check_unitary(v, "exp(iH)")
    return v


@dataclass(frozen=True)
class QuantumState:
    """Validated pure or mixed state.

    For ``kind == "pure"`` the ``vector`` field holds a unit complex vector;
    for ``kind == "mixed"`` the ``density`` field holds a Hermitian PSD
    trace-one matrix.
    """

    kind: str
    dim: int
    vector: np.ndarray = None
    density: np.ndarray = None

    @property
    def rho(self):
        """Density matrix view (outer product for pure states)."""
        if self.kind == "pure":
            return np.outer(self.vector, self.vector.conj())
        return self.density


def pure_state(vec):
    vec = np.asarray(vec, dtype=complex).ravel()
    _require(abs(np.vdot(vec, vec).real - 1.0), NORM_TOL * max(len(vec), 1),
             "pure state norm^2 is not 1", ValidationError)
    return QuantumState(kind="pure", dim=len(vec), vector=vec)


def unit_rows(rows):
    """``rows`` (one state vector per row) as a complex array, each row held
    to :func:`pure_state`'s norm test."""
    rows = np.asarray(rows, dtype=complex)
    nrm2 = np.einsum("pa,pa->p", rows.conj(), rows).real
    _require(np.abs(nrm2 - 1.0), NORM_TOL * max(rows.shape[1], 1),
             "pure state norm^2 is not 1", ValidationError)
    return rows


def mixed_state(rho, require_faithful=False):
    rho = as_hermitian(rho)
    _require(abs(np.trace(rho).real - 1.0), NORM_TOL * max(rho.shape[0], 1),
             "density matrix trace is not 1", ValidationError)
    floor, what = ((FAITHFUL_MIN_EIG, "state is not faithful: min eigenvalue")
                   if require_faithful else
                   (PSD_FLOOR, "density matrix has a negative eigenvalue"))
    _require(-np.linalg.eigvalsh(rho)[0], -floor, what, ValidationError)
    return QuantumState(kind="mixed", dim=rho.shape[0], density=rho)
