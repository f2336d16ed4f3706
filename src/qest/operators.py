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


# Numerical thresholds: fixed, no function takes a tolerance argument.
# An RTOL is multiplied by the size of the tested quantity where it is used.
HERMITIAN_RTOL = 1e-12       # max |A - A^dag|
NORM_TOL = 1e-12             # |<phi|phi> - 1| and |tr rho - 1|, per dimension
PSD_FLOOR = -1e-12           # allowed negative eigenvalue of a state
RECONSTRUCTION_RTOL = 1e-10  # eigendecomposition residual, per dimension
UNITARY_TOL = 1e-10          # singular-value deviation of a unitary
GRAM_IMAG_RTOL = 1e-8        # Im part of a "real" Gram matrix
PHASE_RTOL = 1e-8            # eigenvector component counted for phase fixing
LIFT_RESIDUAL_RTOL = 1e-8    # SLD reconstruction residual
# Shared by several modules:
FAITHFUL_MIN_EIG = 1e-10     # smallest eigenvalue of a faithful state
SINGULAR_RTOL = 1e-12        # eigenvalue or QR pivot counted as zero
PROB_FLOOR = 1e-12           # outcome probability counted as zero
DERIV_FLOOR = 1e-9           # dead-outcome derivative that makes J_M unbounded
ORACLE_SLACK = 1e-9          # round-off by which the oracle may beat a bound


class ValidationError(ValueError):
    """Input fails a structural precondition (bad state, non-Hermitian, ...)."""


class NotRealGramError(ValidationError):
    """Gram matrix of the input vectors is not real: the commuting-measurement
    precondition is violated."""


class InternalConsistencyError(RuntimeError):
    """A derived quantity failed its own verification -- indicates a bug, not
    bad user input."""


def as_hermitian(a):
    """Validate Hermiticity of ``a`` and return the symmetrized matrix."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    defect = np.max(np.abs(a - a.conj().T))
    scale = max(1.0, np.max(np.abs(a)))
    if not defect <= HERMITIAN_RTOL * scale:    # NaN entries fail too
        raise ValidationError(
            f"matrix is not Hermitian: max |A - A^dag| = {defect:.3e}")
    return 0.5 * (a + a.conj().T)


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
    resid = np.linalg.norm(u @ np.diag(w) @ u.conj().T - a)
    scale = max(np.max(np.abs(w)), 1.0)
    if resid > RECONSTRUCTION_RTOL * scale * a.shape[0]:
        raise InternalConsistencyError(
            f"eigendecomposition residual {resid:.3e} too large")
    return w, u


def _sqrtm_psd(a, inverse=False):
    """Hermitian square root of a PSD matrix, or of each matrix of a stack,
    with round-off negative eigenvalues clipped to zero.  ``inverse=True``
    (used for J^S) also returns the inverse root from the same
    eigendecomposition and rejects a singular matrix."""
    w, u = np.linalg.eigh(a)
    if inverse and (w[..., 0] <= 1e-13 * np.maximum(w[..., -1], 1.0)).any():
        raise ValidationError("singular J^S: redundant parameters")
    w = np.sqrt(np.maximum(w, 0.0))[..., None, :]
    u_adj = u.conj().swapaxes(-1, -2)
    root = (u * w) @ u_adj
    if not inverse:
        return root
    return root, (u / w) @ u_adj


def _check_unitary(v, what):
    sv = np.linalg.svd(v, compute_uv=False)
    if np.max(np.abs(sv - 1.0)) > UNITARY_TOL:
        raise InternalConsistencyError(f"{what} deviates from unitarity")


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
    nrm2 = np.vdot(vec, vec).real
    if not abs(nrm2 - 1.0) <= NORM_TOL * max(len(vec), 1):
        raise ValidationError(f"pure state norm^2 = {nrm2!r}, expected 1")
    return QuantumState(kind="pure", dim=len(vec), vector=vec)


def unit_rows(rows):
    """``rows`` (one state vector per row) as a complex array, each row held
    to :func:`pure_state`'s norm test."""
    rows = np.asarray(rows, dtype=complex)
    nrm2 = np.einsum("pa,pa->p", rows.conj(), rows).real
    dev = np.abs(nrm2 - 1.0)
    if not dev.max() <= NORM_TOL * max(rows.shape[1], 1):
        raise ValidationError(
            f"pure state norm^2 = {nrm2[np.argmax(dev)]!r}, expected 1")
    return rows


def mixed_state(rho, require_faithful=False):
    rho = as_hermitian(rho)
    tr = np.trace(rho).real
    if not abs(tr - 1.0) <= NORM_TOL * max(rho.shape[0], 1):
        raise ValidationError(f"density matrix trace = {tr!r}, expected 1")
    w = np.linalg.eigvalsh(rho)
    if w[0] < PSD_FLOOR:
        raise ValidationError(f"density matrix has eigenvalue {w[0]:.3e} < 0")
    if require_faithful and not w[0] >= FAITHFUL_MIN_EIG:
        raise ValidationError(
            f"state is not faithful: min eigenvalue {w[0]:.3e} below "
            f"threshold {FAITHFUL_MIN_EIG:.1e}")
    return QuantumState(kind="mixed", dim=rho.shape[0], density=rho)
