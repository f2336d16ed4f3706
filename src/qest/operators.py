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
    "matrix_exponential_skew",
    "gram_schmidt_real_coefficients",
    "QuantumState",
    "pure_state",
    "mixed_state",
    "Purification",
]


# Numerical thresholds: fixed, no function takes a tolerance argument.
# An RTOL is multiplied by the size of the tested quantity where it is used.
HERMITIAN_RTOL = 1e-12       # max |A - A^dag|
NORM_TOL = 1e-12             # |<phi|phi> - 1| and |tr rho - 1|, per dimension
PSD_FLOOR = -1e-12           # allowed negative eigenvalue of a state
RECONSTRUCTION_RTOL = 1e-10  # eigendecomposition residual, per dimension
UNITARY_TOL = 1e-10          # singular-value deviation of exp(iH)
GRAM_IMAG_RTOL = 1e-8        # Im part of a "real" Gram matrix
REAL_COEFF_RTOL = 1e-10      # Im part of a Gram-Schmidt coefficient
RANK_RTOL = 1e-10            # linear-dependence cutoff in Gram-Schmidt
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
    if defect > HERMITIAN_RTOL * scale:
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
    """Hermitian square root of a PSD matrix, with round-off negative
    eigenvalues clipped to zero.  ``inverse=True`` (used for J^S) also
    returns the inverse root from the same eigendecomposition and rejects a
    singular matrix."""
    w, u = np.linalg.eigh(a)
    if inverse and w[0] <= 1e-13 * max(w[-1], 1.0):
        raise ValidationError("singular J^S: redundant parameters")
    w = np.clip(w, 0.0, None)
    root = (u * np.sqrt(w)) @ u.conj().T
    if not inverse:
        return root
    return root, (u / np.sqrt(w)) @ u.conj().T


def matrix_exponential_skew(h, scale=1.0):
    """Unitary ``exp(i * scale * H)`` for Hermitian ``H`` via eigendecomposition."""
    w, u = hermitian_eigendecomposition(h)
    ew = np.exp(1j * scale * w)
    v = (u * ew) @ u.conj().T
    sv = np.linalg.svd(v, compute_uv=False)
    if np.max(np.abs(sv - 1.0)) > UNITARY_TOL:
        raise InternalConsistencyError("exp(iH) deviates from unitarity")
    return v


def gram_schmidt_real_coefficients(vectors):
    """Orthonormalize ``vectors`` assuming their Gram matrix is real.

    Returns ``(basis, coeffs, rank)`` where ``basis`` is a list of
    orthonormal complex vectors, ``coeffs[i]`` are the (real) expansion
    coefficients of input ``i`` in that basis, and ``rank`` is the number of
    independent inputs.  Linearly dependent inputs are kept in ``coeffs`` but
    contribute no new basis vector.

    Raises :class:`NotRealGramError` when the Gram matrix has an imaginary
    part above tolerance -- in that case real-coefficient orthogonalization
    is impossible and the commuting-measurement construction does not apply.
    """
    vs = [np.asarray(v, dtype=complex).ravel() for v in vectors]
    n = len(vs)
    gram = np.array([[np.vdot(a, b) for b in vs] for a in vs])
    if np.max(np.abs(gram.imag)) > GRAM_IMAG_RTOL * max(1.0, np.max(np.abs(gram))):
        raise NotRealGramError(
            f"Gram matrix imaginary part {np.max(np.abs(gram.imag)):.3e} "
            "exceeds tolerance")
    scale = np.sqrt(max(np.max(np.abs(gram.real)), 1e-300))

    basis = []
    coeffs = np.zeros((n, n))
    for i, v in enumerate(vs):
        resid = v.copy()
        for j, b in enumerate(basis):
            c = np.vdot(b, v)
            if abs(c.imag) > REAL_COEFF_RTOL * max(1.0, abs(c)):
                raise NotRealGramError(
                    f"non-real Gram-Schmidt coefficient {c:.3e}")
            coeffs[i, j] = c.real
            resid = resid - c.real * b
        nrm = np.linalg.norm(resid)
        if nrm > RANK_RTOL * scale:
            b = resid / nrm
            coeffs[i, len(basis)] = nrm
            basis.append(b)
    rank = len(basis)
    return basis, coeffs[:, :rank], rank


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
    if abs(nrm2 - 1.0) > NORM_TOL * max(len(vec), 1):
        raise ValidationError(f"pure state norm^2 = {nrm2!r}, expected 1")
    return QuantumState(kind="pure", dim=len(vec), vector=vec)


def mixed_state(rho, require_faithful=False):
    rho = as_hermitian(rho)
    tr = np.trace(rho).real
    if abs(tr - 1.0) > NORM_TOL * max(rho.shape[0], 1):
        raise ValidationError(f"density matrix trace = {tr!r}, expected 1")
    w = np.linalg.eigvalsh(rho)
    if w[0] < PSD_FLOOR:
        raise ValidationError(f"density matrix has eigenvalue {w[0]:.3e} < 0")
    if require_faithful and not w[0] >= FAITHFUL_MIN_EIG:
        raise ValidationError(
            f"state is not faithful: min eigenvalue {w[0]:.3e} below "
            f"threshold {FAITHFUL_MIN_EIG:.1e}")
    return QuantumState(kind="mixed", dim=rho.shape[0], density=rho)


@dataclass(frozen=True)
class Purification:
    """d x r matrix W with rho = W W^dag and tr W W^dag = 1."""

    W: np.ndarray

    def __post_init__(self):
        tr = np.trace(self.W @ self.W.conj().T).real
        if abs(tr - 1.0) > 1e-10:
            raise ValidationError(f"purification trace = {tr!r}, expected 1")

    @property
    def rho(self):
        return self.W @ self.W.conj().T
