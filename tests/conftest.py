"""Shared builders for the test suite."""

import numpy as np

from qest.models import ParametricModel, explicit_model
from qest.operators import pure_state


def great_circle_model():
    """Qubit phi(theta) = (cos theta/2, sin theta/2), one parameter."""

    def state_at(theta):
        t = theta[0]
        return pure_state(np.array([np.cos(t / 2), np.sin(t / 2)],
                                   dtype=complex))

    return ParametricModel(kind="great_circle", dim=2, m=1, state_at=state_at)


def synthetic_lift_model(jt_block, dim=None):
    """Single-point pure model whose lift Gram matrix is I + i*jt_block.

    Builds lifts with the prescribed Gram matrix in coordinates orthogonal to
    phi = e_0, then wraps them as an explicit model (tangents = lifts / 2).
    """
    jt = np.asarray(jt_block, dtype=float)
    m = jt.shape[0]
    c = np.eye(m) + 1j * jt
    w, u = np.linalg.eigh(c)
    if w[0] < -1e-12:
        raise ValueError("requested Gram matrix is not PSD")
    b = (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T  # c = b^* b
    d = dim if dim is not None else m + 1
    phi = np.zeros(d, dtype=complex)
    phi[0] = 1.0
    lifts = [np.concatenate([[0.0], b[:, i], np.zeros(d - m - 1)])
             for i in range(m)]
    theta = np.zeros(m)
    return explicit_model(phi, [l / 2.0 for l in lifts]), theta


def rotation_qubit_model(gen1, gen2, rho0):
    """Faithful qubit family rho(theta) = U rho0 U^dagger with
    U = exp(-i theta1 gen1) exp(-i theta2 gen2)."""
    from scipy.linalg import expm
    from qest.operators import mixed_state

    def state_at(theta):
        u = expm(-1j * theta[0] * gen1) @ expm(-1j * theta[1] * gen2)
        return mixed_state(u @ rho0 @ u.conj().T, require_faithful=True)

    return ParametricModel(kind="rotation_qubit", dim=2, m=2,
                           state_at=state_at, pure=False)


def rotation_qubit_draw(rng):
    """A :func:`rotation_qubit_model` with random Hermitian generators and a
    random faithful diagonal rho0, and a random point: ``(model, theta)``."""
    def hermitian():
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        return 0.5 * (a + a.conj().T)

    p = rng.uniform(0.1, 0.4)
    model = rotation_qubit_model(hermitian(), hermitian(),
                                 np.diag([1.0 - p, p]).astype(complex))
    return model, rng.uniform(-1.0, 1.0, 2)


def diagonal_qubit_model(basis):
    """Classical family: fixed eigenbasis, eigenvalues moved by theta."""
    from qest.operators import mixed_state

    def state_at(theta):
        p = np.array([0.5 + theta[0] + 0.2 * theta[1],
                      0.5 - theta[0] - 0.2 * theta[1]])
        rho = basis @ np.diag(p.astype(complex)) @ basis.conj().T
        return mixed_state(rho, require_faithful=True)

    return ParametricModel(kind="diagonal_qubit", dim=2, m=2,
                           state_at=state_at, pure=False)
