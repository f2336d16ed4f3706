import numpy as np
import pytest
from scipy.linalg import expm

from qest.operators import (
    InternalConsistencyError,
    NotRealGramError,
    ValidationError,
    _require,
    hermitian_eigendecomposition,
    matrix_exponential_skew,
    mixed_state,
    pure_state,
    skew_flow,
    unit_rows,
)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


class TestEigendecomposition:
    def test_diagonal_input(self):
        w, u = hermitian_eigendecomposition(np.diag([2.0, 1.0]).astype(complex))
        assert np.allclose(w, [1.0, 2.0])
        assert np.allclose(np.abs(u), np.eye(2)[:, ::-1])

    def test_pauli_x_spectrum(self):
        w, _ = hermitian_eigendecomposition(SIGMA_X)
        assert np.allclose(w, [-1.0, 1.0])

    def test_random_reconstruction(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        a = z + z.conj().T
        w, u = hermitian_eigendecomposition(a)
        err = np.max(np.abs(u @ np.diag(w) @ u.conj().T - a))
        assert err <= 1e-10 * np.max(np.abs(a))

    def test_phase_convention(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        _, u = hermitian_eigendecomposition(z + z.conj().T)
        for col in u.T:
            first = col[np.argmax(np.abs(col) > 1e-8)]
            assert first.real > 0 and abs(first.imag) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            hermitian_eigendecomposition(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSkewFlow:
    def test_matches_expm_on_vectors_and_matrices(self):
        rng = np.random.default_rng(11)
        z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        h = z + z.conj().T
        flow = skew_flow(h)
        vs = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        for t in (-1.7, 0.0, 0.4, 5.0):
            ref = expm(1j * t * h)
            assert np.max(np.abs(flow(t, vs) - ref @ vs)) <= 1e-12
            assert np.max(np.abs(flow(t, vs[:, 0]) - ref @ vs[:, 0])) <= 1e-12

    def test_one_time_per_column(self):
        rng = np.random.default_rng(12)
        z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        flow = skew_flow(z + z.conj().T)
        ts = rng.uniform(-3.0, 3.0, 7)
        vs = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
        out = flow(ts, vs)
        for p, t in enumerate(ts):
            # a column's bits do not depend on the batch it came in
            assert np.array_equal(out[:, p], flow(t, vs[:, p]))
            ref = expm(1j * t * (z + z.conj().T)) @ vs[:, p]
            assert np.max(np.abs(out[:, p] - ref)) <= 1e-12


class TestMatrixExponential:
    def test_sigma_z_pi(self):
        u = matrix_exponential_skew(SIGMA_Z, np.pi)
        assert np.max(np.abs(u + np.eye(2))) < 1e-12

    def test_zero_generator(self):
        assert np.allclose(matrix_exponential_skew(np.zeros((3, 3)), 1.0),
                           np.eye(3))

    def test_inverse_pair(self):
        rng = np.random.default_rng(7)
        z = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        h = z + z.conj().T
        u = matrix_exponential_skew(h, 1.0) @ matrix_exponential_skew(h, -1.0)
        assert np.max(np.abs(u - np.eye(5))) <= 1e-10

    def test_unitarity(self):
        rng = np.random.default_rng(9)
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        u = matrix_exponential_skew(z + z.conj().T, 0.37)
        sv = np.linalg.svd(u, compute_uv=False)
        assert np.max(np.abs(sv - 1.0)) <= 1e-10


class TestStates:
    def test_pure_norm_enforced(self):
        with pytest.raises(ValidationError):
            pure_state(np.array([1.0, 1.0]))
        with pytest.raises(ValidationError):
            pure_state(np.array([np.nan, 0.0]))

    def test_mixed_validation(self):
        rho = np.diag([0.6, 0.4]).astype(complex)
        st = mixed_state(rho, require_faithful=True)
        assert st.kind == "mixed"
        with pytest.raises(ValidationError):
            mixed_state(np.diag([1.2, -0.2]).astype(complex))
        with pytest.raises(ValidationError):
            mixed_state(np.diag([np.nan, 0.5]).astype(complex))
        with pytest.raises(ValidationError):
            mixed_state(np.diag([1.0, 0.0]).astype(complex),
                        require_faithful=True)

    def test_nan_off_diagonal_rejected(self):
        rho = np.array([[0.5, np.nan], [np.nan, 0.5]], dtype=complex)
        with pytest.raises(ValidationError):
            mixed_state(rho)
        with pytest.raises(ValidationError):
            hermitian_eigendecomposition(rho)

    def test_unit_rows_checks_every_row(self):
        rows = np.array([[1.0, 0.0], [0.6, 0.8j], [0.0, -1.0]])
        assert np.array_equal(unit_rows(rows), rows)
        for bad in (1.1, np.nan):
            worse = rows.copy()
            worse[1, 0] = bad
            with pytest.raises(ValidationError):
                unit_rows(worse)


NAN = float("nan")


class TestRequire:
    """The one check rule: every residual at most its tolerance passes, a
    NaN fails, and the refusal is the caller's class with the caller's
    text first, then the worst residual and its tolerance."""

    @pytest.mark.parametrize("residual, tol, worst", [
        (np.array([0.5, 1.0]), 1.0, None),
        (np.float64(1.0), 1.0, None),
        (-np.array([3.0, 2.0]), -2.0, None),
        (np.array([[1.0, 2.0]]), np.array([[1.0, 2.0]]), None),
        (np.array([0.5, 1.5]), 1.0, "1.500e+00, tolerance 1.000e+00"),
        (np.float64(NAN), 1.0, "nan, tolerance 1.000e+00"),
        (np.array([2.0, NAN]), 1.0, "nan, tolerance 1.000e+00"),
        (np.array([2.0, 9.0, 4.0]), np.array([1.0, 8.5, 1.0]),
         "4.000e+00, tolerance 1.000e+00"),
        (np.array([5.0, NAN]), np.array([1.0, 1.0]),
         "nan, tolerance 1.000e+00"),
    ], ids=["scalar_equal_passes", "numpy_scalar_equal_passes",
            "lower_bound_equal_passes", "per_entry_equal_passes",
            "scalar_exceeded", "scalar_nan", "nan_entry_scalar_tol",
            "per_entry_worst_excess", "per_entry_nan_first"])
    @pytest.mark.parametrize("error", [InternalConsistencyError,
                                       ValidationError, NotRealGramError])
    def test_rule(self, residual, tol, worst, error):
        if worst is None:
            assert _require(residual, tol, "some check", error) is None
            return
        with pytest.raises(error) as info:
            _require(residual, tol, "some check failed", error)
        assert type(info.value) is error
        assert str(info.value) == ("some check failed (worst residual "
                                   + worst + ")")

    def test_default_error_is_internal(self):
        with pytest.raises(InternalConsistencyError, match=r"^Re X\*L != I"):
            _require(np.array([NAN]), 1e-8, "Re X*L != I")
