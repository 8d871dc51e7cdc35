import numpy as np
import numpy.testing as npt
import pytest

from venuecca.linalg import NotPositiveDefiniteError, regularized_covariance

from reference import inv_sqrt_sym


class TestInvSqrtSym:
    def test_self_inverting_contract(self):
        rng = np.random.default_rng(2)
        Z = rng.standard_normal((5, 50))
        M = regularized_covariance(Z, 1e-3)
        R = inv_sqrt_sym(M)
        npt.assert_allclose(R @ M @ R, np.eye(5), atol=1e-10)
        npt.assert_array_equal(R, R.T)

    def test_diagonal_closed_form(self):
        M = np.diag([4.0, 9.0, 16.0])
        npt.assert_allclose(inv_sqrt_sym(M), np.diag([0.5, 1 / 3, 0.25]), atol=1e-12)

    def test_non_positive_definite_reports_eigenvalue(self):
        M = np.diag([1.0, -2.0])
        with pytest.raises(NotPositiveDefiniteError) as exc:
            inv_sqrt_sym(M)
        assert exc.value.eigenvalue == pytest.approx(-2.0)

    def test_singular_matrix_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            inv_sqrt_sym(np.zeros((2, 2)))

    def test_asymmetric_rejected(self):
        M = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            inv_sqrt_sym(M)
