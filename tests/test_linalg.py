import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from venuecca.linalg import DegenerateBatchError, regularized_covariance, svd_topk


def cov_oracle(Z, r):
    # double loop over the definition, no matrix algebra
    d, n = Z.shape
    C = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            C[i, j] = sum(Z[i, t] * Z[j, t] for t in range(n)) / (n - 1)
    return C + r * np.eye(d)


class TestRegularizedCovariance:
    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(0)
        Z = rng.standard_normal((4, 12))
        Z -= Z.mean(axis=1, keepdims=True)
        npt.assert_allclose(regularized_covariance(Z, 0.01), cov_oracle(Z, 0.01), atol=1e-12)

    def test_zero_data_gives_ridge_identity(self):
        C = regularized_covariance(np.zeros((3, 10)), 1e-4)
        npt.assert_array_equal(C, 1e-4 * np.eye(3))

    def test_symmetric_and_eigenvalues_at_least_r(self):
        rng = np.random.default_rng(1)
        Z = rng.standard_normal((6, 20))
        C = regularized_covariance(Z, 0.5)
        npt.assert_array_equal(C, C.T)
        assert np.linalg.eigvalsh(C)[0] >= 0.5 - 1e-12

    def test_too_few_samples(self):
        with pytest.raises(DegenerateBatchError):
            regularized_covariance(np.ones((3, 1)), 0.0)

    def test_negative_ridge_rejected(self):
        with pytest.raises(ValueError):
            regularized_covariance(np.ones((2, 5)), -1e-3)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_property_psd_and_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        Z = rng.standard_normal((3, 8))
        C = regularized_covariance(Z, 1e-6)
        npt.assert_array_equal(C, C.T)
        assert np.linalg.eigvalsh(C)[0] >= -1e-12


SHAPES_AND_K = [
    pytest.param(shape, k, id=f"{shape[0]}x{shape[1]}-k{k}")
    for shape in ((7, 4), (4, 7), (6, 6))
    for k in range(1, min(shape) + 1)
]


class TestSvdTopk:
    @pytest.mark.parametrize("shape,k", SHAPES_AND_K)
    def test_every_shape_and_k_against_full_svd(self, shape, k):
        M = np.random.default_rng(sum(shape)).standard_normal(shape)
        Uf, sf, Vtf = np.linalg.svd(M)
        U, s, V = svd_topk(M, k)
        assert U.shape == (shape[0], k) and V.shape == (shape[1], k)
        npt.assert_allclose(s, sf[:k], rtol=0, atol=1e-12)
        npt.assert_allclose(U.T @ U, np.eye(k), rtol=0, atol=1e-12)
        npt.assert_allclose(V.T @ V, np.eye(k), rtol=0, atol=1e-12)
        assert np.all(np.diff(s) <= 0)
        err = np.linalg.norm(M - U @ np.diag(s) @ V.T)
        err_oracle = np.linalg.norm(M - Uf[:, :k] @ np.diag(sf[:k]) @ Vtf[:k])
        npt.assert_allclose(err, err_oracle, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(5, 4), (4, 5)])
    def test_zero_matrix_completes_orthonormally(self, shape):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            U, s, V = svd_topk(np.zeros(shape), 3)
        npt.assert_array_equal(s, np.zeros(3))
        npt.assert_allclose(U.T @ U, np.eye(3), rtol=0, atol=1e-12)
        npt.assert_allclose(V.T @ V, np.eye(3), rtol=0, atol=1e-12)

    def test_rank_one_matrix(self):
        rng = np.random.default_rng(7)
        u, v = rng.standard_normal(6), rng.standard_normal(5)
        M = np.outer(u, v)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            U, s, V = svd_topk(M, 3)
        # the null directions' values are zero up to rounding, as in the full SVD
        assert s[0] == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v), rel=1e-12)
        assert np.all(s[1:] <= 1e-12 * s[0])
        npt.assert_allclose(U.T @ U, np.eye(3), rtol=0, atol=1e-12)
        npt.assert_allclose(V.T @ V, np.eye(3), rtol=0, atol=1e-12)
        npt.assert_allclose(U[:, :1] * s[0] @ V[:, :1].T, M, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_is_named(self, bad):
        M = np.eye(4)
        M[2, 1] = bad
        with pytest.raises(ValueError, match="M holds NaN or inf values"):
            svd_topk(M, 2)

    def test_reconstruction_matches_full_svd_oracle(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((6, 4))
        Uf, sf, Vtf = np.linalg.svd(M)
        for k in (1, 2, 4):
            U, s, V = svd_topk(M, k)
            npt.assert_allclose(s, sf[:k], atol=1e-12)
            # best rank-k approximation error equals the oracle's
            err = np.linalg.norm(M - U @ np.diag(s) @ V.T)
            err_oracle = np.linalg.norm(M - Uf[:, :k] @ np.diag(sf[:k]) @ Vtf[:k])
            npt.assert_allclose(err, err_oracle, atol=1e-12)

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(4)
        M = rng.standard_normal((5, 5))
        U, s, V = svd_topk(M, 3)
        npt.assert_allclose(U.T @ U, np.eye(3), atol=1e-12)
        npt.assert_allclose(V.T @ V, np.eye(3), atol=1e-12)
        assert np.all(np.diff(s) <= 1e-12)

    def test_sign_convention(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((7, 3))
        U, s, V = svd_topk(M, 3)
        for j in range(3):
            assert U[np.argmax(np.abs(U[:, j])), j] >= 0

    def test_sign_convention_pins_output(self):
        # negating the data flips vectors; the convention restores one output
        rng = np.random.default_rng(6)
        M = rng.standard_normal((4, 4))
        U1, s1, V1 = svd_topk(M, 2)
        U2, s2, V2 = svd_topk(-M, 2)
        npt.assert_allclose(s1, s2, atol=1e-12)
        npt.assert_allclose(np.abs(U1), np.abs(U2), atol=1e-12)

    def test_k_out_of_range(self):
        M = np.eye(3)
        with pytest.raises(ValueError):
            svd_topk(M, 0)
        with pytest.raises(ValueError):
            svd_topk(M, 4)
