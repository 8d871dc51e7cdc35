"""The full-SVD CCA solve, written out as the tests' reference.

The package whitens by Cholesky factors and keeps only the top k singular
triplets. This module solves the same whitened problem the textbook way:
inverse symmetric square roots of both ridge covariances and a full
np.linalg.svd, so the package's fits and gradients can be checked
against it.
"""

import numpy as np

from venuecca.linalg import NotPositiveDefiniteError, regularized_covariance


def inv_sqrt_sym(M):
    """Inverse symmetric square root of an SPD matrix.

    For M = Q diag(l) Q^T with l > 0 returns R = Q diag(l^-1/2) Q^T, which
    satisfies R M R = I and is itself symmetric.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    scale = max(1.0, float(np.abs(M).max()))
    if float(np.abs(M - M.T).max()) > 1e-10 * scale:
        raise ValueError("matrix is not symmetric")
    evals, evecs = np.linalg.eigh(M)
    smallest = float(evals[0])
    if smallest <= 0.0:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite: smallest eigenvalue {smallest:.6e}",
            eigenvalue=smallest,
        )
    R = (evecs / np.sqrt(evals)) @ evecs.T
    return (R + R.T) / 2.0


def full_svd_cca(Xc, Yc, Cxy, r):
    """Whiten centred views Xc and Yc and take a full SVD of T = A Cxy B.

    A and B are the inverse square roots of the views' ridge covariances
    (ridge r), and Cxy is the cross-covariance to whiten, d_x by d_y.
    Returns (A, B, U, s, Vt) with U diag(s) Vt = T.
    """
    A = inv_sqrt_sym(regularized_covariance(Xc, r))
    B = inv_sqrt_sym(regularized_covariance(Yc, r))
    U, s, Vt = np.linalg.svd(A @ Cxy @ B)
    return A, B, U, s, Vt
