"""Dense matrix primitives shared by every solver in the package.

All feature batches follow the columns-as-samples convention: n vectors in
R^d are stored as a (d, n) array. Everything here is float64 numpy/LAPACK.
"""

import numpy as np
from scipy.linalg.lapack import dgeqrf, dorgqr, dsyevr


class DegenerateBatchError(ValueError):
    """A batch is too small to estimate a covariance from."""


class NotPositiveDefiniteError(ValueError):
    """A matrix that must be symmetric positive definite is not.

    Carries the offending eigenvalue in ``eigenvalue``.
    """

    def __init__(self, message, eigenvalue=None):
        super().__init__(message)
        self.eigenvalue = eigenvalue


def regularized_covariance(Z, r):
    """Unbiased covariance of a centered batch plus a ridge term.

    Parameters
    ----------
    Z : (d, n) array
        Centered samples as columns.
    r : float
        Ridge added to the diagonal, >= 0.

    Returns
    -------
    (d, d) array equal to (1 / (n - 1)) Z Z^T + r I. Symmetric by
    construction, and every eigenvalue is >= r because Z Z^T is PSD.
    """
    Z = np.asarray(Z, dtype=float)
    if not (Z.flags.c_contiguous or Z.flags.f_contiguous):
        Z = np.ascontiguousarray(Z)  # Z Z^T of a strided batch need not be exactly symmetric
    if Z.ndim != 2:
        raise ValueError(f"expected a (d, n) batch, got shape {Z.shape}")
    d, n = Z.shape
    if n < 2:
        raise DegenerateBatchError(
            f"need at least 2 samples to estimate a covariance, got {n}"
        )
    if not np.isfinite(r) or r < 0:
        raise ValueError(f"ridge must be a finite value >= 0, got {r}")
    C = Z @ Z.T
    C /= n - 1
    C[np.diag_indices(d)] += r
    return C


def svd_topk(M, k):
    """Leading k singular triplets of M with a fixed sign convention.

    Returns (U, s, V) where U is (d1, k), s is the k largest singular
    values, descending up to rounding, and V is (d2, k), so U diag(s) V^T
    is the best rank-k approximation of M. With P the wider of M and M^T,
    the cost is one Gram product P P^T, one eigensolve for its top k
    eigenvectors U only, and one thin QR P^T U = V R of a (max(d1, d2), k)
    matrix with s = |diag R|. Nothing divides by s, so a zero singular
    value gets an orthonormal completion as its vector. Signs are pinned:
    the largest-magnitude entry of each left vector is made non-negative,
    and its right vector flips with it, so the output is deterministic.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {M.shape}")
    if not 1 <= k <= min(M.shape):
        raise ValueError(f"k must be in 1..{min(M.shape)}, got {k}")
    if not np.isfinite(M).all():
        raise ValueError("M holds NaN or inf values")
    tall = M.shape[0] > M.shape[1]
    P = M.T if tall else M
    # LAPACK's subset driver forms only the top k eigenvectors, in ascending order
    _, U, _, _, info = dsyevr(P @ P.T, range="I", il=len(P) - k + 1, iu=len(P), overwrite_a=1)
    if info:
        raise np.linalg.LinAlgError(f"eigensolver failed with info {info}")
    U = U[:, ::-1]
    QR, tau, _, _ = dgeqrf(P.T @ U)
    V, _, _ = dorgqr(QR, tau)
    s = np.abs(QR.diagonal())
    V[:, QR.diagonal() < 0] *= -1.0
    if tall:
        U, V = V, U
    pin_signs(U, V)
    return U, s, V


def pin_signs(P, Q):
    """Flip column pairs in place so that the largest-magnitude entry of each
    column of P is non-negative; column j of Q flips with column j of P."""
    flip = P[np.argmax(np.abs(P), axis=0), np.arange(P.shape[1])] < 0
    P[:, flip] *= -1.0
    Q[:, flip] *= -1.0
