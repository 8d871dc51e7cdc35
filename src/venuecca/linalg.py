"""Dense matrix primitives shared by every solver in the package.

All feature batches follow the columns-as-samples convention: n vectors in
R^d are stored as a (d, n) array. Everything here is plain float64 numpy.
"""

import numpy as np


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
    # Exact symmetry, so eigh downstream sees what the contract promises.
    C = (C + C.T) / (2.0 * (n - 1))
    C[np.diag_indices(d)] += r
    return C


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


def svd_topk(M, k):
    """Leading k singular triplets of M with a fixed sign convention.

    Returns (U, s, V) where U is (d1, k), s is the k largest singular
    values in descending order, and V is (d2, k), so M ~= U diag(s) V^T is
    the best rank-k approximation. Signs are pinned by forcing the
    largest-magnitude entry of each left singular vector to be
    non-negative (the paired right vector flips with it), which makes the
    output deterministic across runs.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {M.shape}")
    if not 1 <= k <= min(M.shape):
        raise ValueError(f"k must be in 1..{min(M.shape)}, got {k}")
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    U = U[:, :k].copy()
    V = Vt[:k].T.copy()
    s = s[:k].copy()
    flip = U[np.argmax(np.abs(U), axis=0), np.arange(k)] < 0
    U[:, flip] *= -1.0
    V[:, flip] *= -1.0
    return U, s, V
