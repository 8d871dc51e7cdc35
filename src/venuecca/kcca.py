"""Kernel CCA in dual form, with the same category-weighted blend as cca.

The trick: after double-centering the Gram matrices, the n columns of the
centered kernel are an n-dimensional feature representation of the n
samples, and running the linear solver on those columns is exactly dual
KCCA. The ridge r then lands on K^2 (through the representation's
covariance), which is the stabilized variant that keeps the whitening
well-posed: fit_cca whitens by the Cholesky factor of K^2 / (n - 1) + r I,
which centering leaves singular at r = 0. So a kernel model is one
KernelMap per view (a new point's centered kernel column against the
retained training set) in front of the linear head, and projects through
cca.cca_transform like every model.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .cca import LinearCcaModel, MappedCcaModel, fit_cca
from .linalg import NotPositiveDefiniteError


def gaussian_kernel(A, B, sigma):
    """Gram matrix K[i, j] = exp(-||a_i - b_j||^2 / (2 sigma^2)).

    A and B hold column vectors, shapes (d, n) and (d, m); result is (n, m).
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    sq = cdist(A.T, B.T, "sqeuclidean")
    return np.exp(-sq / (2.0 * sigma * sigma))


def linear_kernel(A, B):
    return np.asarray(A, dtype=float).T @ np.asarray(B, dtype=float)


def median_heuristic_bandwidth(X):
    """Median pairwise distance between columns of X, a classic sigma.

    Raises if fewer than two samples or all points coincide.
    """
    X = np.asarray(X, dtype=float)
    if X.shape[1] < 2:
        raise ValueError("need at least 2 samples for the median heuristic")
    med = float(np.median(pdist(X.T)))
    if med <= 0.0:
        raise ValueError("all points coincide; bandwidth cannot be inferred")
    return med


def _center_columns(K_cols, mu, grand):
    # One formula for train and test alike: center each kernel column
    # against the training distribution.
    return K_cols - K_cols.mean(axis=0, keepdims=True) - mu[:, None] + grand


def _gram(model_kernel, A, B, sigma):
    if model_kernel == "gaussian":
        return gaussian_kernel(A, B, sigma)
    if model_kernel == "linear":
        return linear_kernel(A, B)
    raise ValueError(f"unknown kernel {model_kernel!r}")


@dataclass
class KernelMap:
    """One view's feature map: centered kernel columns against ``train``."""

    train: np.ndarray
    kernel: str
    sigma: float
    mu: np.ndarray
    grand: float

    @classmethod
    def fit(cls, X, kernel, sigma):
        """The map fitted on X, and the centered Gram of X under it."""
        K = _gram(kernel, X, X, sigma)
        fmap = cls(X.copy(), kernel, sigma, K.mean(axis=1), float(K.mean()))
        return fmap, _center_columns(K, fmap.mu, fmap.grand)

    @property
    def input_dim(self):
        return self.train.shape[0]

    def __call__(self, Z):
        K = _gram(self.kernel, self.train, Z, self.sigma)
        return _center_columns(K, self.mu, self.grand)


@dataclass
class KernelCcaModel(MappedCcaModel):
    """Dual-space model: a KernelMap per view plus the linear head."""

    map_x: KernelMap
    map_y: KernelMap
    head: LinearCcaModel

    @property
    def feature_maps(self):
        return self.map_x, self.map_y

    @property
    def sigma_x(self):
        return self.map_x.sigma

    @property
    def sigma_y(self):
        return self.map_y.sigma


def fit_kcca(
    X,
    Y,
    k,
    r,
    sigma_x=None,
    sigma_y=None,
    groups=None,
    beta=1.0,
    kernel="gaussian",
    group_weighting="size",
):
    """Fit (category-weighted) kernel CCA.

    sigma defaults to the median heuristic per side. r > 0 is effectively
    required: the centered Gram matrix is rank-deficient (centering kills
    one direction), so the unregularized dual problem is singular.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape[1] != Y.shape[1]:
        raise ValueError("X and Y must pair the same samples")
    if kernel == "gaussian":
        sigma_x = float(sigma_x) if sigma_x is not None else median_heuristic_bandwidth(X)
        sigma_y = float(sigma_y) if sigma_y is not None else median_heuristic_bandwidth(Y)
    else:
        sigma_x = sigma_y = 0.0
    map_x, Rx = KernelMap.fit(X, kernel, sigma_x)
    map_y, Ry = KernelMap.fit(Y, kernel, sigma_y)
    try:
        head = fit_cca(Rx, Ry, k, r, groups=groups, beta=beta, group_weighting=group_weighting)
    except NotPositiveDefiniteError as e:
        raise NotPositiveDefiniteError(
            f"dual kernel system is ill-conditioned ({e}); "
            "increase r or widen sigma",
            eigenvalue=e.eigenvalue,
        ) from e
    return KernelCcaModel(map_x=map_x, map_y=map_y, head=head)
