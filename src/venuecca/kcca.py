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

A view whose training columns repeat (a venue has one text, repeated
once per photo) is fitted on its u distinct columns, and the fit is the
same. Let P be the n x u matrix that assigns each training column to its
distinct column, with counts c. Columns that are equal have equal kernel
rows, so every centered kernel column lies in range(P), and
Q = P diag(c)^-1/2 has orthonormal columns. Covariances, the blend and
the ridge r I all restrict to range(Q), so the head fitted on the u
features Q^T R = sqrt(c) R[first] has the same correlations, and its W
and mean lifted back through Q are the n-row ones the full fit gives.
The Gram is taken on the distinct columns and gathered, which is
bit-equal because cdist computes each entry on its own, and the median
heuristic weighs each distinct pair by c_i c_j. Model files keep all n
training columns and the n x k head.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .cca import LinearCcaModel, MappedCcaModel, fit_cca
from .linalg import NotPositiveDefiniteError, pin_signs


def _usable_bandwidth(sigma):
    """sigma as a float, if a Gaussian kernel can use it: 2 sigma^2 and its
    inverse must be positive finite numbers. At inf every kernel value is
    1, at 0 the diagonal is 0/0, and a subnormal 2 sigma^2 has no finite
    inverse."""
    sigma = float(sigma)
    if not (sigma > 0.0 and np.finfo(float).tiny <= 2.0 * sigma * sigma < np.inf):
        raise ValueError(f"sigma must be > 0 with 2 sigma^2 and its inverse finite, got {sigma!r}")
    return sigma


def gaussian_kernel(A, B, sigma):
    """Gram matrix K[i, j] = exp(-||a_i - b_j||^2 / (2 sigma^2)).

    A and B hold column vectors, shapes (d, n) and (d, m); result is (n, m).
    """
    sigma = _usable_bandwidth(sigma)
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    sq = cdist(A.T, B.T, "sqeuclidean")
    # for a small sigma the exponent may overflow to -inf, whose exp is
    # the 0 it stands for
    with np.errstate(over="ignore"):
        return np.exp(-sq / (2.0 * sigma * sigma))


def _distinct_columns(Z):
    """Z's distinct columns in order of first occurrence: their indices
    ``first`` into Z, the ``owner`` among them of each column of Z, and
    how many columns each stands for (``counts``)."""
    _, first, owner, counts = np.unique(
        Z, axis=1, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return first[order], rank[owner.reshape(-1)], counts[order]


def median_heuristic_bandwidth(X):
    """Median pairwise distance between columns of X, a classic sigma.

    pdist runs on X's distinct columns only: the median is taken over
    each distinct distance repeated c_i c_j times, plus the sum
    c (c - 1) / 2 pairs of equal columns at distance 0, which is the
    multiset of all pairs. Raises if there are fewer than two samples,
    or if so many pairs coincide that the median is 0.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[1]
    if n < 2:
        raise ValueError("need at least 2 samples for the median heuristic")
    if not np.isfinite(X).all():
        raise ValueError("X holds NaN or inf values")
    first, _, counts = _distinct_columns(X)
    pairs = n * (n - 1) // 2
    zeros = int(np.sum(counts * (counts - 1) // 2))
    # c_i c_j for the distinct pairs in pdist's order (0, 1), (0, 2), ..., (1, 2), ...
    weights = np.concatenate([c * counts[i + 1:] for i, c in enumerate(counts)])
    med = float(np.median(np.repeat(np.r_[0.0, pdist(X[:, first].T)], np.r_[zeros, weights])))
    if not med > 0.0:
        raise ValueError(
            f"the median pairwise distance is 0: {zeros} of {pairs} sample pairs coincide "
            f"({len(counts)} distinct columns among {n}); pass an explicit sigma"
        )
    return med


def _center_columns(K_cols, mu, grand):
    # One formula for train and test alike: center each kernel column
    # against the training distribution.
    return K_cols - K_cols.mean(axis=0, keepdims=True) - mu[:, None] + grand


@dataclass
class KernelMap:
    """One view's feature map: centered Gaussian kernel columns against ``train``."""

    train: np.ndarray
    sigma: float
    mu: np.ndarray
    grand: float

    @classmethod
    def fit(cls, X, sigma):
        """The map fitted on X, and the centered Gram of X under it."""
        X = np.asarray(X, dtype=float)
        return _fit_map(X, sigma, *_distinct_columns(X)[:2])

    @property
    def input_dim(self):
        return self.train.shape[0]

    def __call__(self, Z):
        K = gaussian_kernel(self.train, Z, self.sigma)
        return _center_columns(K, self.mu, self.grand)


def _fit_map(X, sigma, first, owner):
    """KernelMap.fit given X's distinct columns: the Gram is taken on them
    and gathered."""
    if first.size == X.shape[1]:
        K = gaussian_kernel(X, X, sigma)
    else:
        U = X[:, first]
        # take keeps C order, so the means below sum as on the full Gram
        K = gaussian_kernel(U, U, sigma).take(owner, axis=0).take(owner, axis=1)
    fmap = KernelMap(X.copy(), sigma, K.mean(axis=1), float(K.mean()))
    return fmap, _center_columns(K, fmap.mu, fmap.grand)


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


def _fit_view(Z, sigma, k):
    """One view's KernelMap, the features its head is fitted on, and the
    (owner, counts) that lift the head back to n rows, or None.

    The features are the distinct rows of the centered Gram, each scaled
    by the square root of its count, unless no column repeats or there
    are no more distinct columns than components: fit_cca needs k of
    them, and the centered rows span one fewer, so the k-th direction is
    arbitrary there and the n rows keep it as it was.
    """
    first, owner, counts = _distinct_columns(Z)
    if sigma is None:
        sigma = median_heuristic_bandwidth(Z)
    fmap, R = _fit_map(Z, sigma, first, owner)
    if first.size == Z.shape[1] or first.size <= k:
        return fmap, R, None
    return fmap, R[first] * np.sqrt(counts)[:, None], (owner, counts)


def _lift(mean, W, owner, counts):
    """A head's mean and W on the distinct rows, as the n-row ones."""
    scale = np.sqrt(counts)[owner]
    return mean[owner] / scale, W[owner] / scale[:, None]


def fit_kcca(
    X,
    Y,
    k,
    r,
    sigma_x=None,
    sigma_y=None,
    groups=None,
    beta=1.0,
    group_weighting="size",
):
    """Fit (category-weighted) kernel CCA with a Gaussian kernel per view.

    sigma defaults to the median heuristic per side. r > 0 is effectively
    required: the centered Gram matrix is rank-deficient (centering kills
    one direction), so the unregularized dual problem is singular. A view
    with repeated training columns is fitted on its distinct ones (see
    the module docstring); the model is the n-column one either way.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape[1] != Y.shape[1]:
        raise ValueError("X and Y must pair the same samples")
    for view, Z in (("X", X), ("Y", Y)):
        if not np.isfinite(Z).all():
            raise ValueError(f"{view} holds NaN or inf values")
    sigma_x, sigma_y = (None if s is None else _usable_bandwidth(s) for s in (sigma_x, sigma_y))
    (map_x, Fx, lift_x), (map_y, Fy, lift_y) = (
        _fit_view(Z, sigma, k) for Z, sigma in ((X, sigma_x), (Y, sigma_y))
    )
    try:
        head = fit_cca(Fx, Fy, k, r, groups=groups, beta=beta, group_weighting=group_weighting)
    except NotPositiveDefiniteError as e:
        raise NotPositiveDefiniteError(
            f"dual kernel system is ill-conditioned ({e}); "
            "increase r or widen sigma",
            eigenvalue=e.eigenvalue,
        ) from e
    if lift_y is not None:
        head.mean_y, head.Wy = _lift(head.mean_y, head.Wy, *lift_y)
    if lift_x is not None:
        head.mean_x, head.Wx = _lift(head.mean_x, head.Wx, *lift_x)
        # the full fit pins each sign on the largest entry of the n-row Wx
        pin_signs(head.Wx, head.Wy)
    return KernelCcaModel(map_x=map_x, map_y=map_y, head=head)
