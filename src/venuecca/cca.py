"""Linear canonical correlation analysis and its category-weighted variant.

The solver maximizes corr(w_x^T x, w_y^T y) over projection pairs, solved
in closed form by whitening the cross-covariance and taking its leading
singular triplets. The category-weighted variant replaces the plain
cross-covariance with a blend of two group-structured estimates:

    C1(g) = mean over same-venue pairs (x_i, y_i), i in group g
    C2(g) = mean over ordered cross-venue pairs (x_i, y_j), i != j in g
    C(beta) = beta * sum_g w_g C1(g) + (1 - beta) * sum_g w'_g C2(g)

so beta=1 recovers the plain estimate and smaller beta pulls the solution
toward directions where different venues of one category agree. With no
groups, or at beta=1, the blend is the plain (1/n) phi_x phi_y^T under
both group weightings, so a category-weighted run at beta=1 is the plain
run. blend_partners is the one implementation of the blend.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import NotPositiveDefiniteError, inv_sqrt_sym, regularized_covariance, svd_topk


class NoCrossPairsError(ValueError):
    """Every group is a singleton, so the cross-venue estimate is empty."""


class GroupIndex:
    """Maps category ids to sample indices; together they partition 0..n-1."""

    def __init__(self, groups, n_samples):
        self.n_samples = int(n_samples)
        self.groups = {}
        seen = np.zeros(self.n_samples, dtype=bool)
        for key in sorted(groups):
            idx = np.asarray(groups[key], dtype=int)
            if idx.size == 0:
                raise ValueError(f"group {key!r} is declared but empty")
            if idx.min() < 0 or idx.max() >= self.n_samples:
                raise ValueError(f"group {key!r} holds out-of-range indices")
            if seen[idx].any():
                raise ValueError("groups overlap: some sample appears twice")
            seen[idx] = True
            self.groups[key] = np.sort(idx)
        if not seen.all():
            raise ValueError("groups do not cover every sample")

    @classmethod
    def from_labels(cls, labels):
        labels = np.asarray(labels)
        groups = {
            int(c): np.flatnonzero(labels == c) for c in np.unique(labels)
        }
        return cls(groups, len(labels))

    def __len__(self):
        return len(self.groups)

    def items(self):
        return self.groups.items()

    def sizes(self):
        return {key: len(idx) for key, idx in self.groups.items()}

    def label_array(self):
        out = np.empty(self.n_samples, dtype=int)
        for key, idx in self.groups.items():
            out[idx] = key
        return out


def blend_partners(phi, groups, beta, group_weighting="size"):
    """Partner matrix E(phi) of the blended cross-covariance.

    C(beta) = phi_x E(phi_y)^T = E(phi_x) phi_y^T for batches whose columns
    are the samples of ``groups``. Column i of E(phi) is
    beta a_i phi_i + (1 - beta) b_i (s_g(i) - phi_i), with s_g the sum of
    the columns in group g; a and b are constant within a group, which
    makes the two forms equal. Size weighting makes every same-venue pair
    weigh 1/n and every ordered cross pair 1/N2; equal weighting gives each
    group the same total mass. Singleton groups get b_i = 0 and the cross
    mass renormalizes over the rest. With no groups or at beta=1 E(phi) is
    phi / n under both weightings.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    if group_weighting not in ("size", "equal"):
        raise ValueError(f"unknown group_weighting {group_weighting!r}")
    if groups is None or beta == 1.0:
        return phi / phi.shape[1]
    n = groups.n_samples
    sizes = groups.sizes()
    n_cross = sum(sz >= 2 for sz in sizes.values())
    if not n_cross:
        raise NoCrossPairsError(
            "every group is a singleton: no cross-venue pairs exist for beta < 1"
        )
    n2_total = sum(sz * (sz - 1) for sz in sizes.values())
    a = np.zeros(n)
    b = np.zeros(n)
    S = np.empty_like(phi)
    for g, idx in groups.items():
        sz = sizes[g]
        S[:, idx] = phi[:, idx].sum(axis=1, keepdims=True)
        if group_weighting == "size":
            a[idx] = 1.0 / n
            if sz >= 2:
                b[idx] = 1.0 / n2_total
        else:
            a[idx] = 1.0 / (len(sizes) * sz)
            if sz >= 2:
                b[idx] = 1.0 / (n_cross * sz * (sz - 1))
    return beta * (phi * a) + (1.0 - beta) * ((S - phi) * b)


def combined_cross_covariance(phi_x, phi_y, groups, beta, group_weighting="size"):
    """Category-weighted cross-covariance of two centered batches.

    Uses expectation scaling, which is what the blend's mean-over-pairs
    definition produces: (1/n) phi_x phi_y^T with no groups or at beta=1;
    at beta=0 only cross-venue pairs inside each group contribute.
    """
    phi_x = np.asarray(phi_x, dtype=float)
    phi_y = np.asarray(phi_y, dtype=float)
    n = phi_x.shape[1]
    if phi_y.shape[1] != n or (groups is not None and groups.n_samples != n):
        raise ValueError("phi_x, phi_y and groups disagree on sample count")
    return phi_x @ blend_partners(phi_y, groups, beta, group_weighting).T


@dataclass
class LinearCcaModel:
    """Fitted projection pair. Wx, Wy are (d, k); rho the k correlations."""

    mean_x: np.ndarray
    mean_y: np.ndarray
    Wx: np.ndarray
    Wy: np.ndarray
    rho: np.ndarray
    r: float
    beta: float = 1.0

    @property
    def k(self):
        return self.Wx.shape[1]

    # retrieval talks to every model kind through .project
    def project(self, Z, side):
        return cca_transform(self, Z, side)


class MappedCcaModel:
    """A feature map per view (``feature_maps``) in front of a linear ``head``."""

    @property
    def rho(self):
        return self.head.rho

    @property
    def k(self):
        return self.head.k

    def project(self, Z, side):
        return cca_transform(self.head, Z, side, self.feature_maps)


def fit_cca(X, Y, k, r=0.0, groups=None, beta=1.0, group_weighting="size"):
    """Fit (category-weighted) linear CCA on paired columns.

    Parameters
    ----------
    X, Y : (d_x, n) and (d_y, n) arrays, columns aligned.
    k : number of canonical components, 1 <= k <= min(d_x, d_y), n > k.
    r : ridge added to both auto-covariances. r=0 is exact CCA and
        requires both covariances to be positive definite.
    groups : GroupIndex or None. With groups and beta < 1 the
        cross-covariance blends in cross-venue pairs per category.
    beta : weight of the same-venue term, in [0, 1]. beta=1 with groups
        equals no groups at all.

    Notes
    -----
    All covariances use the unbiased 1/(n-1) divisor, so the blended
    cross-covariance (defined with expectation scaling) is rescaled by
    n/(n-1) to sit on the same footing.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[1] != Y.shape[1]:
        raise ValueError("X and Y must be 2-d with matching sample counts")
    d_x, n = X.shape
    d_y = Y.shape[0]
    if not 1 <= k <= min(d_x, d_y):
        raise ValueError(f"k must lie in 1..{min(d_x, d_y)}, got {k}")
    if n <= k:
        raise ValueError(f"need more samples than components: n={n}, k={k}")
    for view, Z in (("X", X), ("Y", Y)):
        if not np.isfinite(Z).all():
            raise ValueError(f"{view} holds NaN or inf values")
    mean_x = X.mean(axis=1)
    mean_y = Y.mean(axis=1)
    Xc = X - mean_x[:, None]
    Yc = Y - mean_y[:, None]
    Cxx = regularized_covariance(Xc, r)
    Cyy = regularized_covariance(Yc, r)
    Cxy = combined_cross_covariance(Xc, Yc, groups, beta, group_weighting) * (n / (n - 1))
    try:
        A = inv_sqrt_sym(Cxx)
        B = inv_sqrt_sym(Cyy)
    except NotPositiveDefiniteError as e:
        raise NotPositiveDefiniteError(
            f"auto-covariance is singular ({e}); pass r > 0 to regularize",
            eigenvalue=e.eigenvalue,
        ) from e
    U, s, V = svd_topk(A @ Cxy @ B, k)
    return LinearCcaModel(
        mean_x=mean_x,
        mean_y=mean_y,
        Wx=A @ U,
        Wy=B @ V,
        rho=s,
        r=float(r),
        beta=float(beta if groups is not None else 1.0),
    )


def cca_transform(head, Z, side, feature_maps=None):
    """Project raw vectors into the canonical space.

    side selects the view: "image" uses (mean_x, Wx) and the first
    feature map, "text" uses (mean_y, Wy) and the second. feature_maps is
    None for linear CCA (the identity) or a pair of callables with an
    input_dim, applied before the head. Z is (d, m) with columns as
    samples, or one d-vector; returns (k, m).
    """
    if side not in ("image", "text"):
        raise ValueError(f"side must be 'image' or 'text', got {side!r}")
    Z = np.asarray(Z, dtype=float)
    if Z.ndim == 1:
        Z = Z[:, None]
    text = side == "text"
    mean, W = (head.mean_y, head.Wy) if text else (head.mean_x, head.Wx)
    fmap = None if feature_maps is None else feature_maps[text]
    dim = mean.shape[0] if fmap is None else fmap.input_dim
    if Z.shape[0] != dim:
        raise ValueError(f"{side} side expects {dim}-dim vectors, got {Z.shape[0]}")
    if fmap is not None:
        Z = fmap(Z)
    return W.T @ (Z - mean[:, None])
