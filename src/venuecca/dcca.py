"""Deep CCA with the category-weighted objective (C-DCCA), trained by
backpropagating the correlation objective through two sub-networks.

The objective for a batch of network outputs Hx, Hy is the sum of the top
k canonical correlations of cca.fit_cca on the batch. Its gradient needs
nothing beyond the fitted directions (Wx, Wy) and correlations rho
(Andrew et al., ICML 2013); the blend enters through cca.blend_partners,
and beta=1 is the classic deep-CCA gradient under either group weighting.

Training alternates: forward both nets on a category-stratified batch,
fit the small CCA in closed form, push the objective's gradient back
through both nets, and let Adam take a step. After the loop a linear head
is fitted on eval-mode outputs of the full training set. The two networks,
run in eval mode, are the model's feature maps: projections go through
cca.cca_transform, net then head, as for every model kind.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .cca import (
    GroupIndex,
    LinearCcaModel,
    MappedCcaModel,
    NoCrossPairsError,
    blend_partners,
    fit_cca,
)
from .neural import AdamState, MlpNetwork, Standardizer, adam_step, mlp_backward, mlp_forward

GAP_TOL = 1e-9


def cca_objective(Hx, Hy, groups=None, beta=1.0, r=1e-4, k=None, group_weighting="size"):
    """Correlation objective and its exact gradients for a batch.

    Parameters
    ----------
    Hx, Hy : (k'_x, n), (k'_y, n) network outputs, columns aligned.
    groups : GroupIndex over the n samples, or None for the plain
        objective.
    beta : same-venue weight of the blended cross-covariance.
    r : ridge on both auto-covariances.
    k : how many leading singular values to sum; defaults to the full
        min(k'_x, k'_y).

    Returns
    -------
    (value, grad_Hx, grad_Hy): value is rho_1 + ... + rho_k of fit_cca on
    the batch. With the fit's first k directions and E = blend_partners,
    grad_Hx = (n/(n-1)) Wx Wy^T E(Hyc) - (1/(n-1)) Wx diag(rho) Wx^T Hxc,
    chained through the centering; grad_Hy mirrors it. Both are exact
    gradients in the raw outputs. When rho_k and rho_{k+1} coincide a
    subgradient is returned with a warning.
    """
    Hx = np.asarray(Hx, dtype=float)
    Hy = np.asarray(Hy, dtype=float)
    if Hx.ndim != 2 or Hy.ndim != 2 or Hx.shape[1] != Hy.shape[1]:
        raise ValueError("Hx and Hy must be 2-d with matching sample counts")
    dx, n = Hx.shape
    dy = Hy.shape[0]
    full = min(dx, dy)
    if k is None:
        k = full
    if not 1 <= k <= full:
        raise ValueError(f"k must lie in 1..{full}, got {k}")
    if n <= max(dx, dy):
        raise ValueError(
            f"need more samples than output dims: n={n}, dims=({dx}, {dy})"
        )
    head = fit_cca(Hx, Hy, min(k + 1, full), r, groups, beta, group_weighting)
    rho = head.rho
    if k < full and rho[k - 1] - rho[k] < GAP_TOL:
        warnings.warn(
            f"singular values {k} and {k + 1} coincide within {GAP_TOL}; "
            "the objective is not differentiable here, returning a subgradient"
        )
    Wx, Wy, rho = head.Wx[:, :k], head.Wy[:, :k], rho[:k]
    Hxc = Hx - head.mean_x[:, None]
    Hyc = Hy - head.mean_y[:, None]
    Ex = blend_partners(Hxc, groups, beta, group_weighting)
    Ey = blend_partners(Hyc, groups, beta, group_weighting)
    gx = (n / (n - 1.0)) * (Wx @ (Wy.T @ Ey)) - (1.0 / (n - 1.0)) * ((Wx * rho) @ (Wx.T @ Hxc))
    gy = (n / (n - 1.0)) * (Wy @ (Wx.T @ Ex)) - (1.0 / (n - 1.0)) * ((Wy * rho) @ (Wy.T @ Hyc))
    # chain through the centering map: right-multiply by I - 11^T/n
    gx -= gx.mean(axis=1, keepdims=True)
    gy -= gy.mean(axis=1, keepdims=True)
    return float(rho.sum()), gx, gy


@dataclass
class DeepCcaModel(MappedCcaModel):
    """Two trained sub-networks plus the linear head fitted after training."""

    net_x: MlpNetwork
    net_y: MlpNetwork
    head: LinearCcaModel
    config: object
    history_objective: np.ndarray
    history_epoch: np.ndarray

    @property
    def feature_maps(self):
        return self.net_x, self.net_y


def stratified_batches(categories, batch_size, rng):
    """Deal samples into ceil(n / batch_size) category-balanced batches.

    Members of each category are shuffled and laid end to end, category
    by category; batch b takes every n_batches-th of them from position
    b. That deals them round-robin, so every batch holds its proportional
    share of each category (within one sample). Batch order and contents are
    deterministic given the rng state.
    """
    categories = np.asarray(categories)
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    n_batches = math.ceil(len(categories) / batch_size)
    _, counts = np.unique(categories, return_counts=True)
    dealt = np.argsort(categories, kind="stable")
    for members in np.split(dealt, np.cumsum(counts)[:-1]):
        rng.shuffle(members)
    return [dealt[b::n_batches] for b in range(n_batches)]


def _batch_objective(Hx, Hy, groups, config):
    """cca_objective on one batch, pairwise when the batch has no cross
    pairs; a ValueError when the outputs, value or gradients are not
    finite or the CCA solve fails on them."""
    try:
        value, gx, gy = cca_objective(
            Hx, Hy, groups, config.beta, config.r, config.k, config.group_weighting
        )
    except NoCrossPairsError:
        warnings.warn(
            "batch holds one sample per category; falling back to the "
            "pairwise covariance for this batch"
        )
        value, gx, gy = cca_objective(Hx, Hy, r=config.r, k=config.k)
    if not (math.isfinite(value) and np.isfinite(gx).all() and np.isfinite(gy).all()):
        raise ValueError("the objective or its gradient is not finite")
    return value, gx, gy


def train_dcca(train, config):
    """Run the alternating training loop and fit the final head.

    train is a PairedDataset; config a neural.TrainConfig. Training stops
    after config.epochs or once the epoch-mean objective improves by less
    than config.tol for config.patience consecutive epochs. Fixed seed
    means bit-identical history. A batch whose CCA solve fails, or
    whose objective or gradient is not finite, raises a ValueError that
    names its epoch and batch; a failing final head fit names the last
    epoch.
    """
    n = train.n
    if n == 0:
        raise ValueError("training set is empty")
    if config.batch_size > n:
        raise ValueError(f"batch_size {config.batch_size} exceeds n={n}")
    smallest = n // math.ceil(n / config.batch_size)  # stratified_batches' smallest batch
    if smallest <= config.k:
        raise ValueError(
            f"a batch of {smallest} samples cannot support k={config.k} "
            "components; increase batch_size or shrink k"
        )
    groups_full = GroupIndex.from_labels(train.categories)
    rng = np.random.default_rng(config.seed)
    std_x = Standardizer.fit(train.X)
    std_y = Standardizer.fit(train.Y)
    sizes_x = (train.X.shape[0], *config.hidden_sizes, config.k)
    sizes_y = (train.Y.shape[0], *config.hidden_sizes, config.k)
    net_x = MlpNetwork.init(sizes_x, std_x, rng, dropout_rate=config.dropout_rate)
    net_y = MlpNetwork.init(sizes_y, std_y, rng, dropout_rate=config.dropout_rate)
    adam_x = AdamState(net_x.parameters())
    adam_y = AdamState(net_y.parameters())
    history, history_epoch = [], []
    prev_mean = None
    stall = 0
    for epoch in range(config.epochs):
        batch_values = []
        for b, idx in enumerate(stratified_batches(train.categories, config.batch_size, rng)):
            seed_x = int(rng.integers(2**63))
            seed_y = int(rng.integers(2**63))
            cache_x = mlp_forward(net_x, train.X[:, idx], mode="train", seed=seed_x)
            cache_y = mlp_forward(net_y, train.Y[:, idx], mode="train", seed=seed_y)
            bgroups = GroupIndex.from_labels(train.categories[idx])
            try:
                value, gx, gy = _batch_objective(cache_x.output, cache_y.output, bgroups, config)
            except ValueError as exc:
                raise ValueError(f"deep training diverged at epoch {epoch}, batch {b}: {exc}") from exc
            # Adam minimizes; the objective is maximized
            grads_x, _ = mlp_backward(net_x, cache_x, -gx)
            grads_y, _ = mlp_backward(net_y, cache_y, -gy)
            adam_step(net_x.parameters(), grads_x, adam_x, config)
            adam_step(net_y.parameters(), grads_y, adam_y, config)
            history.append(value)
            history_epoch.append(epoch)
            batch_values.append(value)
        epoch_mean = float(np.mean(batch_values))
        if prev_mean is not None:
            stall = stall + 1 if epoch_mean - prev_mean < config.tol else 0
            if stall >= config.patience:
                break
        prev_mean = epoch_mean
    Hx, Hy = net_x(train.X), net_y(train.Y)
    try:
        try:
            head = fit_cca(Hx, Hy, config.k, config.r, groups_full, config.beta, config.group_weighting)
        except NoCrossPairsError:
            warnings.warn(
                "training set holds one sample per category; head falls back to "
                "the pairwise covariance"
            )
            head = fit_cca(Hx, Hy, config.k, config.r)
    except ValueError as exc:
        raise ValueError(
            f"deep training diverged: the final head fit after epoch {epoch} failed: {exc}"
        ) from exc
    return DeepCcaModel(
        net_x=net_x,
        net_y=net_y,
        head=head,
        config=config,
        history_objective=np.array(history),
        history_epoch=np.array(history_epoch, dtype=int),
    )

