"""Fit any of the six methods by name: the one place that maps a method to
its solver, builds the category groups of the c-* methods and sets the
beta each method runs at."""

from .cca import GroupIndex, fit_cca
from .dcca import train_dcca
from .kcca import _usable_bandwidth, fit_kcca
from .neural import TrainConfig

METHODS = ("cca", "c-cca", "kcca", "c-kcca", "dcca", "c-dcca")


def resolve_beta(method, beta):
    """The beta method runs at: the c-* methods default to TrainConfig's,
    the plain ones run at 1 and reject any other value."""
    if method.startswith("c-"):
        return TrainConfig.beta if beta is None else float(beta)
    if beta is not None and float(beta) != 1.0:
        raise ValueError(f"beta steers the category-weighted methods; {method} runs at beta=1")
    return 1.0


def check_sigma(method, sigma):
    """Reject a bandwidth the method cannot take: sigma is for kcca and
    c-kcca only, and must be one a Gaussian kernel can use (None: median
    heuristic)."""
    if sigma is None:
        return
    if method not in ("kcca", "c-kcca"):
        raise ValueError(f"sigma applies to kernel methods, not {method}")
    _usable_bandwidth(sigma)


def fit(method, train, config=None, sigma=None):
    """Fit method on a PairedDataset and return the model.

    config is a TrainConfig (None: its defaults at the method's beta);
    every method reads its k, r, beta and group_weighting. sigma is the
    bandwidth of both views for kcca and c-kcca (None: median heuristic).
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; pick from {METHODS}")
    check_sigma(method, sigma)
    if config is None:
        config = TrainConfig(beta=resolve_beta(method, None))
    beta = resolve_beta(method, config.beta)
    if method in ("dcca", "c-dcca"):
        return train_dcca(train, config)
    groups = GroupIndex.from_labels(train.categories) if method.startswith("c-") else None
    common = dict(groups=groups, beta=beta, group_weighting=config.group_weighting)
    if method in ("kcca", "c-kcca"):
        return fit_kcca(train.X, train.Y, config.k, config.r, sigma_x=sigma, sigma_y=sigma, **common)
    return fit_cca(train.X, train.Y, config.k, config.r, **common)
