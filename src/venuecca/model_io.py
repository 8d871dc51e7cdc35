"""Model and index files: one container, a JSON header, binary blocks.

Serialization is byte-deterministic: headers are JSON with sorted keys,
blocks are raw little-endian float64 matrices in a fixed order. Saving
the same model twice yields identical bytes, which the pipeline's
reproducibility guarantee leans on.
"""

from dataclasses import asdict, fields

import numpy as np

from . import dataio
from .cca import LinearCcaModel
from .dcca import DeepCcaModel
from .kcca import KernelCcaModel, KernelMap
from .neural import Layer, MlpNetwork, Standardizer, TrainConfig
from .retrieval import VenueIndex

KIND_LINEAR = "linear-cca"
KIND_KERNEL = "kernel-cca"
KIND_DEEP = "deep-cca"
KIND_INDEX = "venue-index"


def _head_blocks(head, prefix=""):
    return {
        f"{prefix}mean_x": head.mean_x[None, :],
        f"{prefix}mean_y": head.mean_y[None, :],
        f"{prefix}Wx": head.Wx,
        f"{prefix}Wy": head.Wy,
        f"{prefix}rho": head.rho[None, :],
    }


def _head_meta(head, prefix=""):
    return {
        f"{prefix}r": head.r,
        f"{prefix}beta": head.beta,
        f"{prefix}k": int(head.k),
        f"{prefix}dims": [int(head.mean_x.shape[0]), int(head.mean_y.shape[0])],
    }


def _row(blocks, name):
    """The one row of a (1, n) block."""
    if blocks[name].shape[0] != 1:
        raise ValueError(f"block {name!r} must have one row, got {blocks[name].shape[0]}")
    return blocks[name][0]


def _head_from(meta, blocks, prefix=""):
    return LinearCcaModel(
        mean_x=_row(blocks, f"{prefix}mean_x"),
        mean_y=_row(blocks, f"{prefix}mean_y"),
        Wx=blocks[f"{prefix}Wx"],
        Wy=blocks[f"{prefix}Wy"],
        rho=_row(blocks, f"{prefix}rho"),
        r=float(meta[f"{prefix}r"]),
        beta=float(meta[f"{prefix}beta"]),
    )


def _net_blocks(net, prefix):
    blocks = {
        f"{prefix}std_mean": net.standardizer.mean[None, :],
        f"{prefix}std_std": net.standardizer.std[None, :],
    }
    for i, layer in enumerate(net.layers):
        blocks[f"{prefix}W{i}"] = layer.W
        blocks[f"{prefix}b{i}"] = layer.b[None, :]
    return blocks


def _net_meta(net):
    return [
        {"activation": l.activation, "dropout_rate": l.dropout_rate}
        for l in net.layers
    ]


def _net_from(layer_meta, blocks, prefix):
    std = Standardizer(
        mean=_row(blocks, f"{prefix}std_mean"), std=_row(blocks, f"{prefix}std_std")
    )
    layers = [
        Layer(
            W=blocks[f"{prefix}W{i}"],
            b=_row(blocks, f"{prefix}b{i}"),
            activation=m["activation"],
            dropout_rate=m["dropout_rate"],
        )
        for i, m in enumerate(layer_meta)
    ]
    return MlpNetwork(std, layers)


def _kernel_parts(model):
    map_x, map_y, head = model.map_x, model.map_y, model.head
    meta = {
        "kernel": "gaussian",
        "sigma_x": map_x.sigma,
        "sigma_y": map_y.sigma,
        "grand_x": map_x.grand,
        "grand_y": map_y.grand,
        # the file format keeps copies of the head's r and beta
        "r": head.r,
        "beta": head.beta,
        **_head_meta(head, "head_"),
    }
    blocks = {
        "Xtrain": map_x.train,
        "Ytrain": map_y.train,
        "mu_x": map_x.mu[None, :],
        "mu_y": map_y.mu[None, :],
        **_head_blocks(head, "head_"),
    }
    return meta, blocks


def _kernel_map_from(meta, blocks, side):
    return KernelMap(
        train=blocks[f"{side.upper()}train"],
        sigma=float(meta[f"sigma_{side}"]),
        mu=_row(blocks, f"mu_{side}"),
        grand=float(meta[f"grand_{side}"]),
    )


def _deep_parts(model):
    meta = {
        "config": asdict(model.config),
        "net_x_layers": _net_meta(model.net_x),
        "net_y_layers": _net_meta(model.net_y),
        **_head_meta(model.head, "head_"),
    }
    blocks = {
        **_net_blocks(model.net_x, "net_x_"),
        **_net_blocks(model.net_y, "net_y_"),
        **_head_blocks(model.head, "head_"),
        "history_objective": model.history_objective[None, :],
        "history_epoch": model.history_epoch[None, :].astype(float),
    }
    return meta, blocks


def save_model(model, path):
    if isinstance(model, LinearCcaModel):
        kind, meta, blocks = KIND_LINEAR, _head_meta(model), _head_blocks(model)
    elif isinstance(model, KernelCcaModel):
        kind, (meta, blocks) = KIND_KERNEL, _kernel_parts(model)
    elif isinstance(model, DeepCcaModel):
        kind, (meta, blocks) = KIND_DEEP, _deep_parts(model)
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    dataio.write_container(path, kind, meta, blocks)


def _config_from(cfg):
    """The TrainConfig a deep model file stores; a ValueError names the bad key."""
    if not isinstance(cfg, dict):
        raise ValueError("deep-cca config must be an object")
    known = {f.name for f in fields(TrainConfig)}
    for key in cfg:
        if key not in known:
            raise ValueError(f"deep-cca config has unknown key {key!r}")
    if not isinstance(cfg["hidden_sizes"], list):
        raise ValueError("deep-cca config key 'hidden_sizes' must be a list")
    try:
        return TrainConfig(**cfg)
    except (TypeError, ValueError) as e:
        raise ValueError(f"deep-cca config is invalid: {e}") from None


def _model_from(kind, meta, blocks):
    if kind == KIND_LINEAR:
        return _head_from(meta, blocks)
    if kind == KIND_KERNEL:
        if meta["kernel"] != "gaussian":
            raise ValueError(f"unknown kernel {meta['kernel']!r}; only 'gaussian' is supported")
        return KernelCcaModel(
            map_x=_kernel_map_from(meta, blocks, "x"),
            map_y=_kernel_map_from(meta, blocks, "y"),
            head=_head_from(meta, blocks, "head_"),
        )
    if kind == KIND_DEEP:
        return DeepCcaModel(
            net_x=_net_from(meta["net_x_layers"], blocks, "net_x_"),
            net_y=_net_from(meta["net_y_layers"], blocks, "net_y_"),
            head=_head_from(meta, blocks, "head_"),
            config=_config_from(meta["config"]),
            history_objective=_row(blocks, "history_objective"),
            history_epoch=_row(blocks, "history_epoch").astype(int),
        )
    raise ValueError(f"unknown model kind {kind!r}")


def _check_projects(model, kind):
    """A zero vector must project through each side to finite values, so
    blocks that do not fit together fail at load, not at the first query."""
    maps = getattr(model, "feature_maps", None)
    dims = [m.input_dim for m in maps] if maps else [model.mean_x.size, model.mean_y.size]
    for side, dim in zip(("image", "text"), dims):
        try:
            with np.errstate(all="ignore"):
                finite = np.isfinite(model.project(np.zeros(dim), side)).all()
        except ValueError as e:
            raise ValueError(f"{kind} file does not project a zero {side} vector ({e})") from None
        if not finite:
            raise ValueError(f"{kind} file projects a zero {side} vector to values that are not finite")


def load_model(path):
    """The model a file holds, or a DatasetError that names the file."""
    kind, meta, blocks = dataio.read_container(path)
    try:
        model = _model_from(kind, meta, blocks)
        _check_projects(model, kind)
    except KeyError as e:
        raise dataio.DatasetError(f"{path}: {kind} file has no {e.args[0]!r} entry") from None
    except (TypeError, ValueError) as e:  # a value of the wrong type or range
        raise dataio.DatasetError(f"{path}: {e}") from None
    return model


def save_index(index, path):
    meta = {"venue_ids": list(index.venue_ids)}
    blocks = {
        "vectors": index.vectors,
        "coords": index.coords,
        "categories": index.categories[None, :].astype(float),
    }
    dataio.write_container(path, KIND_INDEX, meta, blocks)


def load_index(path):
    kind, meta, blocks = dataio.read_container(path)
    if kind != KIND_INDEX:
        raise dataio.DatasetError(f"{path}: not a venue index (kind {kind!r})")
    try:
        venue_ids, categories = meta["venue_ids"], blocks["categories"]
        coords, vectors = blocks["coords"], blocks["vectors"]
    except KeyError as e:
        raise dataio.DatasetError(f"{path}: {kind} file has no {e.args[0]!r} entry") from None
    # ids are compared when ranked, so they must all share one JSON type
    id_types = {type(v) for v in venue_ids} if isinstance(venue_ids, list) else {None}
    if len(id_types) > 1 or not id_types <= {str, int}:
        raise dataio.DatasetError(f"{path}: venue_ids must be a list of strings or of integers")
    if categories.shape[0] != 1:
        raise dataio.DatasetError(f"{path}: categories block must have one row, got {categories.shape[0]}")
    categories = categories[0]
    lo, hi = dataio.CATEGORY_MIN, dataio.CATEGORY_MAX
    if not np.all((categories >= lo) & (categories <= hi) & (categories == np.round(categories))):
        raise dataio.DatasetError(f"{path}: categories must be whole numbers in {lo}..{hi}")
    try:
        return VenueIndex(venue_ids, categories.astype(int), coords, vectors)
    except ValueError as e:  # arrays that disagree on the venue count, duplicate ids
        raise dataio.DatasetError(f"{path}: {e}") from None
