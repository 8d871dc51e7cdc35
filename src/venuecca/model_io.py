"""Model and index files: one container, a JSON header, binary blocks.

Serialization is byte-deterministic: headers are JSON with sorted keys,
blocks are raw little-endian float64 matrices in a fixed order. Saving
the same model twice yields identical bytes, which the pipeline's
reproducibility guarantee leans on.
"""

from dataclasses import asdict

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


def _head_from(meta, blocks, prefix=""):
    return LinearCcaModel(
        mean_x=blocks[f"{prefix}mean_x"][0],
        mean_y=blocks[f"{prefix}mean_y"][0],
        Wx=blocks[f"{prefix}Wx"],
        Wy=blocks[f"{prefix}Wy"],
        rho=blocks[f"{prefix}rho"][0],
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
        mean=blocks[f"{prefix}std_mean"][0], std=blocks[f"{prefix}std_std"][0]
    )
    layers = [
        Layer(
            W=blocks[f"{prefix}W{i}"],
            b=blocks[f"{prefix}b{i}"][0],
            activation=m["activation"],
            dropout_rate=m["dropout_rate"],
        )
        for i, m in enumerate(layer_meta)
    ]
    return MlpNetwork(std, layers)


def _kernel_parts(model):
    map_x, map_y, head = model.map_x, model.map_y, model.head
    meta = {
        "kernel": map_x.kernel,
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
        kernel=meta["kernel"],
        sigma=float(meta[f"sigma_{side}"]),
        mu=blocks[f"mu_{side}"][0],
        grand=float(meta[f"grand_{side}"]),
    )


def _deep_parts(model):
    config = model.config
    meta = {
        "config": asdict(config) if not isinstance(config, dict) else config,
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


def load_model(path):
    kind, meta, blocks = dataio.read_container(path)
    try:
        if kind == KIND_LINEAR:
            return _head_from(meta, blocks)
        if kind == KIND_KERNEL:
            return KernelCcaModel(
                map_x=_kernel_map_from(meta, blocks, "x"),
                map_y=_kernel_map_from(meta, blocks, "y"),
                head=_head_from(meta, blocks, "head_"),
            )
        if kind == KIND_DEEP:
            cfg = dict(meta["config"])
            cfg["hidden_sizes"] = tuple(cfg["hidden_sizes"])
            return DeepCcaModel(
                net_x=_net_from(meta["net_x_layers"], blocks, "net_x_"),
                net_y=_net_from(meta["net_y_layers"], blocks, "net_y_"),
                head=_head_from(meta, blocks, "head_"),
                config=TrainConfig(**cfg),
                history_objective=blocks["history_objective"][0],
                history_epoch=blocks["history_epoch"][0].astype(int),
            )
    except KeyError as e:
        raise dataio.DatasetError(f"{path}: {kind} file has no {e.args[0]!r} entry") from None
    raise dataio.DatasetError(f"{path}: unknown model kind {kind!r}")


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
    try:
        return VenueIndex(venue_ids, categories[0].astype(int), coords, vectors)
    except ValueError as e:  # arrays that disagree on the venue count, duplicate ids
        raise dataio.DatasetError(f"{path}: {e}") from None
