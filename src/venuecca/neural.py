"""Minimal MLP machinery for the deep solvers: forward, backprop, Adam.

Networks are a standardizer followed by dense layers with tanh or linear
activations and optional inverted dropout. Everything is explicit numpy;
batches are (d, n) with columns as samples, matching the rest of the
package. Gradients returned by mlp_backward are exact derivatives of
whatever scalar produced grad_output, which makes the whole stack
finite-difference checkable.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

VAR_CLAMP = 1e-8


@dataclass
class Standardizer:
    """Frozen per-feature affine map fitted once on the full training set."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, X):
        X = np.asarray(X, dtype=float)
        mean = X.mean(axis=1)
        var = X.var(axis=1)
        n_dead = int((var < VAR_CLAMP).sum())
        if n_dead:
            warnings.warn(
                f"{n_dead} features have (near-)zero variance; "
                "their standardized values are clamped toward 0"
            )
        return cls(mean=mean, std=np.sqrt(np.maximum(var, VAR_CLAMP)))

    def apply(self, X):
        return (X - self.mean[:, None]) / self.std[:, None]


@dataclass
class Layer:
    W: np.ndarray
    b: np.ndarray
    activation: str
    dropout_rate: float = 0.0

    def __post_init__(self):
        if self.activation not in ("tanh", "linear"):
            raise ValueError(f"unknown activation {self.activation!r}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")


class MlpNetwork:
    """Standardizer + dense layers. Parameters live in the layers."""

    def __init__(self, standardizer, layers):
        self.standardizer = standardizer
        self.layers = list(layers)

    @classmethod
    def init(cls, sizes, standardizer, rng, dropout_rate=0.0):
        """Glorot-uniform initialization for a tanh net.

        sizes runs input -> hidden... -> output. Hidden layers are tanh
        with the given dropout rate; the last layer is linear and never
        drops units.
        """
        layers = []
        for i in range(len(sizes) - 1):
            fan_in, fan_out = sizes[i], sizes[i + 1]
            last = i == len(sizes) - 2
            act = "linear" if last else "tanh"
            gain = 5.0 / 3.0 if act == "tanh" else 1.0
            limit = gain * math.sqrt(6.0 / (fan_in + fan_out))
            layers.append(
                Layer(
                    W=rng.uniform(-limit, limit, (fan_out, fan_in)),
                    b=np.zeros(fan_out),
                    activation=act,
                    dropout_rate=0.0 if last else dropout_rate,
                )
            )
        return cls(standardizer, layers)

    @property
    def input_dim(self):
        return self.layers[0].W.shape[1]

    def __call__(self, X):
        """Eval-mode output: the network as a deep model's feature map."""
        return mlp_forward(self, X, mode="eval").output

    def parameters(self):
        """Flat parameter list [W0, b0, W1, b1, ...]; arrays are live views."""
        out = []
        for layer in self.layers:
            out.append(layer.W)
            out.append(layer.b)
        return out


@dataclass
class ForwardCache:
    """Everything backward needs: per-layer inputs, activations, masks."""

    inputs: list
    acts: list
    masks: list
    output: np.ndarray


def mlp_forward(net, X, mode="eval", seed=None):
    """Run the network. mode "train" samples dropout masks, "eval" never.

    Masks are drawn from default_rng(seed), so a fixed seed makes the
    stochastic pass reproducible. Survivors are scaled by 1/(1-rate) at
    train time (inverted dropout); eval applies no mask and no scaling.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != net.input_dim:
        raise ValueError(
            f"expected input of shape ({net.input_dim}, n), got {X.shape}"
        )
    rng = None
    if mode == "train" and any(l.dropout_rate > 0 for l in net.layers):
        rng = np.random.default_rng(seed)
    D = net.standardizer.apply(X)
    inputs, acts, masks = [], [], []
    for layer in net.layers:
        inputs.append(D)
        Z = layer.W @ D + layer.b[:, None]
        A = np.tanh(Z) if layer.activation == "tanh" else Z
        acts.append(A)
        if mode == "train" and layer.dropout_rate > 0:
            keep = 1.0 - layer.dropout_rate
            mask = (rng.random(A.shape) < keep).astype(float) / keep
            masks.append(mask)
            D = A * mask
        else:
            masks.append(None)
            D = A
    return ForwardCache(inputs=inputs, acts=acts, masks=masks, output=D)


def mlp_backward(net, cache, grad_output):
    """Backpropagate grad_output (d obj / d network output).

    Returns (param_grads, input_grad): param_grads aligns with
    net.parameters(), input_grad is the derivative with respect to the raw
    (unstandardized) input batch.
    """
    grad_output = np.asarray(grad_output, dtype=float)
    if grad_output.shape != cache.output.shape:
        raise ValueError(
            f"grad_output shape {grad_output.shape} does not match the cached "
            f"forward output {cache.output.shape}; stale cache?"
        )
    if len(cache.acts) != len(net.layers):
        raise ValueError("cache does not belong to this network")
    G = grad_output
    param_grads = [None] * (2 * len(net.layers))
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        if cache.masks[i] is not None:
            G = G * cache.masks[i]
        if layer.activation == "tanh":
            A = cache.acts[i]
            G = G * (1.0 - A * A)
        param_grads[2 * i] = G @ cache.inputs[i].T
        param_grads[2 * i + 1] = G.sum(axis=1)
        G = layer.W.T @ G
    input_grad = G / net.standardizer.std[:, None]
    return param_grads, input_grad


@dataclass
class TrainConfig:
    """Hyperparameters for the deep solvers.

    Defaults: lr 1e-4, batches of 100, ridge 1e-4, beta 0.3, 10 canonical
    components, two 1024-unit tanh hidden layers with dropout 0.5.
    Training stops early once the epoch-mean objective stops improving by
    tol for patience consecutive epochs.
    """

    learning_rate: float = 1e-4
    batch_size: int = 100
    epochs: int = 50
    seed: int = 0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    r: float = 1e-4
    beta: float = 0.3
    k: int = 10
    hidden_sizes: tuple = (1024, 1024)
    dropout_rate: float = 0.5
    tol: float = 1e-4
    patience: int = 3
    group_weighting: str = "size"

    def __post_init__(self):
        if self.learning_rate <= 0 or self.batch_size < 1 or self.epochs < 1:
            raise ValueError("learning_rate, batch_size and epochs must be positive")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")
        if not 0 <= self.r < math.inf or self.k < 1:
            raise ValueError("r must be finite and >= 0, and k >= 1")
        if self.group_weighting not in ("size", "equal"):
            raise ValueError(f"unknown group_weighting {self.group_weighting!r}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")
        self.hidden_sizes = tuple(int(h) for h in self.hidden_sizes)
        if min(self.hidden_sizes, default=1) < 1:
            raise ValueError(f"hidden_sizes must all be >= 1, got {self.hidden_sizes}")


class AdamState:
    """First/second moment accumulators, one pair per parameter array."""

    def __init__(self, params):
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]


def adam_step(params, grads, state, config):
    """One Adam descent step, in place. Returns (params, state).

    Caller supplies gradients of the quantity to minimize; the deep
    trainer negates its correlation gradients before calling.
    """
    if len(params) != len(state.m) or len(params) != len(grads):
        raise ValueError("params, grads and state disagree on layout")
    state.t += 1
    b1, b2 = config.adam_beta1, config.adam_beta2
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p -= config.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + config.adam_epsilon)
    return params, state
