"""Small fully-connected network engine with manual backprop.

Layer l computes s_l = Wbar_l abar_{l-1} with abar_l = (a_l^T 1)^T, i.e.
weights and bias live in one out x (in+1) matrix acting on activations with
an appended homogeneous coordinate.  Besides plain loss gradients, the
engine exposes the per-sample quantities the metric and K-FAC modules need:
homogeneous activations, pre-activation output Jacobians Ds_l = dphi/ds_l,
and the dense parameter Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import losses
from .errors import DimensionMismatch, TooLarge

__all__ = [
    "LayerSpec",
    "MlpNetwork",
    "BatchCache",
    "forward",
    "backward_loss",
    "output_jacobians",
    "param_jacobian",
]

ACTIVATIONS = ("identity", "tanh", "relu", "sigmoid")

# Largest P * B * m the dense parameter Jacobian may occupy.
DENSE_BUDGET = 4_000_000


def _act(name: str, s: np.ndarray) -> np.ndarray:
    if name == "identity":
        return s
    if name == "tanh":
        return np.tanh(s)
    if name == "relu":
        return np.maximum(s, 0.0)
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-s))
    raise ValueError(f"unknown activation {name!r}")


def _dact(name: str, s: np.ndarray) -> np.ndarray:
    if name == "identity":
        return np.ones_like(s)
    if name == "tanh":
        t = np.tanh(s)
        return 1.0 - t * t
    if name == "relu":
        # Subgradient at 0 is fixed to 0 for reproducible finite differences.
        return (s > 0).astype(np.float64)
    if name == "sigmoid":
        sig = 1.0 / (1.0 + np.exp(-s))
        return sig * (1.0 - sig)
    raise ValueError(f"unknown activation {name!r}")


@dataclass(frozen=True)
class LayerSpec:
    in_dim: int
    out_dim: int
    activation: str = "tanh"

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")


@dataclass
class MlpNetwork:
    layers: list  # of LayerSpec
    weights: list  # of (out_dim, in_dim + 1) float64 arrays

    def __post_init__(self):
        if len(self.layers) != len(self.weights):
            raise DimensionMismatch("one weight matrix per layer required")
        for spec, w in zip(self.layers, self.weights):
            if w.shape != (spec.out_dim, spec.in_dim + 1):
                raise DimensionMismatch(
                    f"weight shape {w.shape} does not match layer {spec}"
                )
        for a, b in zip(self.layers, self.layers[1:]):
            if a.out_dim != b.in_dim:
                raise DimensionMismatch("consecutive layer dimensions must match")

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim

    @property
    def num_params(self) -> int:
        return sum(w.size for w in self.weights)

    @classmethod
    def create(cls, dims, activations, rng) -> "MlpNetwork":
        """Seeded uniform(-a, a) init with a = sqrt(6 / (in + out))."""
        if isinstance(activations, str):
            activations = [activations] * (len(dims) - 1)
        layers = [LayerSpec(i, o, act) for i, o, act in zip(dims[:-1], dims[1:], activations)]
        weights = []
        for spec in layers:
            a = np.sqrt(6.0 / (spec.in_dim + spec.out_dim))
            weights.append(rng.uniform(-a, a, size=(spec.out_dim, spec.in_dim + 1)))
        return cls(layers, weights)

    def params_vector(self) -> np.ndarray:
        return np.concatenate([w.reshape(-1) for w in self.weights])

    def with_params_vector(self, vec: np.ndarray) -> "MlpNetwork":
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape[0] != self.num_params:
            raise DimensionMismatch("parameter vector has wrong length")
        weights, k = [], 0
        for w in self.weights:
            weights.append(vec[k : k + w.size].reshape(w.shape).copy())
            k += w.size
        return MlpNetwork(self.layers, weights)


@dataclass
class BatchCache:
    """Everything one forward pass produces for a batch.

    a_bars[l] is the homogeneous activation feeding layer l (last column all
    ones); pre_acts[l] the pre-activations s_l; outputs the network values.
    jacobians is filled by output_jacobians: one (m, B, d_l) array per layer
    with dphi^c/ds_l per sample.
    """

    inputs: np.ndarray
    a_bars: list
    pre_acts: list
    outputs: np.ndarray
    jacobians: list = field(default=None)

    @property
    def batch_size(self) -> int:
        return self.inputs.shape[0]


def _homogeneous(a: np.ndarray) -> np.ndarray:
    return np.hstack([a, np.ones((a.shape[0], 1))])


def forward(net: MlpNetwork, x) -> BatchCache:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != net.input_dim:
        raise DimensionMismatch(
            f"inputs have {x.shape[1]} columns, network expects {net.input_dim}"
        )
    a = x
    a_bars, pre_acts = [], []
    for spec, w in zip(net.layers, net.weights):
        a_bar = _homogeneous(a)
        s = a_bar @ w.T
        a_bars.append(a_bar)
        pre_acts.append(s)
        a = _act(spec.activation, s)
    return BatchCache(inputs=x, a_bars=a_bars, pre_acts=pre_acts, outputs=a)


def backward_loss(net, cache, targets, loss: str, reduction: str = "mean"):
    """Per-layer gradient matrices V_l of the batch loss, shaped like Wbar_l.

    reduction "mean" averages over the batch (the optimizer convention);
    "sum" matches the plain empirical-sum loss.
    """
    grad_z = losses.loss_grad_z(cache.outputs, targets, loss)
    if reduction == "mean":
        grad_z = grad_z / cache.batch_size
    elif reduction != "sum":
        raise ValueError("reduction must be 'mean' or 'sum'")
    grads = [None] * len(net.layers)
    delta = grad_z * _dact(net.layers[-1].activation, cache.pre_acts[-1])
    for l in range(len(net.layers) - 1, -1, -1):
        grads[l] = delta.T @ cache.a_bars[l]
        if l > 0:
            w_nobias = net.weights[l][:, :-1]
            delta = (delta @ w_nobias) * _dact(net.layers[l - 1].activation, cache.pre_acts[l - 1])
    return grads


def output_jacobians(net: MlpNetwork, cache: BatchCache) -> list:
    """Per-sample pre-activation Jacobians Ds_l^(c) = dphi^c/ds_l.

    One backward pass for all output components at once, seeded with
    dphi^c/dphi = e_c.  Returns a list over layers of (m, B, d_l) arrays and
    stores it on the cache for the K-FAC factor computation.
    """
    jacs = [None] * len(net.layers)
    d = np.eye(net.output_dim)[:, None, :] * _dact(net.layers[-1].activation, cache.pre_acts[-1])
    jacs[-1] = d
    for l in range(len(net.layers) - 1, 0, -1):
        d = (d @ net.weights[l][:, :-1]) * _dact(net.layers[l - 1].activation, cache.pre_acts[l - 1])
        jacs[l - 1] = d
    cache.jacobians = jacs
    return jacs


def param_jacobian(net: MlpNetwork, x, cache: BatchCache = None) -> np.ndarray:
    """Dense parameter Jacobian J of shape (P, B*m).

    Column (b, c) = b*m + c holds dphi^c(x_b)/dtheta, with theta ordered by
    layer and row-major within each Wbar_l.  Assembled from the output
    Jacobians as dphi^c/dWbar_l = Ds_l^(c) (x) abar_{l-1}.  A caller that
    already holds forward(net, x) passes it as cache to skip the forward pass.

    Raises TooLarge when P*B*m exceeds DENSE_BUDGET (use the K-FAC path).
    """
    if cache is None:
        cache = forward(net, x)
    batch, m = cache.batch_size, net.output_dim
    p = net.num_params
    if p * batch * m > DENSE_BUDGET:
        raise TooLarge(f"dense Jacobian of {p}x{batch * m} exceeds budget {DENSE_BUDGET}")
    jacs = output_jacobians(net, cache)
    j, row = np.empty((p, batch * m)), 0  # blocks written in place: no J-sized temporaries
    for w, jac, a_bar in zip(net.weights, jacs, cache.a_bars):
        # (m, B, d_l) x (B, d_{l-1}+1) -> rows (p, q), columns (b, c).
        np.einsum("cbp,bq->pqbc", jac, a_bar, out=j[row : row + w.size].reshape(*w.shape, batch, m))
        row += w.size
    return j
