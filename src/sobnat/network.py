"""Small fully-connected network engine with manual backprop.

Layer l computes s_l = Wbar_l abar_{l-1} with abar_l = (a_l^T 1)^T, i.e.
weights and bias live in one out x (in+1) matrix acting on activations with
an appended homogeneous coordinate.  Besides plain loss gradients, the
engine exposes the per-sample quantities the metric and K-FAC modules need:
homogeneous activations, pre-activation output Jacobians Ds_l = dphi/ds_l,
and the parameter Jacobian -- as products of its layer factors
(:class:`Tangents`) or as a dense array.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    "Tangents",
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
    The output Jacobians are held with a_bars by :meth:`Tangents.of_network`.
    """

    inputs: np.ndarray
    a_bars: list
    pre_acts: list
    outputs: np.ndarray

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
    dphi^c/dphi = e_c.  Returns a list over layers of (m, B, d_l) arrays,
    the jacobians of :class:`Tangents`.
    """
    jacs = [None] * len(net.layers)
    d = np.eye(net.output_dim)[:, None, :] * _dact(net.layers[-1].activation, cache.pre_acts[-1])
    jacs[-1] = d
    for l in range(len(net.layers) - 1, 0, -1):
        d = (d @ net.weights[l][:, :-1]) * _dact(net.layers[l - 1].activation, cache.pre_acts[l - 1])
        jacs[l - 1] = d
    return jacs


@dataclass(frozen=True)
class Tangents:
    """The parameter Jacobian J (P x B*m) held as its layer factors.

    Layer l owns the rows of Wbar_l, and its block of column (b, c) is
    dphi^c(x_b)/dWbar_l = Ds_l^(c)(x_b) (x) abar_{l-1}(x_b): a_bars[l] is
    the (B, q_l) homogeneous input and jacobians[l] the (m, B, p_l) output
    Jacobian of layer l, as :func:`output_jacobians` returns it.  These are
    also the factors of K-FAC (:func:`sobnat.kfac.compute_factors`), and
    this is the one place they are held.  The products below touch only
    the factors, so no P x B*m array exists unless :meth:`matrix` is called
    (the structured tangent-kernel products of Novak et al. 2022).
    """

    a_bars: list
    jacobians: list

    @classmethod
    def of_network(cls, net: MlpNetwork, cache: BatchCache) -> "Tangents":
        """Tangents of net on the cached batch (runs :func:`output_jacobians`)."""
        return cls(cache.a_bars, output_jacobians(net, cache))

    @classmethod
    def of_matrix(cls, j: np.ndarray, output_dim: int) -> "Tangents":
        """Any dense (P, B*m) Jacobian, as a single layer whose input is abar = 1."""
        j = np.asarray(j, dtype=np.float64)
        if j.ndim != 2:
            raise DimensionMismatch("jacobian must be a (P, B*m) matrix")
        if j.shape[1] % output_dim != 0:
            raise DimensionMismatch(
                f"jacobian has {j.shape[1]} columns, not a multiple of output_dim={output_dim}"
            )
        batch = j.shape[1] // output_dim
        return cls([np.ones((batch, 1))], [j.reshape(j.shape[0], batch, output_dim).transpose(2, 1, 0)])

    @property
    def batch(self) -> int:
        return self.a_bars[0].shape[0]

    @property
    def output_dim(self) -> int:
        return self.jacobians[0].shape[0]

    @property
    def num_params(self) -> int:
        return sum(d.shape[2] * a.shape[1] for a, d in zip(self.a_bars, self.jacobians))

    def ntk(self) -> np.ndarray:
        """Empirical tangent kernel Theta = J^T J, a (B*m, B*m) array.

        Theta[(a, c), (b, e)] = sum_l (abar_l(x_a) . abar_l(x_b))
        (Ds_l^(c)(x_a) . Ds_l^(e)(x_b)), so block (a, b) of Theta is the
        m x m kernel Theta(x_a, x_b).  Each layer costs two small Gram
        products; it is summed in (c, a, e, b) order, where the
        elementwise product runs along b, and reordered once at the end.
        """
        batch, m = self.batch, self.output_dim
        theta = np.zeros((m, batch, m, batch))
        for a, d in zip(self.a_bars, self.jacobians):
            rows = d.reshape(m * batch, -1)  # row c*B + b holds Ds_l^(c)(x_b)
            theta += (rows @ rows.T).reshape(theta.shape) * (a @ a.T)[:, None, :]
        return theta.transpose(1, 0, 3, 2).reshape(batch * m, batch * m)

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        """J^T v for a length-P vector v, as a (B, m) array."""
        out, row = 0.0, 0
        for a, d in zip(self.a_bars, self.jacobians):
            size = d.shape[2] * a.shape[1]
            u = a @ v[row : row + size].reshape(d.shape[2], a.shape[1]).T  # (B, p_l)
            out = out + np.einsum("cbp,bp->bc", d, u)
            row += size
        return out

    def matvec(self, z: np.ndarray) -> np.ndarray:
        """J z for a (B, m) array z, as a length-P vector."""
        return np.concatenate(
            [(np.einsum("cbp,bc->pb", d, z) @ a).reshape(-1) for a, d in zip(self.a_bars, self.jacobians)]
        )

    def matrix(self) -> np.ndarray:
        """The dense (P, B*m) Jacobian; column (b, c) = b*m + c.

        It is the transposed view of a C-ordered (B, m, P) array, so J^T
        reshapes to the (B, m*P) layout of :meth:`GramMatrix.whiten`
        without a copy.
        """
        batch, m = self.batch, self.output_dim
        jt, row = np.empty((batch, m, self.num_params)), 0  # blocks written in place
        for a, d in zip(self.a_bars, self.jacobians):
            size = d.shape[2] * a.shape[1]
            # (m, B, p_l) x (B, q_l) -> (b, c, p, q); splitting the contiguous
            # last axis keeps the block a view of jt.
            block = jt[:, :, row : row + size].reshape(batch, m, d.shape[2], a.shape[1])
            np.einsum("cbp,bq->bcpq", d, a, out=block)
            row += size
        return jt.reshape(batch * m, -1).T


def param_jacobian(net: MlpNetwork, x) -> np.ndarray:
    """Dense parameter Jacobian J of shape (P, B*m), for the oracles.

    Column (b, c) = b*m + c holds dphi^c(x_b)/dtheta, with theta ordered by
    layer and row-major within each Wbar_l; see :class:`Tangents`, whose
    :meth:`~Tangents.matrix` the training steps call instead.

    Raises TooLarge when P*B*m exceeds DENSE_BUDGET.
    """
    cache = forward(net, x)
    batch, m = cache.batch_size, net.output_dim
    p = net.num_params
    if p * batch * m > DENSE_BUDGET:
        raise TooLarge(f"dense Jacobian of {p}x{batch * m} exceeds budget {DENSE_BUDGET}")
    return Tangents.of_network(net, cache).matrix()
