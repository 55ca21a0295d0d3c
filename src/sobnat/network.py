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
    "backward",
    "backward_loss",
    "output_jacobians",
    "Tangents",
    "param_jacobian",
]

ACTIVATIONS = ("identity", "tanh", "relu", "sigmoid")

# Largest P * B * m the dense parameter Jacobian may occupy.
DENSE_BUDGET = 4_000_000


def _act(name: str, s: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """phi(s), written into out when it is given."""
    if name == "identity":
        if out is None:
            return s
        np.copyto(out, s)
        return out
    if name == "tanh":
        return np.tanh(s, out=out)
    if name == "relu":
        return np.maximum(s, 0.0, out=out)
    if name == "sigmoid":
        return np.divide(1.0, 1.0 + np.exp(-s), out=out)
    raise ValueError(f"unknown activation {name!r}")


def _times_dact(x: np.ndarray, net: "MlpNetwork", cache: "BatchCache", l: int) -> np.ndarray:
    """x * dphi/ds of layer l, elementwise, read from the cached forward pass.

    tanh and sigmoid derivatives come from the layer's own activation
    a = phi(s_l), so no transcendental is evaluated twice.
    """
    name = net.layers[l].activation
    if name == "identity":
        return x
    if name == "relu":
        # Subgradient at 0 is fixed to 0 for reproducible finite differences.
        return x * (cache.pre_acts[l] > 0).astype(np.float64)
    a = cache.activation(l)
    if name == "tanh":
        return x * (1.0 - a * a)
    if name == "sigmoid":
        return x * (a * (1.0 - a))
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

    def split_vector(self, vec: np.ndarray) -> list:
        """Per-layer views of a length-P vector laid out as :meth:`params_vector`,
        each shaped like Wbar_l: the layers in order, each row-major."""
        if vec.shape[0] != self.num_params:
            raise DimensionMismatch("parameter vector has wrong length")
        views, k = [], 0
        for w in self.weights:
            views.append(vec[k : k + w.size].reshape(w.shape))
            k += w.size
        return views

    def with_params_vector(self, vec: np.ndarray) -> "MlpNetwork":
        vec = np.asarray(vec, dtype=np.float64)
        return MlpNetwork(self.layers, [v.copy() for v in self.split_vector(vec)])


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

    def activation(self, l: int) -> np.ndarray:
        """a_l = phi(s_l), layer l's output: a view of a_bars[l + 1], or outputs."""
        return self.a_bars[l + 1][:, :-1] if l + 1 < len(self.a_bars) else self.outputs


def _homogeneous(batch: int, width: int) -> np.ndarray:
    """An empty (batch, width + 1) activation whose last column is ones."""
    a_bar = np.empty((batch, width + 1))
    a_bar[:, -1] = 1.0
    return a_bar


def forward(net: MlpNetwork, x) -> BatchCache:
    """Each hidden activation is written straight into the next layer's a_bar."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != net.input_dim:
        raise DimensionMismatch(
            f"inputs have {x.shape[1]} columns, network expects {net.input_dim}"
        )
    a_bar = _homogeneous(*x.shape)
    a_bar[:, :-1] = x
    a_bars, pre_acts = [a_bar], []
    for spec, w in zip(net.layers[:-1], net.weights[:-1]):
        s = a_bar @ w.T
        pre_acts.append(s)
        a_bar = _homogeneous(*s.shape)
        _act(spec.activation, s, out=a_bar[:, :-1])
        a_bars.append(a_bar)
    s = a_bar @ net.weights[-1].T
    pre_acts.append(s)
    outputs = _act(net.layers[-1].activation, s)
    return BatchCache(inputs=x, a_bars=a_bars, pre_acts=pre_acts, outputs=outputs)


def backward(net: MlpNetwork, cache: BatchCache, grad_z: np.ndarray) -> list:
    """Per-layer gradient matrices V_l, shaped like Wbar_l, of the batch sum
    of a loss whose per-sample gradient in the outputs is grad_z, (B, m)."""
    grads = [None] * len(net.layers)
    delta = _times_dact(grad_z, net, cache, len(net.layers) - 1)
    for l in range(len(net.layers) - 1, -1, -1):
        grads[l] = delta.T @ cache.a_bars[l]
        if l > 0:
            delta = _times_dact(delta @ net.weights[l][:, :-1], net, cache, l - 1)
    return grads


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
    return backward(net, cache, grad_z)


def output_jacobians(net: MlpNetwork, cache: BatchCache) -> list:
    """Per-sample pre-activation Jacobians Ds_l^(c) = dphi^c/ds_l.

    One backward pass for all output components at once, seeded with
    dphi^c/dphi = e_c.  Returns a list over layers of (m, B, d_l) arrays,
    the jacobians of :class:`Tangents`.
    """
    jacs = [None] * len(net.layers)
    seed = np.repeat(np.eye(net.output_dim)[:, None, :], cache.batch_size, axis=1)
    d = _times_dact(seed, net, cache, len(net.layers) - 1)
    jacs[-1] = d
    for l in range(len(net.layers) - 1, 0, -1):
        d = _times_dact(d @ net.weights[l][:, :-1], net, cache, l - 1)
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

    Kernel space is component-major, the order jacobians are stored in:
    :meth:`ntk` indexes its rows and columns (c, b) as c*B + b,
    :meth:`rmatvec` returns and :meth:`matvec` takes (m, B) arrays, so
    none of them reorders a factor.  A (B, m) array of per-sample output
    gradients r enters :meth:`matvec` as its transpose, and J r is the
    gradient of the batch sum of the loss.  :meth:`matrix` keeps the
    sample-major columns (b, c) of :func:`param_jacobian`.

    pre_acts are the forward pass's s_l = Abar_l Wbar_l^T, from which
    :meth:`rmatvec_params` reads J^T theta; a dense J has none.
    """

    a_bars: list
    jacobians: list
    pre_acts: list = None

    @classmethod
    def of_network(cls, net: MlpNetwork, cache: BatchCache) -> "Tangents":
        """Tangents of net on the cached batch (runs :func:`output_jacobians`)."""
        return cls(cache.a_bars, output_jacobians(net, cache), cache.pre_acts)

    @classmethod
    def of_matrix(cls, j: np.ndarray, output_dim: int) -> "Tangents":
        """Any dense (P, B*m) Jacobian, as a single layer whose input is abar = 1."""
        j = np.asarray(j, dtype=np.float64)
        if j.ndim != 2:
            raise DimensionMismatch("jacobian must be a (P, B*m) matrix")
        if output_dim < 1:
            raise DimensionMismatch(f"output_dim must be at least 1, got {output_dim}")
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
        """Empirical tangent kernel Theta = J^T J, a (m*B, m*B) array.

        Theta[(c, a), (e, b)] = sum_l (Ds_l^(c)(x_a) . Ds_l^(e)(x_b))
        (abar_l(x_a) . abar_l(x_b)), in the component-major order of
        jacobians: row c*B + a.  Block (c, e) is the B x B kernel of output
        components c and e.  Each layer is one Gram product of the
        jacobians' rows, multiplied in place by the activations' B x B Gram
        along each block, and added into the first layer's product.
        """
        batch, m = self.batch, self.output_dim
        theta = None
        for a, d in zip(self.a_bars, self.jacobians):
            rows = d.reshape(m * batch, -1)  # row c*B + b holds Ds_l^(c)(x_b)
            layer = rows @ rows.T
            blocks = layer.reshape(m, batch, m, batch)  # a view of layer
            blocks *= (a @ a.T)[:, None, :]
            if theta is None:
                theta = layer
            else:
                theta += layer
        return theta

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        """J^T v for a length-P vector v, as an (m, B) array: out[c, b] is column (b, c)."""
        us, row = [], 0
        for a, d in zip(self.a_bars, self.jacobians):
            size = d.shape[2] * a.shape[1]
            us.append(a @ v[row : row + size].reshape(d.shape[2], a.shape[1]).T)  # (B, p_l)
            row += size
        return self._contract(us)

    def rmatvec_params(self, params: np.ndarray) -> np.ndarray:
        """J^T theta for the parameters theta the tangents were taken at.

        Column (b, c) of layer l contracted with Wbar_l is
        Ds_l^(c)(x_b) . s_l(x_b), so held pre-activations stand in for the
        products of :meth:`rmatvec`, which are the same GEMMs: the result is
        rmatvec(params) bit for bit.  A dense J, which has none, runs rmatvec.
        """
        if self.pre_acts is None:
            return self.rmatvec(params)
        return self._contract(self.pre_acts)

    def _contract(self, us: list) -> np.ndarray:
        """sum_l out[c, b] = Ds_l^(c)(x_b) . us[l][b], an (m, B) array."""
        out = None
        for d, u in zip(self.jacobians, us):
            layer = np.einsum("cbp,bp->cb", d, u)
            if out is None:
                out = layer
            else:
                out += layer
        return out

    def matvec(self, z: np.ndarray) -> np.ndarray:
        """J z for an (m, B) array z, as a length-P vector; z[c, b] weighs column (b, c)."""
        return np.concatenate(
            [(np.einsum("cbp,cb->pb", d, z) @ a).reshape(-1) for a, d in zip(self.a_bars, self.jacobians)]
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
            # (m, B, p_l) x (B, q_l) -> (b, c, p, q), an outer product in the
            # last two axes; splitting the contiguous last axis keeps the
            # block a view of jt.
            block = jt[:, :, row : row + size].reshape(batch, m, d.shape[2], a.shape[1])
            np.multiply(d.transpose(1, 0, 2)[:, :, :, None], a[:, None, None, :], out=block)
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
