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


def _deltas(net: MlpNetwork, cache: BatchCache, seed: np.ndarray) -> list:
    """The reverse recursion: per layer, the (..., B, d_l) gradient in s_l of
    the (..., B, m) output gradient seed, so a stack of seeds is one sweep."""
    deltas = [None] * len(net.layers)
    d = _times_dact(seed, net, cache, len(net.layers) - 1)
    deltas[-1] = d
    for l in range(len(net.layers) - 1, 0, -1):
        d = _times_dact(d @ net.weights[l][:, :-1], net, cache, l - 1)
        deltas[l - 1] = d
    return deltas


def backward(net: MlpNetwork, cache: BatchCache, grad_z: np.ndarray) -> list:
    """Per-layer gradient matrices V_l, shaped like Wbar_l, of the batch sum
    of a loss whose per-sample gradient in the outputs is grad_z, (B, m)."""
    return [d.T @ a for d, a in zip(_deltas(net, cache, grad_z), cache.a_bars)]


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
    seed = np.repeat(np.eye(net.output_dim)[:, None, :], cache.batch_size, axis=1)
    return _deltas(net, cache, seed)


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
    gradient of the batch sum of the loss.  Parameter space is the network's
    own layout, one (p_l, q_l) array per layer shaped like Wbar_l
    (:attr:`shapes`): :meth:`matvec` returns and :meth:`rmatvec` takes such
    lists.  :meth:`matrix` keeps the sample-major columns (b, c) of
    :func:`param_jacobian`.

    pre_acts are the forward pass's s_l = Abar_l Wbar_l^T, from which
    :meth:`rmatvec_params` reads J^T w; a dense J has none.
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
    def shapes(self) -> list:
        """(p_l, q_l) of each layer's parameters: Wbar_l's shape, or (P, 1) for a dense J."""
        return [(d.shape[2], a.shape[1]) for a, d in zip(self.a_bars, self.jacobians)]

    @property
    def num_params(self) -> int:
        return sum(p * q for p, q in self.shapes)

    def ntk(self) -> np.ndarray:
        """Empirical tangent kernel Theta = J^T J, a (m*B, m*B) array.

        Theta[(c, a), (e, b)] = sum_l (Ds_l^(c)(x_a) . Ds_l^(e)(x_b))
        (abar_l(x_a) . abar_l(x_b)), in the component-major order of
        jacobians: row c*B + a.  Block (c, e) is the B x B kernel of output
        components c and e.  Each layer is one Gram product of the
        jacobians' rows, multiplied in place by the activations' B x B Gram
        along each block, and added into the first layer's product.

        Both Gram products are plain GEMMs, X @ np.ascontiguousarray(X.T).
        numpy sends the form X @ X.T to BLAS syrk and then copies the
        triangle across in a C loop, which at these shapes is slower.  Per
        call (minimum over 5 x 5000 calls, one BLAS thread, 2-core x86
        host), the syrk path against the GEMM: 9.3 against 4.8 us for a
        (100, 2) X, 12.3 against 7.1 us for (100, 16), 3.3 against 2.0 us
        for (50, 3) and 4.6 against 3.1 us for (50, 17), the desk shapes.
        syrk gains only when the inner width and the output are both large:
        22.4 us each for (100, 64), 8.6 against 7.7 us for (50, 65), and
        2.01 against 2.29 ms for (1000, 64), Theta's rows at B = 500.
        Theta is then symmetric to rounding, not bit for bit; its one
        consumer, the kernel-space solve, factors S = Theta + damping
        (I_m (x) K_j) with :func:`sobnat.linalg.cholesky_factor`, which
        reads the upper triangle only.
        """
        batch, m = self.batch, self.output_dim
        theta = None
        for a, d in zip(self.a_bars, self.jacobians):
            rows = d.reshape(m * batch, -1)  # row c*B + b holds Ds_l^(c)(x_b)
            layer = rows @ np.ascontiguousarray(rows.T)
            blocks = layer.reshape(m, batch, m, batch)  # a view of layer
            blocks *= (a @ np.ascontiguousarray(a.T))[:, None, :]
            if theta is None:
                theta = layer
            else:
                theta += layer
        return theta

    def rmatvec(self, vs: list) -> np.ndarray:
        """J^T v for per-layer (p_l, q_l) arrays vs, as an (m, B) array: out[c, b] is column (b, c)."""
        return self._contract([a @ v.T for a, v in zip(self.a_bars, vs, strict=True)])  # (B, p_l) each

    def rmatvec_params(self, weights: list) -> np.ndarray:
        """J^T w for the weights w, one Wbar_l per layer, the tangents were taken at.

        Column (b, c) of layer l contracted with Wbar_l is
        Ds_l^(c)(x_b) . s_l(x_b), so held pre-activations stand in for the
        products of :meth:`rmatvec`, which are the same GEMMs: the result is
        rmatvec(weights) bit for bit.  A dense J, which has none, runs rmatvec.
        """
        if self.pre_acts is None:
            return self.rmatvec(weights)
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

    def matvec(self, z: np.ndarray) -> list:
        """J z for an (m, B) array z, as per-layer (p_l, q_l) arrays; z[c, b] weighs column (b, c)."""
        return [np.einsum("cbp,cb->pb", d, z) @ a for a, d in zip(self.a_bars, self.jacobians)]

    def matrix(self) -> np.ndarray:
        """The dense (P, B*m) Jacobian; column (b, c) = b*m + c.

        It is the transposed view of a C-ordered (B, m, P) array, so J^T
        reshapes to the (B, m*P) layout of :meth:`GramMatrix.whiten`
        without a copy.
        """
        batch, m = self.batch, self.output_dim
        jt, row = np.empty((batch, m, self.num_params)), 0  # blocks written in place
        for a, d, (p, q) in zip(self.a_bars, self.jacobians, self.shapes):
            # (m, B, p_l) x (B, q_l) -> (b, c, p, q), an outer product in the
            # last two axes; splitting the contiguous last axis keeps the
            # block a view of jt.
            block = jt[:, :, row : row + p * q].reshape(batch, m, p, q)
            np.multiply(d.transpose(1, 0, 2)[:, :, :, None], a[:, None, None, :], out=block)
            row += p * q
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
