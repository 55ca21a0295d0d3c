"""Pullback-metric estimation and natural-gradient solves.

The batch estimate of the metric contracts parameter Jacobians through the
inverse kernel Gram,

    g_ij = sum_c dphi^c/dtheta_i(x_a) Kinv_{ab} dphi^c/dtheta_j(x_b),

with vector outputs contracted componentwise against a single scalar B x B
Gram.  It is computed as the Gram product J~ J~^T, where J~ is J with each
output component's B columns whitened by the Gram's Cholesky factor
(K = L L^T, J~_c = J_c L^-T); no K^-1 is formed, and the result is
symmetric by construction.  Setting K to the identity skips the whitening
and gives the Gauss-Newton metric J J^T.  On a kernel-machine model whose
parameters are expansion coefficients over the batch centers the estimate is
exact and equals the Gram matrix itself.

The metric has rank at most B*m, so the damped natural gradient
(damping I + J~ J~^T) v = g is solved by :func:`damped_natural_gradient` in
whichever space is smaller.  Its gradient is that of a train step's summed
loss plus weight decay, g = J r + decay w, given as the (B, m) per-sample
residuals r = dL/dz and the weights w, and v comes back per layer, like w.
With P > B*m and damping > 0 it uses the push-through (Woodbury) identity

    v = (g - J~ (damping I + J~^T J~)^-1 J~^T g) / damping,

a B*m x B*m system that needs J only through products, so neither J nor
any P x P array is formed.  Kernel space is component-major: index (c, b)
is c*B + b, the order in which :meth:`sobnat.network.Tangents` holds the
output Jacobians, so no product below reorders a factor, and r enters as
its (m, B) transpose.  With W = I_m (x) L^-1 the whitening,
J~^T J~ = W Theta W^T, where Theta = J^T J is the empirical tangent
kernel.  Theta is built layer by layer from the forward pass's factors
(:meth:`sobnat.network.Tangents.ntk`),

    Theta = sum_l (Ds_l Ds_l^T)  .*  1_{m x m} (x) (Abar_l Abar_l^T),

each layer's product taken in place, and the whitening need not be applied
to it.  W^T W = I_m (x) K_j^-1, where K_j = K + jitter d(0) I is the
matrix the Gram's factor L is of, so the identity is v = (g - J z) /
damping with S z = J^T g and

    S = Theta + damping (I_m (x) K_j):

kernel ridge regression with the NTK in which the Sobolev Gram takes the
place of the identity.  g is never formed: J^T J r = Theta r = S r -
damping (I_m (x) K_j) r, so the J r in g cancels against part of J z,
and with c = decay / damping

    v = c w + J y,    S y = (I_m (x) K_j) r - c J^T w.

J^T w[c, b] = sum_l Ds_l^(c)(x_b) . s_l(x_b) is read from the forward
pass's pre-activations s_l = Abar_l Wbar_l^T
(:meth:`~sobnat.network.Tangents.rmatvec_params`), so with K = I the
step is one J product.  S is Theta with damping K_j added on its m
contiguous diagonal B x B blocks, and is factored once, from its upper
triangle (Theta is symmetric to rounding only); J y is a
per-layer product with Abar_l and Ds_l on an (m, B) array, and no
triangular solve touches Theta.  The rounding of the formed Theta is not
shaped like damping K_j, whose condition number is 1e9-1e10 on 50
two-moons points at input scale 20, so on its own v_0 = c w + J y is
up to 1.6e-7 off the P x P oracle.  One step of iterative refinement in
kernel space fixes that.  The residual of v_0 is

    g - damping v_0 - J (I_m (x) K_j^-1) J^T v_0 = J e,
    e = r - damping y - (I_m (x) K_j^-1) J^T v_0,

and the same identity with e for r and no decay corrects y by
S^-1 (I_m (x) K_j) e before v = c w + J y is taken again.
J^T v_0 must be taken by :meth:`~sobnat.network.Tangents.rmatvec`, and
K_j^-1 is applied to its (B, m) transpose by :meth:`GramMatrix.solve`
from the Gram's factor: the algebraically equal
K_j^-1 (c J^T w + Theta y) makes e vanish identically, and the
refinement would then correct nothing.  The refined step is within
2.2e-11 of the oracle, and the K = I step within 3.2e-12, relative to
its largest entry (B = 50, seeds 0-39, [2,16,16,1], [2,16,16,2] and
[2,64,64,2], input scales 20, 2 and 0.5, decay 0 and 0.003).  The
Sobolev solve makes two matvec calls and one rmatvec, factors S and
solves with K_j only on (B, m) arrays; with K = I, S = Theta + damping I,
the first v is the answer, and the solve makes one matvec.  (The
Tangents of a dense J hold no pre-activations and take J^T w by one
rmatvec more.)  A dense train step runs no other J product, so its one
backprop sweep is the output Jacobians of its Tangents.  With P <= B*m, or
with damping 0 (the exactness oracles), where the identity would divide by
0, the step forms g = J r + decay w, flattens it once in the order of
:meth:`~sobnat.network.MlpNetwork.params_vector` and returns per-layer
views of the solution.  It factors the P x P metric that
:func:`estimate_metric` builds, as natural_gradient does: one private
build that whitens the fresh buffer of
:meth:`~sobnat.network.Tangents.matrix` in place and returns J~ J~^T.  A
scalar damping is passed as the diagonal shift of
:func:`sobnat.linalg.cholesky_factor`, not added to a copy beforehand,
and a training run has the factor taken in a buffer it keeps across steps.
:func:`estimate_metric` and :func:`natural_gradient` stay as the P x P
oracle the fast path is tested against.

An exact quadrature oracle for the L2 pullback metric of tiny networks is
included for desk-scale ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, network
from .errors import BudgetExceeded, DimensionMismatch
from .kernel import GramMatrix
from .network import Tangents

__all__ = [
    "PullbackMetric",
    "estimate_metric",
    "natural_gradient",
    "damped_natural_gradient",
    "ntk_surrogate_gradient",
    "exact_pullback_quadrature",
]

@dataclass
class PullbackMetric:
    """Symmetric PSD metric on parameter space plus Tikhonov damping."""

    values: np.ndarray
    damping: float = 0.0

    @property
    def dim(self) -> int:
        return self.values.shape[0]


def _metric_values(tangents: Tangents, gram: GramMatrix) -> np.ndarray:
    """J~ J~^T, a (P, P) array; gram=None (K = I) leaves J unwhitened.

    The whitening overwrites the fresh buffer of :meth:`Tangents.matrix`,
    whose transposed view of a C-ordered array it solves without a copy.
    """
    if gram is not None and gram.size != tangents.batch:
        raise DimensionMismatch(f"gram has {gram.size} points, batch is {tangents.batch}")
    jt = tangents.matrix().T  # (B*m, P), row b*m + c holds dphi^c(x_b)/dtheta
    if gram is not None:
        # Column block c of the (B, m*P) reshape is J_c^T; one solve whitens all m.
        jt = gram.whiten(jt.reshape(tangents.batch, -1), overwrite_b=True).reshape(jt.shape)
    return jt.T @ jt


def estimate_metric(
    j: np.ndarray,
    output_dim: int,
    gram: GramMatrix = None,
    damping: float = 0.0,
) -> PullbackMetric:
    """Batch estimate of the pullback metric from a (P, B*m) Jacobian.

    gram=None selects K = I, in which case the result is exactly J @ J.T.
    """
    return PullbackMetric(_metric_values(Tangents.of_matrix(j, output_dim), gram), damping=damping)


def natural_gradient(metric: PullbackMetric, euclid_grad: np.ndarray) -> np.ndarray:
    """Solve (g + damping I) v = euclid_grad."""
    grad = np.asarray(euclid_grad, dtype=np.float64).reshape(-1)
    if grad.shape[0] != metric.dim:
        raise DimensionMismatch(f"gradient has length {grad.shape[0]}, metric is {metric.dim}")
    return linalg.solve_from_factor(linalg.cholesky_factor(metric.values, metric.damping), grad)


def damped_natural_gradient(
    tangents: Tangents,
    gram: GramMatrix,
    damping: float,
    residuals: np.ndarray,
    decay: float = 0.0,
    weights: list = None,
    buffers: linalg.FactorBuffers = None,
) -> list:
    """Solve (damping I + J~ J~^T) v = J r + decay * w with one factor in the smaller space.

    J~ is the whitened Jacobian of :func:`estimate_metric` (gram=None: K = I),
    given as the :class:`~sobnat.network.Tangents` of a network or of a
    dense J, r the (B, m) per-sample residuals dL/dz and w the per-layer
    weights the tangents were taken at (needed only with decay), so the
    right side is the gradient of a train step's summed loss plus weight
    decay.  w and v are lists shaped like the tangents'
    :attr:`~sobnat.network.Tangents.shapes`: Wbar_l per layer, or one
    (P, 1) array for a dense J.  With P > B*m and damping > 0 the B*m x B*m
    system of the module docstring is solved from r and J^T w, and neither
    J nor J r is formed; otherwise J r + decay * w and the P x P metric
    are, and v is per-layer views of natural_gradient(estimate_metric(...))
    of that gradient.  With ``buffers`` that P x P metric is factored into
    its "metric" array.
    """
    p, n = tangents.num_params, tangents.batch * tangents.output_dim
    r = _residuals(tangents, residuals)
    if weights is not None:
        shapes = [np.shape(w) for w in weights]
        if shapes != tangents.shapes:
            raise DimensionMismatch(f"weights of shapes {shapes} for layers of shapes {tangents.shapes}")
    elif decay != 0:
        raise ValueError("weight decay needs the params it decays")
    if gram is not None and gram.size != tangents.batch:
        raise DimensionMismatch(f"gram has {gram.size} points, batch is {tangents.batch}")
    if damping > 0 and p > n:
        return _kernel_space_solve(tangents, gram, damping, r, decay, weights)
    grad = _plus_decay(tangents.matvec(r.T), decay, weights)
    out = None if buffers is None else buffers.get("metric", p)
    factor = linalg.cholesky_factor(_metric_values(tangents, gram), damping, out=out)
    v = linalg.solve_from_factor(factor, np.concatenate([g.reshape(-1) for g in grad]))
    bounds = np.cumsum([g.size for g in grad])[:-1]
    return [part.reshape(g.shape) for part, g in zip(np.split(v, bounds), grad)]


def _plus_decay(vs: list, c: float, weights: list) -> list:
    """vs_l += c * w_l in place, layer by layer; vs unchanged when c is 0."""
    if c:
        for v, w in zip(vs, weights):
            v += c * w
    return vs


def _kernel_space_solve(tangents: Tangents, gram: GramMatrix, damping: float, r, decay: float, weights):
    """The P > B*m branch of :func:`damped_natural_gradient`; see the module docstring."""
    c = decay / damping
    theta = tangents.ntk()

    def step(y):  # v = c w + J y
        return _plus_decay(tangents.matvec(y), c, weights)

    if gram is None:
        rhs = r.T
    else:
        # K_j, the matrix gram's factor is of, and S = Theta + damping
        # (I_m (x) K_j) with damping K_j on each of the m diagonal B x B
        # blocks; Theta is not needed again, so S is built in its array.
        kj = gram.values.copy()
        kj.flat[:: len(kj) + 1] += gram.jitter * gram.d0
        shift = damping * kj
        batch = len(kj)
        for start in range(0, len(theta), batch):
            theta[start : start + batch, start : start + batch] += shift
        rhs = (kj @ r).T
    if c:
        rhs = rhs - c * tangents.rmatvec_params(weights)
    factor = linalg.cholesky_factor(theta, damping if gram is None else 0.0)

    def solve(b):
        return linalg.solve_from_factor(factor, b.reshape(-1)).reshape(b.shape)

    y = solve(rhs)
    if gram is None:
        return step(y)
    # v_0's residual is J e; J^T v_0 must come from rmatvec, since the
    # algebraically equal K_j^-1 (c J^T w + Theta y) makes e vanish.
    # K_j^-1 runs on the (B, m) transpose.
    e = r.T - damping * y - gram.solve(tangents.rmatvec(step(y)).T).T
    y += solve((kj @ e.T).T)
    return step(y)


def ntk_surrogate_gradient(tangents: Tangents, residual_grads: np.ndarray) -> list:
    """Tangent coefficients of the metric-free surrogate, J r, as per-layer arrays.

    Unlike the projection, :func:`damped_natural_gradient` of the same
    residuals, this applies no inverse metric; the two agree exactly when the
    metric estimate is the identity and disagree otherwise (the surrogate is
    not a projection).  With residual_grads the (B, m) per-sample dL/dz,
    J r is the gradient of the batch sum of the loss, the ntk_surrogate
    step's direction before weight decay.
    """
    return tangents.matvec(_residuals(tangents, residual_grads).T)


def _residuals(tangents: Tangents, residuals) -> np.ndarray:
    """The (B, m) per-sample residuals as float64, or DimensionMismatch."""
    r = np.atleast_2d(np.asarray(residuals, dtype=np.float64))
    if r.shape != (tangents.batch, tangents.output_dim):
        raise DimensionMismatch(
            f"residuals of shape {r.shape} for batch of {tangents.batch} with {tangents.output_dim} outputs"
        )
    return r


def _gaussian_nodes(nodes_per_dim: int):
    x, w = np.polynomial.hermite_e.hermegauss(nodes_per_dim)
    w = w / np.sqrt(2.0 * np.pi)  # normalize to the standard normal density
    return x, w


def _legendre_nodes(nodes_per_dim: int):
    x, w = np.polynomial.legendre.leggauss(nodes_per_dim)
    return x, w / 2.0  # probability measure on [-1, 1] per axis


def exact_pullback_quadrature(
    net: network.MlpNetwork,
    measure: str = "gaussian",
    nodes_per_dim: int = 40,
    box=None,
) -> PullbackMetric:
    """L2 pullback metric of a tiny network by tensor quadrature.

    g_ij = integral of sum_c dphi^c/dtheta_i(x) dphi^c/dtheta_j(x) dmu(x)
    with mu the standard normal (Gauss-Hermite nodes) or the normalized
    uniform measure on a box (Gauss-Legendre nodes).  Restricted to networks
    with at most 12 parameters; the point is a ground-truth oracle, not a
    production path.
    """
    if net.num_params > 12:
        raise BudgetExceeded(f"{net.num_params} parameters exceeds the quadrature limit of 12")
    dim = net.input_dim
    if nodes_per_dim**dim > 200_000:
        raise BudgetExceeded(f"{nodes_per_dim}^{dim} quadrature nodes exceed the budget")
    if measure == "gaussian":
        x1, w1 = _gaussian_nodes(nodes_per_dim)
        axes_x = [x1] * dim
        axes_w = [w1] * dim
    elif measure == "box":
        if box is None:
            raise ValueError("box measure needs (lo, hi) bounds")
        lo = np.asarray(box[0], dtype=np.float64).reshape(-1)
        hi = np.asarray(box[1], dtype=np.float64).reshape(-1)
        x1, w1 = _legendre_nodes(nodes_per_dim)
        axes_x = [(x1 + 1.0) / 2.0 * (hi[d] - lo[d]) + lo[d] for d in range(dim)]
        axes_w = [w1] * dim
    else:
        raise ValueError(f"unknown measure {measure!r}")

    grids = np.meshgrid(*axes_x, indexing="ij")
    points = np.column_stack([g.reshape(-1) for g in grids])
    wgrids = np.meshgrid(*axes_w, indexing="ij")
    weights = np.ones(points.shape[0])
    for wg in wgrids:
        weights *= wg.reshape(-1)

    j = network.param_jacobian(net, points)  # (P, N*m)
    # sqrt(w) is the diagonal whitening of the node weights.
    jw = j.reshape(j.shape[0], points.shape[0], net.output_dim) * np.sqrt(weights)[:, None]
    jw = jw.reshape(j.shape)
    return PullbackMetric(jw @ jw.T)
