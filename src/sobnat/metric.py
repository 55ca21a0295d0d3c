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
whichever space is smaller.  With P > B*m and damping > 0 it uses the
push-through (Woodbury) identity

    v = (g - J~ (damping I + J~^T J~)^-1 J~^T g) / damping,

a B*m x B*m system that needs J only through products, so neither J nor
any P x P array is formed.  With W = L^-1 (x) I_m the whitening,
J~^T J~ = W Theta W^T, where Theta = J^T J is the empirical tangent
kernel.  Theta is built layer by layer from the forward pass's factors
(:meth:`sobnat.network.Tangents.ntk`),

    Theta = sum_l (Abar_l Abar_l^T) (x) 1_{m x m}  .*  Ds_l Ds_l^T,

and the whitening need not be applied to it.  W^T W = K_j^-1 (x) I_m,
where K_j = K + jitter d(0) I is the matrix the Gram's factor L is of, so
the identity is v = (g - J z) / damping with

    S z = J^T g,    S = Theta + damping (K_j (x) I_m):

kernel ridge regression with the NTK in which the Sobolev Gram takes the
place of the identity.  S is formed from Theta and K_j and factored once;
J^T g and J z are per-layer products with Abar_l and Ds_l, and no
triangular solve touches Theta.  The rounding of the formed Theta is not
shaped like damping K_j, whose condition number is 1e9-1e10 on 50
two-moons points at input scale 20, so on its own v_0 = (g - J z) / damping
is 1.5e-9 to 2.1e-7 off the P x P oracle.  One step of iterative
refinement in kernel space fixes that.  The residual of v_0 is

    g - damping v_0 - J (K_j^-1 (x) I_m) J^T v_0 = J e,
    e = z - (K_j^-1 (x) I_m) J^T v_0,

so the correction is the same solve with J e as the gradient:
z_2 = S^-1 J^T J e = S^-1 Theta e, and v = (g - J (z - e + z_2)) / damping.
J^T v_0 must be taken by :meth:`~sobnat.network.Tangents.rmatvec` and
K_j^-1 as whiten_adjoint(whiten(.)) on the (B, m) array: the algebraically
equal (J^T g - Theta z) / damping makes e vanish identically, and the
refinement would then correct nothing.  The refined step is within 1.8e-11
of the oracle (B = 50, seeds 0-39, [2,16,16,1], [2,16,16,2] and
[2,64,64,2]).  A step makes two rmatvec and two matvec calls, factors S
and whitens only (B, m) arrays; with K = I, S = Theta + damping I and the
first v is the answer.  With P <= B*m, or with damping 0 (the exactness
oracles), where the identity would divide by 0, the step is
natural_gradient on the P x P metric that :func:`estimate_metric` builds:
one private build that whitens the fresh buffer of
:meth:`~sobnat.network.Tangents.matrix` in place and returns J~ J~^T.  A
scalar damping is passed as the diagonal shift of
:func:`sobnat.linalg.cholesky_factor`, not added to a copy beforehand.
A sobolev_dense train step at B = 50 takes 0.44 ms on the desk
[2,16,16,2] net (P = 354) and 0.60 ms on [2,64,64,2] (P = 4482, where
the P x P solve takes about 1.1 s); amari_dense takes 0.28 and 0.39 ms
(medians of 2000 and 1000 steps, one BLAS thread on a 2-core x86 host).
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
    "project_empirical_gradient",
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
        jt = gram._whiten_in_place(jt.reshape(tangents.batch, -1)).reshape(jt.shape)
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
    grad: np.ndarray,
) -> np.ndarray:
    """Solve (damping I + J~ J~^T) v = grad with one factor in the smaller space.

    J~ is the whitened Jacobian of :func:`estimate_metric` (gram=None: K = I),
    given as the :class:`~sobnat.network.Tangents` of a network or of a
    dense J.  With P > B*m and damping > 0 the B*m x B*m system of the
    module docstring is factored and J is never formed; otherwise the
    P x P metric is, and the result equals natural_gradient(estimate_metric(...)).
    """
    p, n = tangents.num_params, tangents.batch * tangents.output_dim
    grad = np.asarray(grad, dtype=np.float64).reshape(-1)
    if grad.shape[0] != p:
        raise DimensionMismatch(f"gradient has length {grad.shape[0]}, metric is {p}")
    if gram is not None and gram.size != tangents.batch:
        raise DimensionMismatch(f"gram has {gram.size} points, batch is {tangents.batch}")
    if damping > 0 and p > n:
        return _kernel_space_solve(tangents, gram, damping, grad)
    return natural_gradient(PullbackMetric(_metric_values(tangents, gram), damping), grad)


def _kernel_space_solve(tangents: Tangents, gram: GramMatrix, damping: float, grad: np.ndarray):
    """The P > B*m branch of :func:`damped_natural_gradient`; see the module docstring."""
    theta = tangents.ntk()
    jg = tangents.rmatvec(grad)
    if gram is None:
        z = linalg.solve_from_factor(linalg.cholesky_factor(theta, damping), jg.reshape(-1))
        return (grad - tangents.matvec(z.reshape(jg.shape))) / damping
    # S = Theta + damping (K_j (x) I_m), K_j the matrix gram's factor is of.
    shift = gram.values.copy()
    shift.flat[:: len(shift) + 1] += gram.jitter * gram.d0
    shift *= damping
    s = theta.copy()
    blocks = s.reshape(jg.shape * 2)  # blocks[a, c, b, e] = S[(a, c), (b, e)]
    for c in range(jg.shape[1]):
        blocks[:, c, :, c] += shift
    factor = linalg.cholesky_factor(s)

    def solve(r):
        return linalg.solve_from_factor(factor, r.reshape(-1)).reshape(jg.shape)

    z = solve(jg)
    v = (grad - tangents.matvec(z)) / damping
    # v's residual is J e; J^T v must come from rmatvec, since the
    # algebraically equal (J^T g - Theta z) / damping makes e vanish.
    e = z - gram.whiten_adjoint(gram.whiten(tangents.rmatvec(v)))
    z_refined = solve(theta @ e.reshape(-1))
    return (grad - tangents.matvec(z - e + z_refined)) / damping


def project_empirical_gradient(
    j: np.ndarray,
    gram: GramMatrix,
    residual_grads: np.ndarray,
    damping: float = 0.0,
) -> np.ndarray:
    """Tangent coefficients of the projected empirical-loss gradient.

    residual_grads holds the per-sample loss gradients dL/dz as a (B, m)
    array.  The coefficients solve (g + damping I) c = J r with the same
    metric estimate as :func:`estimate_metric`; they equal the natural
    gradient of the pulled-back sum loss.
    """
    r = np.atleast_2d(np.asarray(residual_grads, dtype=np.float64))
    tangents = Tangents.of_matrix(j, r.shape[1])
    if r.shape[0] != tangents.batch:
        raise DimensionMismatch(f"{r.shape[0]} residual rows for batch of {tangents.batch}")
    return damped_natural_gradient(tangents, gram, damping, tangents.matvec(r))


def ntk_surrogate_gradient(tangents: Tangents, residual_grads: np.ndarray) -> np.ndarray:
    """Tangent coefficients of the metric-free surrogate, J r.

    Unlike the projection this applies no inverse metric; it agrees with
    :func:`project_empirical_gradient` exactly when the tangent Gram is the
    identity and disagrees otherwise (the surrogate is not a projection).
    """
    r = np.atleast_2d(np.asarray(residual_grads, dtype=np.float64))
    if r.shape != (tangents.batch, tangents.output_dim):
        raise DimensionMismatch(
            f"residuals of shape {r.shape} for batch of {tangents.batch} with {tangents.output_dim} outputs"
        )
    return tangents.matvec(r)


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
