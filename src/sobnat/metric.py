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

a B*m x B*m system, and no P x P array is formed.  With P <= B*m, or with
damping 0 (the exactness oracles), where the identity would divide by 0, it
factors the P x P system, exactly as natural_gradient(estimate_metric(...)).
On the [2,64,64,2] net at B = 50 (P = 4482, B*m = 100) this takes a
sobolev_dense train step from about 1.1 s to 15 ms (one BLAS thread on a
2-core x86 host).
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

__all__ = [
    "PullbackMetric",
    "estimate_metric",
    "natural_gradient",
    "damped_natural_gradient",
    "project_empirical_gradient",
    "ntk_kernel",
    "ntk_surrogate_gradient",
    "exact_pullback_quadrature",
]

RKHS_PROJECTED = "rkhs_projected"
GAUSS_NEWTON = "gauss_newton"
EXACT_QUADRATURE = "exact_quadrature"


@dataclass
class PullbackMetric:
    """Symmetric PSD metric on parameter space plus Tikhonov damping."""

    values: np.ndarray
    damping: float = 0.0
    provenance: str = RKHS_PROJECTED

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def damped(self) -> np.ndarray:
        out = self.values.copy()
        out[np.diag_indices(self.dim)] += self.damping
        return out


def _reshape_jacobian(j: np.ndarray, output_dim: int):
    j = np.asarray(j, dtype=np.float64)
    if j.ndim != 2:
        raise DimensionMismatch("jacobian must be a (P, B*m) matrix")
    if j.shape[1] % output_dim != 0:
        raise DimensionMismatch(
            f"jacobian has {j.shape[1]} columns, not a multiple of output_dim={output_dim}"
        )
    batch = j.shape[1] // output_dim
    return j, j.reshape(j.shape[0], batch, output_dim), batch


def _whitened_transpose(j: np.ndarray, output_dim: int, gram: GramMatrix) -> np.ndarray:
    """J~^T as a (B*m, P) array; gram=None (K = I) leaves J^T unwhitened."""
    j, _, batch = _reshape_jacobian(j, output_dim)
    jt = j.T  # (B*m, P), row b*m + c holds dphi^c(x_b)/dtheta
    if gram is not None:
        if gram.size != batch:
            raise DimensionMismatch(f"gram has {gram.size} points, batch is {batch}")
        # Column block c of the (B, m*P) reshape is J_c^T; one solve whitens all m.
        jt = gram.whiten(jt.reshape(batch, -1)).reshape(jt.shape)
    return jt


def estimate_metric(
    j: np.ndarray,
    output_dim: int,
    gram: GramMatrix = None,
    damping: float = 0.0,
) -> PullbackMetric:
    """Batch estimate of the pullback metric from a (P, B*m) Jacobian.

    gram=None selects K = I, in which case the result is exactly J @ J.T.
    """
    jt = _whitened_transpose(j, output_dim, gram)
    provenance = GAUSS_NEWTON if gram is None else RKHS_PROJECTED
    return PullbackMetric(jt.T @ jt, damping=damping, provenance=provenance)


def natural_gradient(metric: PullbackMetric, euclid_grad: np.ndarray) -> np.ndarray:
    """Solve (g + damping I) v = euclid_grad."""
    grad = np.asarray(euclid_grad, dtype=np.float64).reshape(-1)
    if grad.shape[0] != metric.dim:
        raise DimensionMismatch(f"gradient has length {grad.shape[0]}, metric is {metric.dim}")
    return linalg.cholesky_solve(metric.damped(), grad)


def damped_natural_gradient(
    j: np.ndarray,
    output_dim: int,
    gram: GramMatrix,
    damping: float,
    grad: np.ndarray,
) -> np.ndarray:
    """Solve (damping I + J~ J~^T) v = grad with one factor in the smaller space.

    J~ is the whitened Jacobian of :func:`estimate_metric` (gram=None: K = I).
    With P > B*m and damping > 0 the B*m x B*m Gram of J~ is factored (the
    push-through identity of the module docstring); otherwise the P x P
    metric is, and the result equals natural_gradient(estimate_metric(...)).
    """
    jt = _whitened_transpose(j, output_dim, gram)
    n, p = jt.shape
    grad = np.asarray(grad, dtype=np.float64).reshape(-1)
    if grad.shape[0] != p:
        raise DimensionMismatch(f"gradient has length {grad.shape[0]}, metric is {p}")
    kernel_space = damping > 0 and p > n
    a = jt @ jt.T if kernel_space else jt.T @ jt
    a[np.diag_indices(a.shape[0])] += damping
    factor = linalg.cholesky_factor(a)
    if kernel_space:
        return (grad - jt.T @ linalg.solve_from_factor(factor, jt @ grad)) / damping
    return linalg.solve_from_factor(factor, grad)


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
    j, _, batch = _reshape_jacobian(j, np.atleast_2d(residual_grads).shape[1])
    r = np.atleast_2d(np.asarray(residual_grads, dtype=np.float64))
    if r.shape[0] != batch:
        raise DimensionMismatch(f"{r.shape[0]} residual rows for batch of {batch}")
    return damped_natural_gradient(j, r.shape[1], gram, damping, j @ r.reshape(-1))


def ntk_kernel(j: np.ndarray, a: int, b: int, output_dim: int) -> np.ndarray:
    """Empirical tangent kernel Theta(x_a, x_b) = sum_i dphi_i(x_a) (x) dphi_i(x_b)."""
    _, j3, batch = _reshape_jacobian(j, output_dim)
    if not (0 <= a < batch and 0 <= b < batch):
        raise DimensionMismatch("sample index out of range")
    return j3[:, a, :].T @ j3[:, b, :]


def ntk_surrogate_gradient(j: np.ndarray, residual_grads: np.ndarray) -> np.ndarray:
    """Tangent coefficients of the metric-free surrogate, J r.

    Unlike the projection this applies no inverse metric; it agrees with
    :func:`project_empirical_gradient` exactly when the tangent Gram is the
    identity and disagrees otherwise (the surrogate is not a projection).
    """
    r = np.atleast_2d(np.asarray(residual_grads, dtype=np.float64))
    j, _, batch = _reshape_jacobian(j, r.shape[1])
    if r.shape[0] != batch:
        raise DimensionMismatch(f"{r.shape[0]} residual rows for batch of {batch}")
    return j @ r.reshape(-1)


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
    return PullbackMetric(jw @ jw.T, provenance=EXACT_QUADRATURE)
