"""Riemannian primal and mirror descent on explicit convex problems.

For a convex objective with Euclidean-Lipschitz gradient (constant L) and a
metric g dominating the Euclidean norm, |x - y|_E <= sqrt(C) |x - y|_{g,x},
the primal step and its guaranteed progress are

    Grad(x) = x - (1/CL) g(x)^-1 grad f(x)
    Prog(x) = (1/2CL) grad f(x)^T g(x)^-1 grad f(x)

with per-step decrease f(x_k) - f(x_{k+1}) >= Prog(x_k) and the convex rate
f(x_T) - f* <= 2 L C R^2 / T, R the g-radius of the initial sublevel set.
Mirror descent with the metric's quadratic distance generator and step alpha
is the same map with 1/alpha in place of 1/CL.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import linalg
from .errors import RateViolation

__all__ = [
    "RiemannProblem",
    "grad_step",
    "prog",
    "mirror_step",
    "verify_rate",
    "RateReport",
    "check_compatibility",
    "bregman_quadratic",
]


@dataclass
class RiemannProblem:
    """Convex objective plus an E-compatible metric with certified constants."""

    f: callable
    grad: callable
    metric: callable  # x -> (d, d) SPD array
    lipschitz_L: float
    compat_C: float
    dim: int
    minimizer: np.ndarray = None
    f_min: float = None
    hessian: np.ndarray = None  # constant Hessian of a quadratic objective
    metric_factor: tuple = None  # Cholesky factor of a constant metric; None: factor metric(x) per call

    def metric_at(self, x) -> np.ndarray:
        return np.atleast_2d(np.asarray(self.metric(x), dtype=np.float64))

    @classmethod
    def quadratic(cls, h: np.ndarray, g=None) -> "RiemannProblem":
        """f(x) = 0.5 x^T H x with a constant SPD metric g (None = Euclidean).

        The constants are computed, not assumed: L = lambda_max(H) and
        C = lambda_max(g^-1) = 1 / lambda_min(g).  g is factored here, once.
        """
        h = np.atleast_2d(np.asarray(h, dtype=np.float64))
        dim = h.shape[0]
        g_mat = np.eye(dim) if g is None else np.atleast_2d(np.asarray(g, dtype=np.float64))
        lipschitz = float(np.max(np.linalg.eigvalsh(h)))
        compat = float(1.0 / np.min(np.linalg.eigvalsh(g_mat)))
        return cls(
            f=lambda x: 0.5 * float(x @ h @ x),
            grad=lambda x: h @ x,
            metric=lambda x: g_mat,
            lipschitz_L=lipschitz,
            compat_C=compat,
            dim=dim,
            minimizer=np.zeros(dim),
            f_min=0.0,
            hessian=h,
            metric_factor=linalg.cholesky_factor(g_mat),
        )


def _natural_grad(problem: RiemannProblem, x: np.ndarray) -> np.ndarray:
    factor = problem.metric_factor
    if factor is None:
        factor = linalg.cholesky_factor(problem.metric_at(x))
    return linalg.solve_from_factor(factor, problem.grad(x))


def grad_step(problem: RiemannProblem, x) -> np.ndarray:
    """One primal step x - (1/CL) g^-1 grad f."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    cl = problem.compat_C * problem.lipschitz_L
    return x - (1.0 / cl) * _natural_grad(problem, x)


def prog(problem: RiemannProblem, x) -> float:
    """Guaranteed per-step decrease (1/2CL) |grad^g f|^2_{g,x}."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    cl = problem.compat_C * problem.lipschitz_L
    g = problem.grad(x)
    return float(g @ _natural_grad(problem, x)) / (2.0 * cl)


def mirror_step(problem: RiemannProblem, x, alpha: float) -> np.ndarray:
    """Mirror-descent update for the generator 0.5 |.|^2_{g(x)}.

    The argmin of <grad f(x), y - x> + (alpha/2) |x - y|^2_{g(x)} in closed
    form; with alpha = C L it coincides with grad_step exactly.
    """
    if not alpha > 0:
        raise ValueError("step parameter alpha must be positive")
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    return x - (1.0 / alpha) * _natural_grad(problem, x)


@dataclass
class RateReport:
    steps: int
    gaps: np.ndarray
    bounds: np.ndarray
    radius: float


def _sublevel_radius(problem: RiemannProblem, x0: np.ndarray, n_dirs: int = 512) -> float:
    """g-radius of the initial sublevel set around the minimizer.

    For quadratics (a stored Hessian H) with a constant metric this is exact
    via the generalized eigenproblem g u = lam H u; otherwise the boundary is
    sampled over directions (a slight underestimate in pathological cases).
    """
    v = problem.f(x0) - problem.f_min
    if v <= 0:
        return 0.0
    g0 = problem.metric_at(problem.minimizer)
    g1 = problem.metric_at(problem.minimizer + 1e-3 * np.ones(problem.dim))
    if problem.hessian is not None and np.allclose(g0, g1, rtol=1e-12, atol=1e-12):
        lam = scipy.linalg.eigh(g0, problem.hessian, eigvals_only=True)
        return float(np.sqrt(2.0 * v * np.max(lam)))
    rng = np.random.default_rng(0)
    dirs = rng.normal(size=(n_dirs, problem.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radius = 0.0
    for d in dirs:
        # Scale to the sublevel boundary by bisection on f along the ray.
        t_hi = 1.0
        while problem.f(problem.minimizer + t_hi * d) - problem.f_min < v and t_hi < 1e6:
            t_hi *= 2.0
        t_lo = 0.0
        for _ in range(60):
            t_mid = 0.5 * (t_lo + t_hi)
            if problem.f(problem.minimizer + t_mid * d) - problem.f_min < v:
                t_lo = t_mid
            else:
                t_hi = t_mid
        x = problem.minimizer + t_lo * d
        radius = max(radius, float(np.sqrt((x - problem.minimizer) @ problem.metric_at(x) @ (x - problem.minimizer))))
    return radius


def verify_rate(problem: RiemannProblem, x0, steps: int) -> RateReport:
    """Run Grad steps and assert f(x_T) - f* <= 2 L C R^2 / T for every prefix.

    Requires a problem with a known minimizer.  Raises RateViolation at the
    first offending step.
    """
    if problem.minimizer is None or problem.f_min is None:
        raise ValueError("verify_rate needs a problem with a known minimizer")
    x = np.asarray(x0, dtype=np.float64).reshape(-1)
    radius = _sublevel_radius(problem, x)
    coeff = 2.0 * problem.lipschitz_L * problem.compat_C * radius**2
    slack = 1e-12 * max(1.0, abs(problem.f(x)))
    gaps, bounds = [], []
    for k in range(1, steps + 1):
        x = grad_step(problem, x)
        gap = problem.f(x) - problem.f_min
        bound = coeff / k
        gaps.append(gap)
        bounds.append(bound)
        if gap > bound + slack:
            raise RateViolation(k, gap, bound)
    return RateReport(steps=steps, gaps=np.asarray(gaps), bounds=np.asarray(bounds), radius=radius)


def check_compatibility(problem: RiemannProblem, rng, n_pairs: int = 200, span: float = 2.0):
    """Sampled verification of the E-compatibility and Lipschitz constants.

    Returns (max_compat_ratio, max_lipschitz_ratio); both must be <= 1 for
    the certified constants to be valid on the sampled pairs.
    """
    max_compat, max_lip = 0.0, 0.0
    center = problem.minimizer if problem.minimizer is not None else np.zeros(problem.dim)
    for _ in range(n_pairs):
        x = center + rng.uniform(-span, span, size=problem.dim)
        y = center + rng.uniform(-span, span, size=problem.dim)
        d = x - y
        norm_e = np.linalg.norm(d)
        if norm_e < 1e-12:
            continue
        norm_g = np.sqrt(d @ problem.metric_at(x) @ d)
        max_compat = max(max_compat, norm_e / (np.sqrt(problem.compat_C) * norm_g))
        grad_diff = np.linalg.norm(problem.grad(x) - problem.grad(y))
        max_lip = max(max_lip, grad_diff / (problem.lipschitz_L * norm_e))
    return max_compat, max_lip


def bregman_quadratic(g_a: np.ndarray, x, y) -> float:
    """Bregman divergence of w(z) = 0.5 |z|^2_{g(a)} evaluated from the
    definition w(y) - <grad w(x), y - x> - w(x); equals 0.5 |x - y|^2_{g(a)}."""
    g_a = np.atleast_2d(np.asarray(g_a, dtype=np.float64))
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    w = lambda z: 0.5 * float(z @ g_a @ z)
    grad_w = g_a @ x
    return w(y) - float(grad_w @ (y - x)) - w(x)
