"""Riemannian primal and mirror descent on convex quadratics with a constant
E-compatible metric; the sublevel radius is exact.

For f(x) = 0.5 x^T H x (gradient Lipschitz with L = lambda_max(H), minimizer
0, f* = 0) and an SPD metric g with |x - y|_E <= sqrt(C) |x - y|_g, the
primal step and its guaranteed progress are

    Grad(x) = x - (1/CL) g^-1 grad f(x)
    Prog(x) = (1/2CL) grad f(x)^T g^-1 grad f(x)

with per-step decrease f(x_k) - f(x_{k+1}) >= Prog(x_k) and the convex rate
f(x_T) <= 2 L C R^2 / T, R the g-radius of the initial sublevel set.  Mirror
descent with the generator 0.5 |.|^2_g and step alpha is the same map with
1/alpha in place of 1/CL.

A descent runs once, as the stack of its iterates x_0..x_T (:func:`descend`);
f, Prog and the rate bound are then taken over the whole stack in a few
array operations, and :func:`grad_step` stays the only step.
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
    "descend",
    "verify_rate",
    "RateReport",
    "check_compatibility",
    "bregman_quadratic",
]


@dataclass
class RiemannProblem:
    """f(x) = 0.5 x^T H x with a constant SPD metric g and certified constants."""

    hessian: np.ndarray
    metric: np.ndarray
    metric_factor: np.ndarray  # lower Cholesky factor of metric
    lipschitz_L: float
    compat_C: float

    @property
    def dim(self) -> int:
        return len(self.hessian)

    def f(self, x):
        """f at one point (a float), or at each row of a stack (an array)."""
        x = np.asarray(x, dtype=np.float64)
        value = 0.5 * np.einsum("...i,ij,...j->...", x, self.hessian, x)
        return value if x.ndim == 2 else float(value)

    def grad(self, x) -> np.ndarray:
        return self.hessian @ x

    @classmethod
    def quadratic(cls, h: np.ndarray, g=None) -> "RiemannProblem":
        """f(x) = 0.5 x^T H x with a constant SPD metric g (None = Euclidean).

        The constants are computed, not assumed: L = lambda_max(H) and
        C = lambda_max(g^-1) = 1 / lambda_min(g).  g is factored here, once.
        """
        h = np.atleast_2d(np.asarray(h, dtype=np.float64))
        g_mat = np.eye(len(h)) if g is None else np.atleast_2d(np.asarray(g, dtype=np.float64))
        return cls(
            hessian=h,
            metric=g_mat,
            metric_factor=linalg.cholesky_factor(g_mat),
            lipschitz_L=float(np.max(np.linalg.eigvalsh(h))),
            compat_C=float(1.0 / np.min(np.linalg.eigvalsh(g_mat))),
        )


def _natural_grad(problem: RiemannProblem, x: np.ndarray) -> np.ndarray:
    return linalg.solve_from_factor(problem.metric_factor, problem.grad(x))


def grad_step(problem: RiemannProblem, x) -> np.ndarray:
    """One primal step x - (1/CL) g^-1 grad f."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    cl = problem.compat_C * problem.lipschitz_L
    return x - (1.0 / cl) * _natural_grad(problem, x)


def prog(problem: RiemannProblem, x):
    """Guaranteed per-step decrease (1/2CL) |grad^g f|^2_g at one point (a
    float), or at each row of a stack (an array, from one solve)."""
    x = np.asarray(x, dtype=np.float64)
    cl = problem.compat_C * problem.lipschitz_L
    grads = problem.grad(x.reshape(-1, problem.dim).T)  # one column per point
    nat = linalg.solve_from_factor(problem.metric_factor, grads)
    value = np.einsum("ik,ik->k", grads, nat) / (2.0 * cl)
    return value if x.ndim == 2 else float(value[0])


def mirror_step(problem: RiemannProblem, x, alpha: float) -> np.ndarray:
    """Mirror-descent update for the generator 0.5 |.|^2_g.

    The argmin of <grad f(x), y - x> + (alpha/2) |x - y|^2_g in closed
    form; with alpha = C L it coincides with grad_step exactly.
    """
    if not alpha > 0:
        raise ValueError("step parameter alpha must be positive")
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    return x - (1.0 / alpha) * _natural_grad(problem, x)


def descend(problem: RiemannProblem, x0, steps: int) -> np.ndarray:
    """The (steps+1, d) iterates x_0..x_T of the primal descent from x0,
    each row the grad_step of the row before."""
    xs = np.empty((steps + 1, problem.dim))
    xs[0] = np.asarray(x0, dtype=np.float64).reshape(-1)
    for k in range(steps):
        xs[k + 1] = grad_step(problem, xs[k])
    return xs


@dataclass
class RateReport:
    steps: int
    gaps: np.ndarray  # f(x_T) - f* for T = 1..steps
    bounds: np.ndarray  # 2 L C R^2 / T
    radius: float
    iterates: np.ndarray  # x_0..x_T, one row each


def _sublevel_radius(problem: RiemannProblem, f0: float) -> float:
    """g-radius of the sublevel set {f <= f0} around the minimizer 0.

    The set is the ellipsoid x^T H x <= 2 f0, on which x^T g x peaks at
    2 f0 times the largest eigenvalue of g u = lam H u.
    """
    if f0 <= 0:
        return 0.0
    lam = scipy.linalg.eigh(problem.metric, problem.hessian, eigvals_only=True)
    return float(np.sqrt(2.0 * f0 * np.max(lam)))


def verify_rate(problem: RiemannProblem, x0, steps: int) -> RateReport:
    """Descend from x0 and assert f(x_T) - f* <= 2 L C R^2 / T for every prefix.

    Raises RateViolation at the first offending step.
    """
    iterates = descend(problem, x0, steps)
    values = problem.f(iterates)
    f0, gaps = float(values[0]), values[1:]
    radius = _sublevel_radius(problem, f0)
    bounds = 2.0 * problem.lipschitz_L * problem.compat_C * radius**2 / np.arange(1, steps + 1)
    over = np.flatnonzero(gaps > bounds + 1e-12 * max(1.0, abs(f0)))
    if over.size:
        k = over[0]
        raise RateViolation(int(k) + 1, float(gaps[k]), float(bounds[k]))
    return RateReport(steps=steps, gaps=gaps, bounds=bounds, radius=radius, iterates=iterates)


def check_compatibility(problem: RiemannProblem, rng, n_pairs: int = 200, span: float = 2.0):
    """Sampled verification of the E-compatibility and Lipschitz constants.

    Pairs are drawn from the cube of half-width span around the minimizer.
    Returns (max_compat_ratio, max_lipschitz_ratio); both must be <= 1 for
    the certified constants to be valid on the sampled pairs.
    """
    max_compat, max_lip = 0.0, 0.0
    for _ in range(n_pairs):
        x = rng.uniform(-span, span, size=problem.dim)
        y = rng.uniform(-span, span, size=problem.dim)
        d = x - y
        norm_e = np.linalg.norm(d)
        if norm_e < 1e-12:
            continue
        norm_g = np.sqrt(d @ problem.metric @ d)
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
