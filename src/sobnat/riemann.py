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
array operations.  On a quadratic the step is the fixed linear map
T = I - rate g^-1 H; :func:`grad_step`, :func:`mirror_step` and
:func:`descend` share one private step map that forms T from one solve with
the metric's Cholesky factor, d right-hand sides, with no inverse of g.  A
descent forms T once and writes each row with one call of T's bound
``ndarray.dot`` into the next row of the stack, so each row is the
grad_step of the row before, bit for bit, at one call per row.  T is
formed per call, not cached on the problem, since its constants are
settable fields.  The sublevel radius takes the generalized eigenvalues of
(g, H) from one LAPACK ``dsygvd`` call, the routine scipy.linalg.eigh calls
for them, without its wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import linalg
from .errors import NotPositiveDefinite, RateViolation

__all__ = [
    "RiemannProblem",
    "grad_step",
    "prog",
    "mirror_step",
    "descend",
    "verify_rate",
    "RateReport",
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
        A non-finite entry of H or g, which eigvalsh would turn into NaN
        constants, raises ValueError naming it.
        """
        h = np.atleast_2d(np.asarray(h, dtype=np.float64))
        g_mat = np.eye(len(h)) if g is None else np.atleast_2d(np.asarray(g, dtype=np.float64))
        _check_finite(h, g_mat)
        return cls(
            hessian=h,
            metric=g_mat,
            metric_factor=linalg.cholesky_factor(g_mat),
            lipschitz_L=float(np.max(np.linalg.eigvalsh(h))),
            compat_C=float(1.0 / np.min(np.linalg.eigvalsh(g_mat))),
        )


def _check_finite(hessian: np.ndarray, metric: np.ndarray) -> None:
    """Raise ValueError naming the first non-finite entry of H, then of g."""
    for name, a in (("hessian", hessian), ("metric", metric)):
        finite = np.isfinite(a)
        if not finite.all():
            i, j = np.unravel_index(np.argmin(finite), a.shape)  # the first False
            raise ValueError(f"{name} entry ({i}, {j}) is not finite")


def _step_map(problem: RiemannProblem, rate: float) -> np.ndarray:
    """The step matrix T = I - rate g^-1 H, from one solve with the metric's
    factor; a step from x is T.dot(x)."""
    return np.eye(problem.dim) - rate * linalg.solve_from_factor(problem.metric_factor, problem.hessian)


def grad_step(problem: RiemannProblem, x) -> np.ndarray:
    """One primal step x - (1/CL) g^-1 grad f.

    Each call forms the whole d x d step map; :func:`descend` is the path
    for many steps, forming it once."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    return _step_map(problem, 1.0 / (problem.compat_C * problem.lipschitz_L)).dot(x)


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
    form; with alpha = C L it coincides with grad_step exactly.  Like
    grad_step, each call forms the whole d x d step map.
    """
    if not alpha > 0:
        raise ValueError("step parameter alpha must be positive")
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    return _step_map(problem, 1.0 / alpha).dot(x)


def descend(problem: RiemannProblem, x0, steps: int) -> np.ndarray:
    """The (steps+1, d) iterates x_0..x_T of the primal descent from x0,
    each row the grad_step of the row before, bit for bit; the step map is
    formed once, not per row, and each row is one call of its bound dot."""
    xs = np.empty((steps + 1, problem.dim))
    xs[0] = np.asarray(x0, dtype=np.float64).reshape(-1)
    step = _step_map(problem, 1.0 / (problem.compat_C * problem.lipschitz_L)).dot
    rows = list(xs)  # views of the rows, split once
    for row, nxt in zip(rows, rows[1:]):
        step(row, out=nxt)
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
    2 f0 times the largest eigenvalue of g u = lam H u.  Raises ValueError
    naming the first non-finite entry of H or g, and NotPositiveDefinite
    naming the leading minor of H that is not positive definite.
    """
    _check_finite(problem.hessian, problem.metric)  # they are settable fields
    if f0 <= 0:
        return 0.0
    lam, _, info = scipy.linalg.lapack.dsygvd(
        problem.metric, problem.hessian, itype=1, jobz="N", uplo="L"
    )
    if info > problem.dim:
        raise NotPositiveDefinite(
            f"leading minor of order {info - problem.dim} of the hessian is not positive definite"
        )
    if info != 0:
        raise np.linalg.LinAlgError(f"sygvd failed with info {info}")
    return float(np.sqrt(2.0 * f0 * np.max(lam)))


def verify_rate(problem: RiemannProblem, x0, steps: int) -> RateReport:
    """Descend from x0 and assert f(x_T) - f* <= 2 L C R^2 / T for every prefix.

    Raises RateViolation at the first offending step, and what the sublevel
    radius raises: NotPositiveDefinite for an H that is not positive
    definite, ValueError for a non-finite entry of H or g.
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

