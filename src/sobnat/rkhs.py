"""RKHS function arithmetic: kernel expansions, functional gradient descent,
inner products, projected kernels, and the basis-orthonormality check.

Functions are stored in representer form only -- a list of centers x_t with
one coefficient vector per center, evaluating to

    f(x) = sum_t d(|x - x_t|) * coeffs[t].

Functional gradient descent keeps iterates in this class exactly: each step
appends the visited point as a new center.  Since every center is one of the
n data points, f_{t-1}(x_t) = K[i_t] W exactly, where K is the data points'
kernel table and W[i] the sum of the coefficients appended at point i; the
step reads K's rows from a cache filled in blocks, so a run costs
O(steps * visits * n) kernel evaluations rather than one table against all
earlier centers per step.  Every kernel value comes from
:func:`sobnat.kernel.kernel_matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, losses
from .errors import DimensionMismatch, SingularProbeSet
from .kernel import PROFILE_BLOCK, KernelSpec, kernel_matrix

__all__ = [
    "KernelExpansion",
    "evaluate",
    "evaluate_batch",
    "functional_gd",
    "rkhs_inner",
    "check_basis_orthonormality",
    "projection_kernel",
]


@dataclass(frozen=True)
class KernelExpansion:
    """An RKHS function sum_t d(|x - x_t|) c_t with values in R^m."""

    spec: KernelSpec
    centers: np.ndarray  # (T, n)
    coeffs: np.ndarray  # (T, m)

    def __post_init__(self):
        centers = np.atleast_2d(np.asarray(self.centers, dtype=np.float64))
        coeffs = np.atleast_2d(np.asarray(self.coeffs, dtype=np.float64))
        if centers.size == 0:
            centers = centers.reshape(0, self.spec.input_dim)
        if coeffs.size == 0:
            coeffs = coeffs.reshape(0, max(coeffs.shape[-1] if coeffs.ndim else 1, 1))
        if centers.shape[0] != coeffs.shape[0]:
            raise DimensionMismatch(
                f"{centers.shape[0]} centers but {coeffs.shape[0]} coefficient rows"
            )
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def output_dim(self) -> int:
        return self.coeffs.shape[1]

    @classmethod
    def zero(cls, spec: KernelSpec, output_dim: int) -> "KernelExpansion":
        return cls(spec, np.zeros((0, spec.input_dim)), np.zeros((0, output_dim)))

    def __call__(self, x) -> np.ndarray:
        return evaluate(self, x)


def evaluate(f: KernelExpansion, x) -> np.ndarray:
    """Evaluate the expansion at a single point; returns an m-vector."""
    return evaluate_batch(f, np.asarray(x, dtype=np.float64).reshape(1, -1))[0]


def evaluate_batch(f: KernelExpansion, xs) -> np.ndarray:
    """Evaluate the expansion at each row of xs; returns an (N, m) array.

    The result is filled in row blocks whose kernel table against the
    centers holds at most max(PROFILE_BLOCK, T) entries, so memory does not
    grow as N * T.  Raises DimensionMismatch when the rows are not of width
    spec.input_dim.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    if xs.shape[1] != f.spec.input_dim:
        raise DimensionMismatch(
            f"points have dimension {xs.shape[1]}, spec.input_dim is {f.spec.input_dim}"
        )
    out = np.empty((len(xs), f.output_dim))
    rows = max(1, PROFILE_BLOCK // max(len(f.centers), 1))
    for start in range(0, len(xs), rows):
        block = xs[start : start + rows]
        out[start : start + rows] = kernel_matrix(block, f.centers, f.spec) @ f.coeffs
    return out


def functional_gd(
    xs,
    ys,
    loss: str,
    steps: int,
    lr,
    spec: KernelSpec,
    mode: str = "cyclic",
) -> KernelExpansion:
    """Gradient descent in the RKHS starting from f_0 = 0.

    Each step evaluates the loss gradient at the current iterate and appends
    the visited point(s) as centers with coefficient -eta_t * dL/dz, so after
    T steps f_T(x) = -sum_t eta_t d(|x_t - x|) dL/dz(f_{t-1}(x_t), y_t).

    ``mode`` is "cyclic" (one data point per step, cycling through the set,
    the form stated for a stream of samples) or "full_batch" (every step
    touches all points at once).  ``lr`` is a float or a callable step -> eta.
    ``xs`` holds n points of width spec.input_dim and ``ys`` one target row
    (or class label) per point; malformed input raises DimensionMismatch, a
    negative step count or a class label that is not a non-negative integer
    ValueError.

    The centers are the visited data points, so with W[i] the sum of the
    coefficients appended so far at point i, f_{t-1}(x_t) = K[i_t] W for
    K = kernel_matrix(xs, xs, spec).  Each step takes its iterate values
    from cached rows of K: blocks of at most PROFILE_BLOCK entries (all n
    rows in full-batch mode), re-taken only when a visit leaves them, and in
    the first pass only against the points they can have seen.  A run costs
    O(steps * visits * n) kernel evaluations, not O(steps^2 * visits^2).
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    ys = np.asarray(ys, dtype=np.float64)
    if loss == losses.SQUARED:
        if ys.ndim == 1:
            ys = ys.reshape(-1, 1)
        output_dim = ys.shape[1]
    else:  # class labels
        bad = np.flatnonzero(~(np.isfinite(ys) & (ys >= 0) & (np.floor(ys) == ys)))
        if bad.size:
            row = np.unravel_index(bad[0], ys.shape)[0]
            raise ValueError(
                f"class label {ys.flat[bad[0]]:g} in row {row} is not a non-negative integer"
            )
        output_dim = int(np.max(ys)) + 1 if ys.size else 1
    if mode not in ("cyclic", "full_batch"):
        raise ValueError(f"unknown mode {mode!r}")
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    n = xs.shape[0]
    if xs.shape[1] != spec.input_dim:
        raise DimensionMismatch(
            f"points have dimension {xs.shape[1]}, spec.input_dim is {spec.input_dim}"
        )
    if ys.shape[0] != n:
        raise DimensionMismatch(f"{n} points but {ys.shape[0]} targets")
    if n == 0 and steps > 0:
        raise DimensionMismatch(f"{steps} steps over an empty set of points")

    eta = lr if callable(lr) else (lambda t: lr)
    visits = 1 if mode == "cyclic" else n
    block = n if mode == "full_batch" else max(1, PROFILE_BLOCK // max(n, 1))
    # The visits continue cyclically through the points, step after step.
    centers = xs[np.arange(steps * visits) % n]
    coeffs = np.empty((steps * visits, output_dim))
    w = np.zeros((min(n, steps * visits), output_dim))  # over the points the run visits
    table, first, last, seen = None, 0, 0, w  # table = K[first:last, :len(seen)]
    for t in range(steps):
        done = t * visits
        start = done % n
        stop = start + visits
        if not first <= start < last:
            first = start - start % block
            last = min(len(w), first + block)
            # In the first pass no point from last on has a coefficient yet.
            seen = w[:last] if done < n else w
            table = kernel_matrix(xs[first:last], xs[: len(seen)], spec)
        z = table[start - first : stop - first] @ seen
        step = -eta(t) * losses.loss_grad_z(z, ys[start:stop], loss)
        coeffs[done : done + visits] = step
        w[start:stop] += step
    return KernelExpansion(spec, centers, coeffs)


def rkhs_inner(f: KernelExpansion, g: KernelExpansion) -> float:
    """RKHS inner product, summed over output components.

    <f, g> = sum_{a,b} d(|x_a - x'_b|) (c_a . c'_b) by the reproducing
    property applied to both expansions.
    """
    if f.output_dim != g.output_dim:
        raise DimensionMismatch("expansions have different output dimensions")
    k = kernel_matrix(f.centers, g.centers, f.spec)
    return float(np.sum(k * (f.coeffs @ g.coeffs.T)))


def _basis_matrix(basis, probes) -> np.ndarray:
    """Stack basis values at probes into M[(probe, comp), i] = b_i(p)."""
    probes = np.atleast_2d(np.asarray(probes, dtype=np.float64))
    columns = []
    for b in basis:
        vals = np.asarray([np.atleast_1d(np.asarray(b(p), dtype=np.float64)) for p in probes])
        columns.append(vals.reshape(-1))
    return np.column_stack(columns)


def check_basis_orthonormality(basis, probes, rcond: float = 1e-10) -> np.ndarray:
    """Gram of a basis under the kernel the basis itself induces.

    For K(x, x') = sum_i b_i(x) (x) b_i(x'), every basis of the spanned space
    is orthonormal in the induced RKHS, so the returned Gram must be the
    identity.  Representer coefficients are recovered by least squares over
    the probe set; the probes only need to expose linear independence.

    Raises SingularProbeSet when they do not.
    """
    m = _basis_matrix(basis, probes)  # (mP, D)
    dim = m.shape[1]
    u, sing, _ = np.linalg.svd(m, full_matrices=False)
    if sing.shape[0] < dim or sing[-1] <= rcond * max(sing[0], 1.0):
        raise SingularProbeSet(
            f"basis of dimension {dim} has numerical rank "
            f"{int(np.sum(sing > rcond * max(sing[0], 1.0)))} over the probe set"
        )
    # G = M M^T is the probe Gram of {K(p, .)}; coefficients C solve G C = M,
    # and the RKHS Gram is M^T C = M^T G^+ M = W^T W with W = S^-1 U^T M,
    # the numerically stable factorization of the least-squares solve.
    w = (u.T @ m) / sing[:, None]
    return w.T @ w


def projection_kernel(jac_x: np.ndarray, jac_xp: np.ndarray, metric: np.ndarray) -> np.ndarray:
    """Projected reproducing kernel K_f(x, x') of the tangent space.

    jac_x, jac_xp hold the tangent basis values at the two points as (P, m)
    arrays (row i = dphi/dtheta_i evaluated there); metric is the SPD metric
    G~ in the same inner product.  Returns the (m, m) matrix

        K_f(x, x')_{cd} = (G~^-1)^{ij} dphi^c/dtheta_i(x) dphi^d/dtheta_j(x'),

    solving with G~'s Cholesky factor rather than forming its inverse.
    Raises NotPositiveDefinite when the metric is not SPD.
    """
    jac_x = np.atleast_2d(np.asarray(jac_x, dtype=np.float64))
    jac_xp = np.atleast_2d(np.asarray(jac_xp, dtype=np.float64))
    g = np.atleast_2d(np.asarray(metric, dtype=np.float64))
    p = g.shape[0]
    if g.shape[0] != g.shape[1]:
        raise DimensionMismatch("metric must be square")
    if jac_x.shape[0] != p or jac_xp.shape[0] != p:
        raise DimensionMismatch(
            f"tangent values have {jac_x.shape[0]}/{jac_xp.shape[0]} rows, metric is {p}x{p}"
        )
    return jac_x.T @ linalg.solve_from_factor(linalg.cholesky_factor(g), jac_xp)
