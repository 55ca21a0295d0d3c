"""Closed-form Sobolev reproducing kernel and Gram-matrix assembly.

The kernel of the order-(n+3) Sobolev space on R^n has the radial profile

    d(r) = C_n * exp(-r) * (1 + r),

the inverse Fourier transform of (1 + |xi|^2)^(-(n+3)/2).  Only this order is
supported; other orders have different closed forms and are rejected rather
than silently approximated.

The dimension constant C_n is exposed in two modes.  ``unit_constant``
(the default) sets C_n = 1: the constant only rescales the metric, which the
learning rate absorbs, and unit scaling keeps Gram matrices well conditioned.
``exact_dimension_constant`` evaluates the residue-calculus constants:
1/4 for n = 1 (the one-dimensional contour integral is self-contained),
(n-1)! / (pi^((n+1)/2) * 2^(n+4)) for odd n >= 3, and the even-n product
formula otherwise.

Every kernel-weighted average ``X^T K^-1 Y`` is taken as the Gram product
``(L^-1 X)^T (L^-1 Y)`` of arrays whitened by the cached Cholesky factor
``K = L L^T`` (:meth:`GramMatrix.whiten`); no ``K^-1`` is ever formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import linalg
from .errors import DegenerateGram, DimensionMismatch, NotPositiveDefinite, UnsupportedOrder

__all__ = ["KernelSpec", "GramMatrix", "dimension_constant", "point_kernel", "gram"]

UNIT_CONSTANT = "unit_constant"
EXACT_CONSTANT = "exact_dimension_constant"

def dimension_constant(n: int) -> float:
    """Closed-form constant C_n for the order-(n+3) kernel on R^n."""
    if n < 1:
        raise ValueError("input dimension must be >= 1")
    if n == 1:
        # One-dimensional residue formula at A = s/2 = 2: binom(2,1) / 2^3.
        return 0.25
    if n % 2 == 1:
        return math.factorial(n - 1) / (math.pi ** ((n + 1) / 2.0) * 2.0 ** (n + 4))
    # Even n: product over b = 1..n/2-1 of ((n+3)/2 - b), times (n-1)!,
    # divided by pi^(n/2+1) 6! (2n-2)!, with the 2^(n/2+5) (3!)^2 prefactor.
    prod = 1.0
    for b in range(1, n // 2):
        prod *= (n + 3) / 2.0 - b
    num = 2.0 ** (n // 2 + 5) * 36.0 * prod * math.factorial(n - 1)
    den = math.pi ** (n // 2 + 1) * 720.0 * math.factorial(2 * n - 2)
    return num / den


@dataclass(frozen=True)
class KernelSpec:
    """Parameters of the Sobolev kernel on R^n.

    input_scale is the down-scaling divisor applied to raw inputs before
    distances are taken (default 20); callers of :func:`gram` are expected to
    have divided their points already.
    """

    input_dim: int
    sobolev_order: int = 0  # 0 means "default to input_dim + 3"
    constant_mode: str = UNIT_CONSTANT
    input_scale: float = 20.0
    jitter: float = 1e-8

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.sobolev_order == 0:
            object.__setattr__(self, "sobolev_order", self.input_dim + 3)
        if self.sobolev_order != self.input_dim + 3:
            raise UnsupportedOrder(
                f"closed form requires s = n + 3 = {self.input_dim + 3}, "
                f"got s = {self.sobolev_order}"
            )
        if self.constant_mode not in (UNIT_CONSTANT, EXACT_CONSTANT):
            raise ValueError(f"unknown constant_mode {self.constant_mode!r}")
        if not self.input_scale > 0:
            raise ValueError("input_scale must be positive")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")

    @property
    def constant(self) -> float:
        if self.constant_mode == UNIT_CONSTANT:
            return 1.0
        return dimension_constant(self.input_dim)


def point_kernel(r, spec: KernelSpec):
    """Radial kernel value C_n e^{-r} (1 + r) at distance r >= 0."""
    r_arr = np.asarray(r, dtype=np.float64)
    if np.any(r_arr < 0):
        raise ValueError("distance must be non-negative")
    value = spec.constant * np.exp(-r_arr) * (1.0 + r_arr)
    return float(value) if np.isscalar(r) or r_arr.ndim == 0 else value


@dataclass
class GramMatrix:
    """Kernel Gram matrix over a batch of (already scaled) points.

    ``values`` holds the pure kernel evaluations (diagonal exactly d(0));
    the cached Cholesky factor L is of values + jitter*d(0)*I, where
    ``jitter`` is the effective value after any escalation.
    """

    points: np.ndarray
    values: np.ndarray
    jitter: float
    spec: KernelSpec
    _factor: tuple = field(repr=False, default=None)

    @property
    def size(self) -> int:
        return self.values.shape[0]

    @property
    def d0(self) -> float:
        return point_kernel(0.0, self.spec)

    def whiten(self, b: np.ndarray) -> np.ndarray:
        """L^-1 b, so that whiten(b)^T whiten(c) = b^T (K + jitter*d(0)*I)^-1 c."""
        # X L^T = b^T on b^T, which is Fortran-ordered for a C-ordered b: the
        # right-side TRSM needs no layout copy.
        bt = np.reshape(b, (len(b), -1)).T
        x = scipy.linalg.blas.dtrsm(1.0, self._factor[0], bt, side=1, lower=1, trans_a=1)
        return x.T.reshape(np.shape(b))

    def scaled(self, c: float) -> "GramMatrix":
        """Gram matrix with every kernel entry multiplied by c > 0."""
        if not c > 0:
            raise ValueError("scale must be positive")
        scaled_values = self.values * c
        damped = scaled_values + (self.jitter * self.d0 * c) * np.eye(self.size)
        factor = linalg.cholesky_factor(damped)
        out = GramMatrix(self.points, scaled_values, self.jitter, self.spec)
        out._factor = factor
        return out


def gram(points, spec: KernelSpec) -> GramMatrix:
    """Assemble and factor the Gram matrix K[a, b] = d(|x_a - x_b|).

    Points must already be divided by spec.input_scale.  jitter * d(0) is
    added to the diagonal before factoring; on failure the jitter is
    escalated tenfold up to three times before DegenerateGram is raised
    (duplicate points at excessive batch size).
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.shape[0] < 1:
        raise DimensionMismatch("need at least one point")
    if pts.shape[1] != spec.input_dim:
        raise DimensionMismatch(
            f"points have dimension {pts.shape[1]}, spec.input_dim is {spec.input_dim}"
        )
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    values = point_kernel(dist, spec)  # bitwise symmetric: |x_a - x_b| == |x_b - x_a|
    d0 = point_kernel(0.0, spec)
    np.fill_diagonal(values, d0)

    jitter = spec.jitter
    for _ in range(4):  # initial attempt plus three escalations
        try:
            factor = linalg.cholesky_factor(values + jitter * d0 * np.eye(pts.shape[0]))
        except NotPositiveDefinite:
            jitter *= 10.0
            continue
        out = GramMatrix(points=pts, values=values, jitter=jitter, spec=spec)
        out._factor = factor
        return out
    raise DegenerateGram(
        f"Gram of {pts.shape[0]} points not positive definite after jitter escalation "
        f"(final jitter {jitter:.3g})"
    )
