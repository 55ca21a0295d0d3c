"""Dense double-precision linear algebra shared by every module.

Matrices are plain numpy float64 arrays in C (row-major) order; this module
only adds the SPD factor and solves that the metric and K-FAC paths need,
with the package's error types.
Jitter and damping enter as the diagonal shift of :func:`cholesky_factor`,
which factors in a single copy of its argument, fresh or in a caller's
buffer (:class:`FactorBuffers`).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, NotPositiveDefinite

__all__ = ["FactorBuffers", "cholesky_factor", "cholesky_solve", "solve_from_factor"]


class FactorBuffers:
    """Square float64 arrays for :func:`cholesky_factor`'s ``out``, one per key.

    Each key names the caller that factors into it.  An array is kept across
    calls and re-made only when the order asked for changes, so a factor
    taken into it is valid until the next factor under the same key.
    """

    def __init__(self):
        self._arrays = {}

    def get(self, key: str, order: int) -> np.ndarray:
        array = self._arrays.get(key)
        if array is None or len(array) != order:
            array = self._arrays[key] = np.empty((order, order))
        return array


def cholesky_factor(a: np.ndarray, shift: float = 0.0, out: np.ndarray = None) -> np.ndarray:
    """Lower-triangular Cholesky factor of the SPD matrix a + shift*I, no pivoting.

    Returns one array whose lower triangle is L; its strict upper triangle
    is not cleared.

    The factor is taken in place in one plain C-ordered copy of a, or in
    ``out`` (a C-ordered float64 array of a's shape that does not overlap
    a) when it is given, with shift added on its diagonal; a itself is
    never modified.  LAPACK gets the copy's transpose, which is
    Fortran-ordered and so needs no layout copy, and reads its lower
    triangle: the factor is of the *upper* triangle of a, and a's strict
    lower triangle is never read.  The kernel Gram (a ``cdist`` table),
    the K-FAC factors (syrk products and their averages) and the P x P
    metric (a syrk product) are bitwise symmetric, so for them that is the
    same matrix.  The kernel-space S of
    :func:`sobnat.metric.damped_natural_gradient` is symmetric only to
    rounding, since :meth:`sobnat.network.Tangents.ntk` builds Theta from
    plain GEMMs, and is factored from its upper triangle.

    Raises NotPositiveDefinite, naming the row, when a pivot is <= 0 or not
    finite; the caller owns jitter and damping.  LAPACK's potrf flags only
    the first kind, so the factor's diagonal is checked for the second.
    """
    if out is None:
        c = np.array(a, dtype=np.float64, order="C")
    else:
        if out.shape != np.shape(a) or out.dtype != np.float64 or not out.flags.c_contiguous:
            raise DimensionMismatch(
                f"out must be a C-ordered float64 array of shape {np.shape(a)}, "
                f"got {out.dtype} {out.shape}"
            )
        c = out
        np.copyto(c, a)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got shape {c.shape}")
    c.flat[:: len(c) + 1] += shift
    c, info = scipy.linalg.lapack.dpotrf(c.T, lower=1, clean=0, overwrite_a=1)
    if info > 0:
        raise NotPositiveDefinite(f"pivot in row {info - 1} is not positive")
    finite = np.isfinite(c.diagonal())
    if not finite.all():
        raise NotPositiveDefinite(f"non-finite pivot in row {int(np.argmin(finite))}")
    return c


def solve_from_factor(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b from a's :func:`cholesky_factor`; x has the shape of b."""
    b = np.asarray(b, dtype=np.float64)
    # LAPACK potrs directly: the same call cho_solve makes, without its
    # per-call argument handling, which dominates at the sizes solved here.
    x, info = scipy.linalg.lapack.dpotrs(factor, b.reshape(b.shape[0], -1), lower=1)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of potrs")
    return x.reshape(b.shape)


def cholesky_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b for SPD a via Cholesky.

    b may be a vector or a matrix of right-hand sides; the result has the
    same shape as b.
    """
    a = np.asarray(a, dtype=np.float64)
    b_arr = np.asarray(b, dtype=np.float64)
    if b_arr.shape[:1] != a.shape[:1]:
        raise DimensionMismatch(f"rhs has shape {b_arr.shape}, matrix {a.shape}")
    return solve_from_factor(cholesky_factor(a), b_arr)

