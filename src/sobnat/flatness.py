"""Coordinate-free flatness of a loss near a minimum.

epsilon-flatness is the volume, in a chosen metric's volume form, of the
maximal connected set S around the minimum w0 on which the loss stays inside
the open band (F(w0), F(w0) + eps).  Measured with the pullback metric the
number is invariant under reparameterizations of the variables; measured
with the Euclidean (pushforward) volume it is not, which invariance_check
makes quantitative.

The region is found by flood fill on a grid in <= 3 dimensions, or by
rejection sampling inside the same bounding box.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import EmptyRegion, UnboundedRegion

__all__ = [
    "GridSampler",
    "MonteCarloSampler",
    "FlatnessQuery",
    "FlatnessResult",
    "Reparam",
    "epsilon_flatness",
    "invariance_check",
]

BAND_FLOOR = 1e-12  # relaxation of the strict lower bound F > F(w0)
DET_CHUNK = 4096  # region points per stacked determinant


def _check_half_width(half_width) -> None:
    """Raise ValueError unless every half_width entry is positive and finite."""
    hw = np.asarray(half_width, dtype=np.float64)
    if not np.all(np.isfinite(hw) & (hw > 0)):
        raise ValueError(f"half_width must be positive and finite, got {half_width}")


@dataclass(frozen=True)
class GridSampler:
    resolution: int = 201
    half_width: float = 1.0  # a float, or one entry per dimension

    def __post_init__(self):
        if not self.resolution >= 1:
            raise ValueError(f"resolution must be at least 1, got {self.resolution}")
        _check_half_width(self.half_width)


@dataclass(frozen=True)
class MonteCarloSampler:
    count: int = 100_000
    seed: int = 0
    half_width: float = 1.0  # a float, or one entry per dimension

    def __post_init__(self):
        # The standard error takes the samples' spread with ddof=1.
        if not self.count >= 2:
            raise ValueError(f"count must be at least 2, got {self.count}")
        _check_half_width(self.half_width)


@dataclass(frozen=True)
class FlatnessQuery:
    loss: callable  # w -> float
    minimum: np.ndarray
    epsilon: float
    metric: callable = None  # w -> (d, d) array; None selects the Euclidean volume
    metric_source: str = "euclidean"
    sampler: object = None

    def __post_init__(self):
        object.__setattr__(self, "minimum", np.asarray(self.minimum, dtype=np.float64).reshape(-1))
        if self.minimum.shape[0] > 3:
            raise ValueError("flatness is implemented for dimension <= 3")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.sampler is None:
            object.__setattr__(self, "sampler", GridSampler())


@dataclass(frozen=True)
class FlatnessResult:
    volume: float
    stderr: float
    samples_in_region: int


def _float_array(a, ndim: int) -> np.ndarray:
    """a as a float64 vector (ndim 1, flattened) or matrix (ndim 2, via
    atleast_2d).  A float64 ndarray of that rank is returned as it is: these
    conversions run once per grid point, and most values need none."""
    if type(a) is np.ndarray and a.ndim == ndim and a.dtype == np.float64:
        return a
    a = np.asarray(a, dtype=np.float64)
    return a.reshape(-1) if ndim == 1 else np.atleast_2d(a)


def _sqrt_dets(query: FlatnessQuery, points: np.ndarray) -> np.ndarray:
    """Volume-form density sqrt(det g(w)) at each row w of points."""
    if query.metric is None or len(points) == 0:
        return np.ones(len(points))
    # One metric call per point, as the w -> matrix contract asks; one stacked
    # det per chunk bounds the matrices alive at once.
    dets = np.empty(len(points))
    for start in range(0, len(points), DET_CHUNK):
        chunk = points[start : start + DET_CHUNK]
        mats = [_float_array(query.metric(w), 2) for w in chunk]
        dets[start : start + len(chunk)] = np.linalg.det(np.stack(mats))
    negative = dets < -1e-12
    if negative.any():
        k = int(np.argmax(negative))
        raise ValueError(f"metric determinant {float(dets[k])} is negative at {points[k]}")
    return np.sqrt(np.maximum(dets, 0.0))


def _half_widths(query: FlatnessQuery) -> np.ndarray:
    hw = query.sampler.half_width
    return np.broadcast_to(np.asarray(hw, dtype=np.float64), query.minimum.shape).astype(float)


def _grid_flatness(query: FlatnessQuery) -> FlatnessResult:
    from scipy.ndimage import binary_erosion, label

    dim = query.minimum.shape[0]
    res = query.sampler.resolution
    hw = _half_widths(query)
    lo = query.minimum - hw
    cell = 2.0 * hw / res
    cell_vol = float(np.prod(cell))

    axes = [lo[d] + (np.arange(res) + 0.5) * cell[d] for d in range(dim)]
    grids = np.meshgrid(*axes, indexing="ij")
    centers = np.stack([g.reshape(-1) for g in grids], axis=1)
    values = np.array([query.loss(w) for w in centers]).reshape((res,) * dim)

    f0 = float(query.loss(query.minimum))
    if float(values.min()) < f0 - 1e-9:
        raise ValueError("a sampled point is lower than the declared minimum")
    band = (values > f0 + BAND_FLOOR) & (values < f0 + query.epsilon)

    # The face-connected band components that reach the 3^dim cells around w0's cell.
    w0_cell = [int(np.clip((query.minimum[d] - lo[d]) // cell[d], 0, res - 1)) for d in range(dim)]
    labels, _ = label(band)
    seeds = np.unique(labels[tuple(slice(max(c - 1, 0), c + 2) for c in w0_cell)])
    component = np.isin(labels, seeds[seeds > 0])

    idxs = np.argwhere(component)
    if not idxs.size:
        raise EmptyRegion(
            f"no cell of the resolution-{res} grid next to the minimum lies in the band; refine the grid"
        )
    if np.any(idxs == 0) or np.any(idxs == res - 1):
        raise UnboundedRegion("flatness region touches the bounding box; reduce epsilon")

    surface = component & ~binary_erosion(component, border_value=0)
    points = np.stack([axes[d][idxs[:, d]] for d in range(dim)], axis=1)
    masses = (_sqrt_dets(query, points) * cell_vol).tolist()
    volume = sum(masses, 0.0)
    boundary_mass = sum((mass for mass, edge in zip(masses, surface[tuple(idxs.T)]) if edge), 0.0)
    return FlatnessResult(volume=volume, stderr=0.5 * boundary_mass, samples_in_region=len(idxs))


def _mc_flatness(query: FlatnessQuery) -> FlatnessResult:
    dim = query.minimum.shape[0]
    hw = _half_widths(query)
    lo, hi = query.minimum - hw, query.minimum + hw
    box_vol = float(np.prod(hi - lo))
    gen = np.random.default_rng(query.sampler.seed)
    points = gen.uniform(lo, hi, size=(query.sampler.count, dim))
    values = np.array([query.loss(w) for w in points])
    f0 = float(query.loss(query.minimum))
    if float(values.min()) < f0 - 1e-9:
        raise ValueError("a sampled point is lower than the declared minimum")
    inside = (values > f0 + BAND_FLOOR) & (values < f0 + query.epsilon)
    near_edge = np.any(np.abs(points - query.minimum) > 0.98 * hw, axis=1)
    if np.any(inside & near_edge):
        raise UnboundedRegion("flatness region reaches the bounding box; reduce epsilon")
    if not inside.any():
        raise EmptyRegion(f"none of the {query.sampler.count} samples lies in the band; use more samples")
    contrib = np.zeros(points.shape[0])
    contrib[inside] = _sqrt_dets(query, points[inside])
    volume = box_vol * float(np.mean(contrib))
    stderr = box_vol * float(np.std(contrib, ddof=1)) / np.sqrt(points.shape[0])
    return FlatnessResult(volume=volume, stderr=stderr, samples_in_region=int(inside.sum()))


def epsilon_flatness(query: FlatnessQuery) -> FlatnessResult:
    """Volume of the epsilon band around the minimum, with an error estimate.

    For the grid sampler the error bar is half the mass of the surface cells
    (a discretization bound); for Monte Carlo it is the usual standard error.
    The grid sampler extracts the connected component around the minimum by
    flood fill; rejection sampling cannot see connectivity, so in that mode
    the bounding box must already isolate the component.
    """
    if isinstance(query.sampler, GridSampler):
        return _grid_flatness(query)
    if isinstance(query.sampler, MonteCarloSampler):
        return _mc_flatness(query)
    raise TypeError("sampler must be GridSampler or MonteCarloSampler")


@dataclass
class Reparam:
    """A change of variables w = forward(u) with its Jacobian and inverse."""

    forward: callable
    jacobian: callable  # u -> (d, d)
    inverse: callable

    @classmethod
    def scaling(cls, c: float, dim: int) -> "Reparam":
        """w = c * u, the w -> c w coordinate stretch."""
        eye = c * np.eye(dim)
        return cls(lambda u: c * np.asarray(u, float), lambda u: eye, lambda w: np.asarray(w, float) / c)

    @classmethod
    def tanh_warp(cls, amplitude: float = 0.3, rate: float = 1.0) -> "Reparam":
        """One-dimensional warp w = u + amplitude * tanh(rate * u)."""
        from scipy.optimize import brentq

        def fwd(u):
            u = np.asarray(u, float).reshape(-1)
            return u + amplitude * np.tanh(rate * u)

        def jac(u):
            u = np.asarray(u, float).reshape(-1)
            return np.array([[1.0 + amplitude * rate / np.cosh(rate * u[0]) ** 2]])

        def inv(w):
            w0 = float(np.asarray(w, float).reshape(-1)[0])
            lo, hi = w0 - abs(amplitude) - 1.0, w0 + abs(amplitude) + 1.0
            root = brentq(lambda u: u + amplitude * np.tanh(rate * u) - w0, lo, hi)
            return np.array([root])

        return cls(fwd, jac, inv)


def invariance_check(query: FlatnessQuery, reparam: Reparam, base_volume: float = None) -> float:
    """Relative flatness discrepancy between original and warped coordinates.

    The loss is composed with the reparameterization and the metric pulled
    back covariantly (Da^T g Da); a Euclidean-source query keeps the
    Euclidean volume in both charts, exposing its coordinate dependence.
    base_volume is ``epsilon_flatness(query).volume``, taken here unless the
    caller passes the one it already has.
    """
    base = epsilon_flatness(query).volume if base_volume is None else base_volume

    w0 = query.minimum
    u0 = np.asarray(reparam.inverse(w0), dtype=np.float64).reshape(-1)
    hw = _half_widths(query)
    u_hi = np.asarray(reparam.inverse(w0 + hw), dtype=np.float64).reshape(-1)
    u_lo = np.asarray(reparam.inverse(w0 - hw), dtype=np.float64).reshape(-1)
    u_halfwidth = np.maximum(np.abs(u_hi - u0), np.abs(u_lo - u0))

    def warped_loss(u):
        return query.loss(_float_array(reparam.forward(u), 1))

    warped_metric = None
    if query.metric is not None:

        def warped_metric(u):
            u = _float_array(u, 1)
            dj = _float_array(reparam.jacobian(u), 2)
            g = _float_array(query.metric(_float_array(reparam.forward(u), 1)), 2)
            return dj.T @ g @ dj

    warped_query = replace(
        query, loss=warped_loss, minimum=u0, metric=warped_metric,
        sampler=replace(query.sampler, half_width=u_halfwidth),
    )
    warped = epsilon_flatness(warped_query).volume
    return abs(base - warped) / max(abs(base), 1e-300)
