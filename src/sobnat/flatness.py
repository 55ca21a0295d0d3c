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

from dataclasses import dataclass

import numpy as np
import scipy.ndimage
import scipy.optimize

from .errors import UnboundedRegion

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


@dataclass(frozen=True)
class GridSampler:
    resolution: int = 201
    half_width: float = 1.0


@dataclass(frozen=True)
class MonteCarloSampler:
    count: int = 100_000
    seed: int = 0
    half_width: float = 1.0


@dataclass
class FlatnessQuery:
    loss: callable  # w -> float
    minimum: np.ndarray
    epsilon: float
    metric: callable = None  # w -> (d, d) array; None selects the Euclidean volume
    metric_source: str = "euclidean"
    sampler: object = None

    def __post_init__(self):
        self.minimum = np.asarray(self.minimum, dtype=np.float64).reshape(-1)
        if self.minimum.shape[0] > 3:
            raise ValueError("flatness is implemented for dimension <= 3")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.sampler is None:
            self.sampler = GridSampler()


@dataclass(frozen=True)
class FlatnessResult:
    volume: float
    stderr: float
    samples_in_region: int


def _sqrt_dets(query: FlatnessQuery, points: np.ndarray) -> np.ndarray:
    """Volume-form density sqrt(det g(w)) at each row w of points."""
    if query.metric is None or len(points) == 0:
        return np.ones(len(points))
    # One metric call per point, as the w -> matrix contract asks; one stacked
    # det per chunk bounds the matrices alive at once.
    dets = np.empty(len(points))
    for start in range(0, len(points), DET_CHUNK):
        chunk = points[start : start + DET_CHUNK]
        mats = [np.atleast_2d(np.asarray(query.metric(w), dtype=np.float64)) for w in chunk]
        dets[start : start + len(chunk)] = np.linalg.det(np.stack(mats))
    negative = dets < -1e-12
    if negative.any():
        k = int(np.argmax(negative))
        raise ValueError(f"metric determinant {float(dets[k])} is negative at {points[k]}")
    return np.sqrt(np.maximum(dets, 0.0))


def _half_widths(query: FlatnessQuery) -> np.ndarray:
    hw = getattr(query.sampler, "half_width")
    return np.broadcast_to(np.asarray(hw, dtype=np.float64), query.minimum.shape).astype(float)


def _grid_flatness(query: FlatnessQuery) -> FlatnessResult:
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
    labels, _ = scipy.ndimage.label(band)
    seeds = np.unique(labels[tuple(slice(max(c - 1, 0), c + 2) for c in w0_cell)])
    component = np.isin(labels, seeds[seeds > 0])

    idxs = np.argwhere(component)
    if idxs.size and (np.any(idxs == 0) or np.any(idxs == res - 1)):
        raise UnboundedRegion("flatness region touches the bounding box; reduce epsilon")

    surface = component & ~scipy.ndimage.binary_erosion(component, border_value=0)
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
    def identity(cls, dim: int) -> "Reparam":
        eye = np.eye(dim)
        return cls(lambda u: np.asarray(u, float), lambda u: eye, lambda w: np.asarray(w, float))

    @classmethod
    def scaling(cls, c: float, dim: int) -> "Reparam":
        """w = c * u, the w -> c w coordinate stretch."""
        eye = c * np.eye(dim)
        return cls(lambda u: c * np.asarray(u, float), lambda u: eye, lambda w: np.asarray(w, float) / c)

    @classmethod
    def tanh_warp(cls, amplitude: float = 0.3, rate: float = 1.0) -> "Reparam":
        """One-dimensional warp w = u + amplitude * tanh(rate * u)."""

        def fwd(u):
            u = np.asarray(u, float).reshape(-1)
            return u + amplitude * np.tanh(rate * u)

        def jac(u):
            u = np.asarray(u, float).reshape(-1)
            return np.array([[1.0 + amplitude * rate / np.cosh(rate * u[0]) ** 2]])

        def inv(w):
            w0 = float(np.asarray(w, float).reshape(-1)[0])
            lo, hi = w0 - abs(amplitude) - 1.0, w0 + abs(amplitude) + 1.0
            root = scipy.optimize.brentq(lambda u: u + amplitude * np.tanh(rate * u) - w0, lo, hi)
            return np.array([root])

        return cls(fwd, jac, inv)


def invariance_check(query: FlatnessQuery, reparam: Reparam) -> float:
    """Relative flatness discrepancy between original and warped coordinates.

    The loss is composed with the reparameterization and the metric pulled
    back covariantly (Da^T g Da); a Euclidean-source query keeps the
    Euclidean volume in both charts, exposing its coordinate dependence.
    """
    base = epsilon_flatness(query).volume

    w0 = query.minimum
    u0 = np.asarray(reparam.inverse(w0), dtype=np.float64).reshape(-1)
    hw = _half_widths(query)
    u_hi = np.asarray(reparam.inverse(w0 + hw), dtype=np.float64).reshape(-1)
    u_lo = np.asarray(reparam.inverse(w0 - hw), dtype=np.float64).reshape(-1)
    u_halfwidth = np.maximum(np.abs(u_hi - u0), np.abs(u_lo - u0))

    def warped_loss(u):
        return query.loss(np.asarray(reparam.forward(u), dtype=np.float64).reshape(-1))

    warped_metric = None
    if query.metric is not None:

        def warped_metric(u):
            u = np.asarray(u, dtype=np.float64).reshape(-1)
            dj = np.atleast_2d(np.asarray(reparam.jacobian(u), dtype=np.float64))
            g = np.atleast_2d(
                np.asarray(query.metric(np.asarray(reparam.forward(u), float).reshape(-1)), float)
            )
            return dj.T @ g @ dj

    if isinstance(query.sampler, GridSampler):
        sampler = GridSampler(query.sampler.resolution, u_halfwidth)
    else:
        sampler = MonteCarloSampler(query.sampler.count, query.sampler.seed, u_halfwidth)
    warped_query = FlatnessQuery(
        loss=warped_loss,
        minimum=u0,
        epsilon=query.epsilon,
        metric=warped_metric,
        metric_source=query.metric_source,
        sampler=sampler,
    )
    warped = epsilon_flatness(warped_query).volume
    return abs(base - warped) / max(abs(base), 1e-300)
