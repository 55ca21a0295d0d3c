import dataclasses

import numpy as np
import pytest

from sobnat import flatness
from sobnat.errors import EmptyRegion, UnboundedRegion
from sobnat.flatness import (
    FlatnessQuery,
    GridSampler,
    MonteCarloSampler,
    Reparam,
    epsilon_flatness,
    invariance_check,
)

UNIT_METRIC = lambda w: np.eye(w.shape[0])


def quadratic_query(epsilon=0.04, metric=UNIT_METRIC, sampler=None, source="rkhs_projected"):
    return FlatnessQuery(
        loss=lambda w: float(np.sum(w**2)),
        minimum=np.zeros(1),
        epsilon=epsilon,
        metric=metric,
        metric_source=source,
        sampler=sampler or GridSampler(resolution=801, half_width=0.5),
    )


class TestEpsilonFlatness:
    def test_quadratic_band_volume_grid(self):
        # {0 < w^2 < eps} is (-sqrt(eps), sqrt(eps)) minus the origin:
        # volume 2 sqrt(eps) = 0.4 at eps = 0.04.
        result = epsilon_flatness(quadratic_query())
        assert result.volume == pytest.approx(0.4, abs=0.005)

    def test_quadratic_band_volume_monte_carlo(self):
        query = quadratic_query(sampler=MonteCarloSampler(count=200_000, seed=0, half_width=0.5))
        result = epsilon_flatness(query)
        assert result.volume == pytest.approx(0.4, abs=3 * result.stderr + 1e-3)
        assert result.stderr > 0

    def test_monotone_in_epsilon(self):
        vols = [epsilon_flatness(quadratic_query(epsilon=e)).volume for e in (0.01, 0.02, 0.04, 0.08)]
        assert all(b >= a for a, b in zip(vols, vols[1:]))

    def test_tiny_epsilon_tiny_volume(self):
        result = epsilon_flatness(
            quadratic_query(epsilon=1e-4, sampler=GridSampler(resolution=2001, half_width=0.05))
        )
        assert result.volume == pytest.approx(0.02, abs=0.002)

    def test_two_dimensional_disk(self):
        # For F = |w|^2 in 2-D the band is a disk of radius sqrt(eps) minus
        # the center: area pi * eps.
        query = FlatnessQuery(
            loss=lambda w: float(np.sum(w**2)),
            minimum=np.zeros(2),
            epsilon=0.04,
            metric=lambda w: np.eye(2),
            metric_source="rkhs_projected",
            sampler=GridSampler(resolution=201, half_width=0.3),
        )
        result = epsilon_flatness(query)
        assert result.volume == pytest.approx(np.pi * 0.04, rel=0.05)

    def test_disconnected_well_excluded(self):
        # The band around the second well at 0.6 is cut off from the one
        # around 0 by cells above the band; only the component at 0 counts.
        query = FlatnessQuery(
            loss=lambda w: float(min(w[0] ** 2, (w[0] - 0.6) ** 2 + 0.001)),
            minimum=np.zeros(1),
            epsilon=0.04,
            metric=UNIT_METRIC,
            metric_source="rkhs_projected",
            sampler=GridSampler(resolution=801, half_width=1.0),
        )
        assert epsilon_flatness(query).volume == pytest.approx(0.4, abs=0.005)

    def test_unbounded_region(self):
        with pytest.raises(UnboundedRegion):
            epsilon_flatness(
                quadratic_query(epsilon=1.0, sampler=GridSampler(resolution=101, half_width=0.5))
            )

    def test_unbounded_region_monte_carlo(self):
        with pytest.raises(UnboundedRegion):
            epsilon_flatness(
                quadratic_query(
                    epsilon=1.0, sampler=MonteCarloSampler(count=20_000, seed=1, half_width=0.5)
                )
            )

    @pytest.mark.parametrize("sampler, named", [
        (GridSampler(resolution=2, half_width=0.5), "resolution-2 grid"),
        (MonteCarloSampler(count=10, seed=0, half_width=0.5), "10 samples"),
    ])
    def test_empty_band_raises(self, sampler, named):
        # The band (0, 1e-6) is 2e-3 wide: neither cell centre at +-0.25 nor
        # any of 10 samples falls inside it, so there is no volume to report.
        with pytest.raises(EmptyRegion, match=named):
            epsilon_flatness(quadratic_query(epsilon=1e-6, sampler=sampler))

    @pytest.mark.parametrize("make, field", [
        (lambda: GridSampler(resolution=0), "resolution"),
        (lambda: GridSampler(resolution=-3), "resolution"),
        (lambda: GridSampler(half_width=0.0), "half_width"),
        (lambda: GridSampler(half_width=np.array([0.5, -0.5])), "half_width"),
        (lambda: GridSampler(half_width=np.inf), "half_width"),
        (lambda: MonteCarloSampler(count=0), "count"),
        (lambda: MonteCarloSampler(count=1), "count"),  # no ddof=1 spread of one sample
        (lambda: MonteCarloSampler(half_width=-0.5), "half_width"),
        (lambda: MonteCarloSampler(half_width=np.array([0.5, np.nan])), "half_width"),
    ])
    def test_malformed_sampler_rejected_when_built(self, make, field):
        # Unchecked, each fails only inside epsilon_flatness, with a numpy
        # message that names no field (or, for count=1, a NaN stderr).
        with pytest.raises(ValueError, match=field):
            make()

    def test_rejects_non_minimum(self):
        query = FlatnessQuery(
            loss=lambda w: float(w[0]),  # no minimum at 0
            minimum=np.zeros(1),
            epsilon=0.1,
            metric=UNIT_METRIC,
            metric_source="rkhs_projected",
            sampler=GridSampler(resolution=101, half_width=0.2),
        )
        with pytest.raises(ValueError):
            epsilon_flatness(query)

    @pytest.mark.parametrize("sampler", [
        GridSampler(resolution=101, half_width=0.5),
        MonteCarloSampler(count=1000, seed=0, half_width=0.5),
    ])
    def test_deeper_well_in_the_box_is_rejected(self, sampler):
        # 0 is a local minimum, but the well at 0.4 dips to about -1.84: a
        # declared minimum that is not the lowest point in its box is named.
        query = FlatnessQuery(
            loss=lambda w: float(w[0] ** 2 - 2.0 * np.exp(-(((w[0] - 0.4) / 0.05) ** 2))),
            minimum=np.zeros(1),
            epsilon=0.04,
            metric=UNIT_METRIC,
            metric_source="rkhs_projected",
            sampler=sampler,
        )
        with pytest.raises(ValueError, match="a sampled point is lower than the declared minimum"):
            epsilon_flatness(query)

    def test_metric_determinant_must_be_nonnegative(self):
        query = quadratic_query(metric=lambda w: -np.eye(1))
        with pytest.raises(ValueError):
            epsilon_flatness(query)

    def test_chunked_determinants_match_one_chunk(self, monkeypatch):
        query = FlatnessQuery(
            loss=lambda w: float(np.sum(w**2)),
            minimum=np.zeros(2),
            epsilon=0.04,
            metric=lambda w: np.array([[1.0 + w[0] ** 2, 0.3 * w[1]], [0.3 * w[1], 2.0]]),
            metric_source="rkhs_projected",
            sampler=GridSampler(resolution=41, half_width=0.3),
        )
        monkeypatch.setattr(flatness, "DET_CHUNK", 10**9)
        whole = epsilon_flatness(query)
        monkeypatch.setattr(flatness, "DET_CHUNK", 7)
        chunked = epsilon_flatness(query)
        assert chunked.samples_in_region > 3 * 7
        assert np.array_equal(chunked.volume, whole.volume)
        assert np.array_equal(chunked.stderr, whole.stderr)

    def test_negative_determinant_in_a_later_chunk_names_its_point(self, monkeypatch):
        monkeypatch.setattr(flatness, "DET_CHUNK", 5)
        query = quadratic_query(metric=lambda w: np.array([[-1.0 if w[0] > 0.1 else 1.0]]))
        with pytest.raises(ValueError, match=r"negative at \[0\.10"):
            epsilon_flatness(query)

    def test_euclidean_source_is_lebesgue(self):
        grid = quadratic_query(metric=None, source="euclidean")
        weighted = quadratic_query(metric=lambda w: 4.0 * np.eye(1))
        v_plain = epsilon_flatness(grid).volume
        v_weighted = epsilon_flatness(weighted).volume
        assert v_weighted == pytest.approx(2.0 * v_plain, rel=1e-9)

    def test_dim_cap(self):
        with pytest.raises(ValueError):
            FlatnessQuery(
                loss=lambda w: 0.0, minimum=np.zeros(4), epsilon=0.1,
                sampler=GridSampler(11, 1.0),
            )


class TestFrozenQuery:
    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(FlatnessQuery)])
    def test_assigning_a_field_raises(self, field):
        query = quadratic_query()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(query, field, getattr(query, field))

    def test_replace_checks_again(self):
        with pytest.raises(ValueError, match="^epsilon must be positive$"):
            dataclasses.replace(quadratic_query(), epsilon=0.0)

    def test_post_init_normalizes_minimum_and_sampler(self):
        query = FlatnessQuery(loss=lambda w: 0.0, minimum=[[0.5], [1.0]], epsilon=0.1)
        assert query.minimum.dtype == np.float64 and query.minimum.tolist() == [0.5, 1.0]
        assert query.sampler == GridSampler()


class TestInvarianceCheck:
    def test_identity_reparam_zero_discrepancy(self):
        same = lambda u: np.asarray(u, float)
        disc = invariance_check(quadratic_query(), Reparam(same, lambda u: np.eye(1), same))
        assert disc <= 1e-12

    def test_scaling_preserves_pullback_flatness(self):
        # w = 2u halves the region but the covariant metric doubles the
        # density; within grid error the volume is unchanged.
        disc = invariance_check(quadratic_query(), Reparam.scaling(2.0, 1))
        assert disc <= 0.02

    def test_scaling_breaks_euclidean_flatness(self):
        query = quadratic_query(metric=None, source="euclidean")
        disc = invariance_check(query, Reparam.scaling(2.0, 1))
        assert disc >= 0.25  # halves, so the discrepancy is about 50%

    def test_tanh_warp_preserves_pullback_flatness(self):
        disc = invariance_check(quadratic_query(), Reparam.tanh_warp(0.3, 1.0))
        assert disc <= 0.02

    def test_nonconstant_metric_covariance(self):
        # A position-dependent metric exercises the full Da^T g Da transform.
        query = quadratic_query(metric=lambda w: np.array([[1.0 + w[0] ** 2]]))
        disc = invariance_check(query, Reparam.scaling(2.0, 1))
        assert disc <= 0.02

    def test_given_base_volume_is_not_taken_again(self, monkeypatch):
        query = quadratic_query(metric=lambda w: np.array([[1.0 + w[0] ** 2]]))
        base = epsilon_flatness(query).volume
        expected = invariance_check(query, Reparam.tanh_warp(0.3, 1.0))
        queries, volume = [], flatness.epsilon_flatness

        def recording(q):
            queries.append(q)
            return volume(q)

        monkeypatch.setattr(flatness, "epsilon_flatness", recording)
        assert invariance_check(query, Reparam.tanh_warp(0.3, 1.0), base) == expected
        assert len(queries) == 1 and queries[0] is not query

    def test_tanh_warp_roundtrip(self):
        warp = Reparam.tanh_warp(0.3, 1.0)
        for w in (-0.4, 0.0, 0.7):
            u = warp.inverse(np.array([w]))
            np.testing.assert_allclose(warp.forward(u), [w], atol=1e-10)


def converting_sqrt_dets(query, points):
    """_sqrt_dets with every metric value passed through asarray and atleast_2d."""
    if query.metric is None or len(points) == 0:
        return np.ones(len(points))
    dets = np.empty(len(points))
    for start in range(0, len(points), flatness.DET_CHUNK):
        chunk = points[start : start + flatness.DET_CHUNK]
        mats = [np.atleast_2d(np.asarray(query.metric(w), dtype=np.float64)) for w in chunk]
        dets[start : start + len(chunk)] = np.linalg.det(np.stack(mats))
    return np.sqrt(np.maximum(dets, 0.0))


def converting_warped_query(query, reparam):
    """invariance_check's warped query, with closures that convert every value."""
    w0 = query.minimum
    u0 = np.asarray(reparam.inverse(w0), dtype=np.float64).reshape(-1)
    hw = flatness._half_widths(query)
    u_hi = np.asarray(reparam.inverse(w0 + hw), dtype=np.float64).reshape(-1)
    u_lo = np.asarray(reparam.inverse(w0 - hw), dtype=np.float64).reshape(-1)
    u_halfwidth = np.maximum(np.abs(u_hi - u0), np.abs(u_lo - u0))

    def warped_loss(u):
        return query.loss(np.asarray(reparam.forward(u), dtype=np.float64).reshape(-1))

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
    return FlatnessQuery(warped_loss, u0, query.epsilon, warped_metric, query.metric_source, sampler)


def mc_query_2d():
    return FlatnessQuery(
        loss=lambda w: float(w @ np.array([[1.0, 0.3], [0.3, 2.0]]) @ w),
        minimum=np.zeros(2),
        epsilon=0.04,
        metric=lambda w: np.array([[1.0 + w[0] ** 2, 0.2 * w[1]], [0.2 * w[1], 2.0]]),
        metric_source="rkhs_projected",
        sampler=MonteCarloSampler(count=4000, seed=3, half_width=0.4),
    )


# The tanh case's metric returns nested lists, which still need converting.
INVARIANCE_CASES = {
    "scaling": (lambda: quadratic_query(metric=lambda w: np.array([[1.0 + w[0] ** 2]])),
                lambda: Reparam.scaling(2.0, 1)),
    "tanh_warp": (lambda: quadratic_query(metric=lambda w: [[1.0 + float(w[0]) ** 2]]),
                  lambda: Reparam.tanh_warp(0.3, 1.0)),
    "monte_carlo": (mc_query_2d, lambda: Reparam.scaling(2.0, 2)),
}


def record_flatness(monkeypatch):
    """The results of every epsilon_flatness call from here on, in order."""
    results, volume = [], flatness.epsilon_flatness

    def recording(q):
        results.append(volume(q))
        return results[-1]

    monkeypatch.setattr(flatness, "epsilon_flatness", recording)
    return results


class TestInvarianceVolumes:
    @pytest.mark.parametrize("case", sorted(INVARIANCE_CASES))
    def test_volumes_are_those_of_converting_closures(self, monkeypatch, case):
        make_query, make_reparam = INVARIANCE_CASES[case]
        query, reparam = make_query(), make_reparam()
        monkeypatch.setattr(flatness, "_sqrt_dets", converting_sqrt_dets)
        expected = [
            epsilon_flatness(query).volume,
            epsilon_flatness(converting_warped_query(query, reparam)).volume,
        ]
        monkeypatch.undo()
        results = record_flatness(monkeypatch)
        disc = invariance_check(query, reparam)
        assert [r.volume for r in results] == expected
        assert disc == abs(expected[0] - expected[1]) / abs(expected[0])

    @pytest.mark.parametrize("case", sorted(INVARIANCE_CASES))
    def test_metric_is_called_once_per_region_point(self, monkeypatch, case):
        make_query, make_reparam = INVARIANCE_CASES[case]
        query = make_query()
        metric, calls = query.metric, []

        def counting(w):
            calls.append(w)
            return metric(w)

        query = dataclasses.replace(query, metric=counting)
        base = epsilon_flatness(query)
        assert len(calls) == base.samples_in_region
        results = record_flatness(monkeypatch)
        del calls[:]
        invariance_check(query, make_reparam(), base.volume)
        assert len(results) == 1 and len(calls) == results[0].samples_in_region
