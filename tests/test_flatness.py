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


class TestInvarianceCheck:
    def test_identity_reparam_zero_discrepancy(self):
        disc = invariance_check(quadratic_query(), Reparam.identity(1))
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
