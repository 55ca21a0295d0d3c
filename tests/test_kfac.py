import numpy as np
import pytest

from sobnat import linalg
from sobnat.errors import DimensionMismatch
from sobnat.kernel import KernelSpec, gram
from sobnat.kfac import KfacLayerState, compute_factors, precondition, refresh_inverses, update_state
from sobnat.metric import estimate_metric
from sobnat.network import LayerSpec, MlpNetwork, Tangents, forward, param_jacobian


def tangents_of(net, x):
    return Tangents.of_network(net, forward(net, x))


def linear_121(w1=None, w2=None, seed=0):
    if w1 is None:
        return MlpNetwork.create([1, 2, 1], ["identity", "identity"], np.random.default_rng(seed))
    return MlpNetwork(
        [LayerSpec(1, 2, "identity"), LayerSpec(2, 1, "identity")],
        [np.asarray(w1, dtype=np.float64), np.asarray(w2, dtype=np.float64)],
    )


class TestComputeFactors:
    def test_single_sample_rank_one(self):
        net = linear_121(seed=1)
        x = np.array([[0.4]])
        tangents = tangents_of(net, x)
        factors = compute_factors(tangents, None)
        for (a, s), a_bar, ds in zip(factors, tangents.a_bars, tangents.jacobians):
            np.testing.assert_allclose(a, np.outer(a_bar[0], a_bar[0]), atol=1e-14)
            expected_s = sum(np.outer(ds[c, 0], ds[c, 0]) for c in range(ds.shape[0]))
            np.testing.assert_allclose(s, expected_s, atol=1e-14)

    def test_zero_jacobians_give_zero_s(self):
        # Zero second-layer weights kill dphi/ds_1.
        net = linear_121(w1=[[0.5, 0.1], [1.0, -0.2]], w2=[[0.0, 0.0, 0.0]])
        factors = compute_factors(tangents_of(net, np.array([[1.0], [2.0]])), None)
        np.testing.assert_array_equal(factors[0][1], np.zeros((2, 2)))

    def test_factorizing_batch_matches_dense_block(self):
        # Identical inputs across the batch make every activation constant,
        # so with K = I the Kronecker product of the factors must equal the
        # per-layer block of the dense metric estimate exactly.
        net = linear_121(seed=2)
        x = np.full((5, 1), 0.7)
        factors = compute_factors(tangents_of(net, x), None)
        dense = estimate_metric(param_jacobian(net, x), 1, None).values
        offset = 0
        for (a, s), spec in zip(factors, net.layers):
            size = spec.out_dim * (spec.in_dim + 1)
            block = dense[offset : offset + size, offset : offset + size]
            assert np.max(np.abs(np.kron(s, a) - block)) <= 1e-10
            offset += size

    def test_sobolev_factors_exactly_symmetric(self):
        rng = np.random.default_rng(13)
        net = MlpNetwork.create([2, 4, 2], ["tanh", "identity"], rng)
        x = rng.normal(size=(9, 2))
        g = gram(x / 20.0, KernelSpec(input_dim=2))
        for a, s in compute_factors(tangents_of(net, x), g):
            assert np.array_equal(a, a.T)
            assert np.array_equal(s, s.T)

    def test_kernel_scaling_divides_each_factor(self):
        # K -> cK scales each factor by 1/c, so the factored step scales by
        # c^2 where the dense path scales by c -- the intrinsic discrepancy
        # of the Kronecker factorization (the dense path is the reference).
        rng = np.random.default_rng(3)
        net = MlpNetwork.create([2, 3, 2], ["tanh", "identity"], rng)
        x = rng.normal(size=(6, 2))
        tangents = tangents_of(net, x)
        g = gram(x / 20.0, KernelSpec(input_dim=2, jitter=0.0))
        base = compute_factors(tangents, g)
        scaled = compute_factors(tangents, g.scaled(4.0))
        for (a0, s0), (a1, s1) in zip(base, scaled):
            np.testing.assert_allclose(a1, a0 / 4.0, atol=1e-12)
            np.testing.assert_allclose(s1, s0 / 4.0, atol=1e-12)
        state0 = KfacLayerState(damping=0.0)
        update_state(state0, base[1][0], base[1][1])
        state1 = KfacLayerState(damping=0.0)
        update_state(state1, scaled[1][0], scaled[1][1])
        v = rng.normal(size=(net.layers[1].out_dim, net.layers[1].in_dim + 1))
        np.testing.assert_allclose(
            precondition(state1, v), 16.0 * precondition(state0, v), rtol=1e-8
        )

    @pytest.mark.parametrize("m", [1, 2])
    def test_one_block_is_the_dense_metric(self, m):
        # K-FAC is exact on a single block: a dense J as Tangents.of_matrix
        # has the constant input abar = 1, so A = [[1]] and S = J J^T.
        j = np.random.default_rng(6).normal(size=(7, 5 * m))
        ((a, s),) = compute_factors(Tangents.of_matrix(j, m), None)
        np.testing.assert_array_equal(a, [[1.0]])
        assert np.max(np.abs(s - estimate_metric(j, m, None).values)) <= 1e-14

    def test_gram_batch_mismatch(self):
        net = linear_121(seed=5)
        tangents = tangents_of(net, np.array([[1.0], [2.0]]))
        g = gram(np.array([[0.0], [1.0], [2.0]]), KernelSpec(input_dim=1))
        with pytest.raises(DimensionMismatch):
            compute_factors(tangents, g)


class TestUpdateState:
    def _fresh(self, seed=0):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(3, 3))
        a = m @ m.T
        m = rng.normal(size=(2, 2))
        return a, m @ m.T

    def test_decay_zero_adopts_fresh(self):
        a0, s0 = self._fresh(0)
        a1, s1 = self._fresh(1)
        state = KfacLayerState(decay=0.0)
        update_state(state, a0, s0)
        update_state(state, a1, s1)
        np.testing.assert_array_equal(state.a_factor, a1)
        np.testing.assert_array_equal(state.s_factor, s1)

    def test_decay_one_keeps_state(self):
        a0, s0 = self._fresh(0)
        a1, s1 = self._fresh(1)
        state = KfacLayerState(decay=1.0)
        update_state(state, a0, s0)
        update_state(state, a1, s1)
        np.testing.assert_array_equal(state.a_factor, a0)

    def test_half_decay_identical_batches(self):
        a0, s0 = self._fresh(0)
        state = KfacLayerState(decay=0.5)
        update_state(state, a0, s0)
        update_state(state, a0, s0)
        np.testing.assert_allclose(state.a_factor, a0)
        np.testing.assert_allclose(state.s_factor, s0)

    def test_factors_stay_symmetric_psd(self):
        state = KfacLayerState(decay=0.9)
        for seed in range(10):
            a, s = self._fresh(seed)
            update_state(state, a, s)
            for f in (state.a_factor, state.s_factor):
                np.testing.assert_allclose(f, f.T, atol=1e-12)
                assert np.min(np.linalg.eigvalsh(f)) >= -1e-10


class TestPrecondition:
    def test_identity_factors_zero_damping(self):
        state = KfacLayerState(damping=0.0)
        update_state(state, np.eye(4), np.eye(3))
        v = np.random.default_rng(7).normal(size=(3, 4))
        np.testing.assert_allclose(precondition(state, v), v, atol=1e-15)

    def test_scalar_factors(self):
        state = KfacLayerState(damping=0.0)
        update_state(state, np.array([[2.0]]), np.array([[5.0]]))
        np.testing.assert_allclose(precondition(state, np.array([[10.0]])), [[1.0]])

    def test_matches_dense_kron_inverse(self):
        rng = np.random.default_rng(8)
        m = rng.normal(size=(4, 4))
        a = m @ m.T + 0.5 * np.eye(4)
        m = rng.normal(size=(3, 3))
        s = m @ m.T + 0.5 * np.eye(3)
        state = KfacLayerState(damping=0.0)
        update_state(state, a, s)
        v = rng.normal(size=(3, 4))
        got = precondition(state, v)
        dense = np.linalg.solve(np.kron(s, a), v.reshape(-1)).reshape(3, 4)
        assert np.max(np.abs(got - dense)) <= 1e-10

    def test_damping_escalation_on_indefinite(self):
        # A zero S factor is only solvable through the damped escalation.
        state = KfacLayerState(damping=1e-6)
        update_state(state, np.eye(2), np.zeros((2, 2)))
        out = precondition(state, np.ones((2, 2)))
        assert np.all(np.isfinite(out))

    def test_escalated_damping_carries_to_the_next_refresh(self, monkeypatch):
        # A singular A factor at damping 0 escalates; the next refresh starts
        # from the escalated damping, not from 0 again.
        shifts, factor = [], linalg.cholesky_factor

        def recording(a, shift=0.0):
            shifts.append(shift)
            return factor(a, shift)

        monkeypatch.setattr(linalg, "cholesky_factor", recording)
        state = KfacLayerState(damping=0.0)
        update_state(state, np.ones((2, 2)), np.eye(3))
        refresh_inverses(state)
        assert shifts[0] == 0.0
        assert state.damping > 0.0
        shifts.clear()
        refresh_inverses(state)
        # pi = sqrt(mean diag S / mean diag A) = 1, so both shifts are sqrt(damping).
        assert shifts == [np.sqrt(state.damping)] * 2

    def test_shape_mismatch(self):
        state = KfacLayerState()
        update_state(state, np.eye(3), np.eye(2))
        with pytest.raises(DimensionMismatch):
            precondition(state, np.ones((3, 3)))

    def test_inverse_cache_invalidated_by_update(self):
        state = KfacLayerState(damping=0.0, decay=0.0)
        update_state(state, np.eye(2), np.eye(2))
        refresh_inverses(state)
        update_state(state, 2.0 * np.eye(2), np.eye(2))
        v = np.ones((2, 2))
        np.testing.assert_allclose(precondition(state, v), v / 2.0)
