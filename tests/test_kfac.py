import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from sobnat import kfac, linalg, verify
from sobnat.data import gen_two_moons, normalize, train_test_split
from sobnat.errors import DimensionMismatch, NotPositiveDefinite
from sobnat.kernel import KernelSpec, gram
from sobnat.kfac import KfacLayerState, compute_factors, precondition, refresh_inverses, update_state
from sobnat.metric import estimate_metric
from sobnat.network import LayerSpec, MlpNetwork, Tangents, forward, param_jacobian
from sobnat.optimizers import OptimConfig, TrainState, make_net, train_step
from test_metric import assert_near_oracle_metric


def tangents_of(net, x):
    return Tangents.of_network(net, forward(net, x))


def symmetrize(m):
    return 0.5 * (m + m.T)


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

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_one_block_is_the_dense_metric(self, m):
        # K-FAC is exact on a single block: a dense J as Tangents.of_matrix
        # has the constant input abar = 1, so A = [[1]] and S = J J^T.  S
        # sums over J's columns in the (c, b) order Tangents holds them in,
        # and the K = I metric in J's own (b, c) order, so with more than one
        # output the two agree to rounding.
        j = np.random.default_rng(6).normal(size=(7, 5 * m))
        ((a, s),) = compute_factors(Tangents.of_matrix(j, m), None)
        np.testing.assert_array_equal(a, [[1.0]])
        jc = j[:, np.arange(5 * m).reshape(5, m).T.reshape(-1)]  # column c*B + b is j's b*m + c
        np.testing.assert_array_equal(s, jc @ jc.T)
        metric = estimate_metric(j, m, None).values
        np.testing.assert_array_equal(metric, j @ j.T)
        assert_near_oracle_metric(s, metric)

    @pytest.mark.parametrize(
        "sizes, batch", [([2, 16, 16, 2], 50), ([2, 16, 16, 2], 500), ([2, 8, 8, 3], 60)]
    )
    def test_identity_kernel_factors_are_products_of_the_held_arrays(self, sizes, batch):
        # With K = I each layer's arrays are read where Tangents holds them.
        # A keeps the bits of the stacked formula, every layer's columns
        # concatenated into one array and A from its slice; S is the product
        # of Ds's rows in the (c, b) order they are held in.
        rng = np.random.default_rng(batch)
        net = MlpNetwork.create(sizes, ["tanh", "tanh", "identity"], rng)
        tangents = tangents_of(net, rng.normal(size=(batch, 2)))
        layers = list(zip(tangents.a_bars, tangents.jacobians))
        stacked = np.concatenate([col for a_bar, ds in layers for col in (a_bar, *ds)], axis=1)
        start = 0
        for (a, s), (a_bar, ds) in zip(compute_factors(tangents, None), layers, strict=True):
            mid = start + a_bar.shape[1]
            end = mid + ds.shape[0] * ds.shape[2]
            a_w = stacked[:, start:mid]
            d = ds.reshape(-1, ds.shape[2])
            np.testing.assert_array_equal(a, a_w.T @ a_w / batch)
            np.testing.assert_array_equal(s, d.T @ d)
            start = end

    def test_identity_kernel_stacks_no_copy(self):
        # The stacked array of every layer's columns, which only the Gram
        # whitening needs, would be B * sum(q_l + m p_l) * 8 bytes: 420 000
        # at B = 500 on [2,16,16,2].  K = I peaks below it, and below one
        # copy of a hidden layer's Ds, B * m * p_l * 8 = 128 000 bytes, since
        # S's operand is a view of the held Ds.
        rng = np.random.default_rng(0)
        net = MlpNetwork.create([2, 16, 16, 2], ["tanh", "tanh", "identity"], rng)
        tangents = tangents_of(net, rng.normal(size=(500, 2)))
        stack_bytes = 8 * sum(a.size + ds.size for a, ds in zip(tangents.a_bars, tangents.jacobians))
        assert stack_bytes == 420_000
        tracemalloc.start()
        try:
            compute_factors(tangents, None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < stack_bytes
        assert peak < 500 * 2 * 16 * 8 == 128_000
        for (_, ds_w), ds in zip(kfac._operands(tangents, None), tangents.jacobians, strict=True):
            assert np.shares_memory(ds_w, ds)

    def test_duplicate_points_match_the_cho_solve_oracle(self):
        # 65 points each given twice: K is singular and K_j = K + jitter d(0) I
        # has cond near 1.3e10.  B = 130 runs the blocked whitening.  A
        # backward-stable solve with K_j is within cond(K_j) * eps of the
        # exact factors, relative to their largest entry, and that is the
        # tolerance: against a cho_solve on the same K_j, for the error, and
        # below zero, for the smallest eigenvalue.
        rng = np.random.default_rng(0)
        net = MlpNetwork.create([2, 16, 16, 2], ["tanh", "tanh", "identity"], rng)
        pts = rng.normal(size=(65, 2))
        x = np.concatenate([pts, pts])
        g = gram(x / 20.0, KernelSpec(input_dim=2))
        k_j = g.values + g.jitter * g.d0 * np.eye(130)
        tol = np.linalg.cond(k_j) * np.finfo(np.float64).eps
        assert 1e-7 < tol < 1e-4
        oracle = scipy.linalg.cho_factor(k_j, lower=True)
        tangents = tangents_of(net, x)
        for (a, s), a_bar, ds in zip(compute_factors(tangents, g), tangents.a_bars, tangents.jacobians):
            expected_a = a_bar.T @ scipy.linalg.cho_solve(oracle, a_bar) / 130
            expected_s = sum(d.T @ scipy.linalg.cho_solve(oracle, d) for d in ds)
            for got, expected in ((a, expected_a), (s, expected_s)):
                scale = np.max(np.abs(expected))
                assert np.array_equal(got, got.T)
                assert np.min(np.linalg.eigvalsh(got)) >= -tol * scale
                assert np.max(np.abs(got - expected)) <= tol * scale
        # One sobolev_kfac step on the batch refreshes on these factors.
        labels = np.tile(rng.integers(0, 2, size=65), 2)
        config = OptimConfig(variant="sobolev_kfac", batch_size=130)
        new_net, loss = train_step(net, x, labels, config, TrainState.create(net, config), 0.01)
        assert np.isfinite(loss)
        assert all(np.isfinite(w).all() for w in new_net.weights)

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

    def test_first_update_copies_the_callers_arrays(self):
        a0, s0 = self._fresh(0)
        state = update_state(KfacLayerState(), a0, s0)
        assert not np.shares_memory(state.a_factor, a0)
        assert not np.shares_memory(state.s_factor, s0)
        np.testing.assert_array_equal(state.a_factor, a0)
        np.testing.assert_array_equal(state.s_factor, s0)

    def test_fold_is_in_place_bitwise_and_leaves_fresh_untouched(self):
        state = KfacLayerState(decay=0.95)
        a0, s0 = self._fresh(0)
        update_state(state, a0, s0)
        running_a, running_s = state.a_factor, state.s_factor
        for seed in (1, 2, 3):
            fresh_a, fresh_s = self._fresh(seed)
            kept_a, kept_s = fresh_a.copy(), fresh_s.copy()
            want_a = state.decay * state.a_factor + (1.0 - state.decay) * fresh_a
            want_s = state.decay * state.s_factor + (1.0 - state.decay) * fresh_s
            update_state(state, fresh_a, fresh_s)
            assert state.a_factor is running_a and state.s_factor is running_s
            np.testing.assert_array_equal(state.a_factor, want_a)
            np.testing.assert_array_equal(state.s_factor, want_s)
            np.testing.assert_array_equal(fresh_a, kept_a)
            np.testing.assert_array_equal(fresh_s, kept_s)

    def test_factors_stay_symmetric_psd(self):
        state = KfacLayerState(decay=0.9)
        for seed in range(10):
            a, s = self._fresh(seed)
            update_state(state, a, s)
            for f in (state.a_factor, state.s_factor):
                np.testing.assert_allclose(f, f.T, atol=1e-12)
                assert np.min(np.linalg.eigvalsh(f)) >= -1e-10


class TestLayerState:
    @pytest.mark.parametrize("damping", [math.nan, math.inf, -1.0])
    def test_rejects_damping_that_is_negative_or_not_finite(self, damping):
        with pytest.raises(ValueError, match=f"damping must be non-negative and finite, got {damping}"):
            KfacLayerState(damping=damping)


class TestNoStaleInverses:
    """A state holds the inverses of its current factors or none, and
    precondition raises ValueError on none."""

    def test_never_updated_state_has_no_inverses(self):
        state = KfacLayerState()
        assert state.a_inv is None and state.s_inv is None
        with pytest.raises(ValueError, match="no inverses"):
            precondition(state, np.ones((2, 2)))

    def test_refresh_of_a_never_updated_state_names_the_missing_factors(self):
        state = KfacLayerState()
        with pytest.raises(ValueError, match="state holds no factors: it was never updated"):
            refresh_inverses(state)
        assert state.a_inv is None and state.s_inv is None

    def test_failed_refresh_leaves_no_inverses(self):
        state = update_state(KfacLayerState(decay=0.0, damping=1e-6), np.eye(2), np.eye(3))
        assert state.a_inv is not None and state.s_inv is not None
        with pytest.raises(NotPositiveDefinite, match="factor S of order 3"):
            update_state(state, np.eye(2), -np.eye(3))
        assert state.a_inv is None and state.s_inv is None
        with pytest.raises(ValueError, match="no inverses"):
            precondition(state, np.ones((3, 2)))


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

    def test_update_replaces_the_inverses(self):
        state = KfacLayerState(damping=0.0, decay=0.0)
        update_state(state, np.eye(2), np.eye(2))
        update_state(state, 2.0 * np.eye(2), np.eye(2))
        v = np.ones((2, 2))
        np.testing.assert_allclose(precondition(state, v), v / 2.0)


class TestPreconditionProduct:
    """precondition on given inverses is (A^-1 (x) S^-1) applied to the
    column-stacked vec(V)."""

    @staticmethod
    def apply(a_inv, s_inv, v):
        return precondition(KfacLayerState(a_inv=a_inv, s_inv=s_inv), v)

    def test_identity_factors(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=(3, 4))
        np.testing.assert_array_equal(self.apply(np.eye(4), np.eye(3), v), v)

    def test_scalar_case(self):
        out = self.apply(np.array([[0.5]]), np.array([[1.0 / 3.0]]), np.array([[6.0]]))
        np.testing.assert_allclose(out, [[1.0]])

    def test_matches_explicit_kron(self):
        rng = np.random.default_rng(1)
        a_inv = rng.normal(size=(3, 3))
        a_inv = symmetrize(a_inv)
        s_inv = symmetrize(rng.normal(size=(2, 2)))
        v = rng.normal(size=(2, 3))
        explicit = (np.kron(a_inv, s_inv) @ v.T.reshape(-1)).reshape(3, 2).T
        np.testing.assert_allclose(self.apply(a_inv, s_inv, v), explicit, atol=1e-12)

    def test_all_shapes_up_to_four(self):
        # vec(s v a) == (a kron s) vec(v) with column-stacked vec, for every
        # factor size up to 4x4.
        rng = np.random.default_rng(2)
        for din in range(1, 5):
            for dout in range(1, 5):
                a_inv = symmetrize(rng.normal(size=(din, din)))
                s_inv = symmetrize(rng.normal(size=(dout, dout)))
                v = rng.normal(size=(dout, din))
                got = self.apply(a_inv, s_inv, v)
                explicit = np.kron(a_inv, s_inv) @ v.reshape(-1, order="F")
                np.testing.assert_allclose(got.reshape(-1, order="F"), explicit, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            self.apply(np.eye(3), np.eye(2), np.ones((3, 2)))


class TestRefreshInverses:
    @staticmethod
    def state(seed=0, damping=0.03):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(4, 6))
        a = m @ m.T
        m = rng.normal(size=(3, 6))
        return update_state(KfacLayerState(damping=damping), a, m @ m.T)

    def test_inverses_are_c_ordered_float64(self):
        state = self.state()
        for inv in (state.a_inv, state.s_inv):
            assert inv.dtype == np.float64 and inv.flags.c_contiguous

    def test_precondition_is_the_oracle_product_bit_for_bit(self):
        # The verify kfac oracle checks kfac.precondition on given inverses;
        # the step's inverses must be the potrs solve of the identity, whose
        # C-ordered copy changes no bit, and pass that oracle.
        state = self.state(1)
        v = np.random.default_rng(2).normal(size=(3, 4))
        a, s = state.a_factor, state.s_factor
        pi = math.sqrt((np.trace(s) / 3) / (np.trace(a) / 4))
        sq = math.sqrt(state.damping)
        a_inv = linalg.solve_from_factor(linalg.cholesky_factor(a, sq / pi), np.eye(4))
        s_inv = linalg.solve_from_factor(linalg.cholesky_factor(s, sq * pi), np.eye(3))
        np.testing.assert_array_equal(state.a_inv, a_inv)
        np.testing.assert_array_equal(state.s_inv, s_inv)
        assert verify.kron_precondition_error(state.a_inv, state.s_inv, v) <= verify.KRON_PRECONDITION_TOL

    @pytest.mark.parametrize("name, order", [("A", 4), ("S", 3)])
    @pytest.mark.parametrize("where", [(1, 1), (0, 2)])
    def test_non_finite_factor_raises_without_damping_escalation(self, factor_orders, name, order, where):
        state = self.state()
        factor_orders.clear()  # building the state refreshed once
        factor = state.a_factor if name == "A" else state.s_factor
        factor[where] = factor[where[::-1]] = np.nan
        with pytest.raises(NotPositiveDefinite, match=f"factor {name} of order {order} is not finite"):
            refresh_inverses(state)
        # Both factors are checked before any factorization.
        assert factor_orders == []
        assert state.damping == 0.03 and state.a_inv is None and state.s_inv is None

    def test_non_finite_entry_below_the_diagonal_raises(self):
        # cholesky_factor reads one triangle only, so the check must see both.
        a = 2 * np.eye(3)
        a[2, 0] = np.nan
        with pytest.raises(NotPositiveDefinite, match="^K-FAC factor A of order 3 is not finite$"):
            update_state(KfacLayerState(), a, np.eye(2))

    def test_failed_escalation_names_the_factor_and_last_damping(self):
        with pytest.raises(NotPositiveDefinite, match=r"factor S of order 3 .*\(last damping 0\.001\)$"):
            update_state(KfacLayerState(damping=1e-6), np.eye(2), -np.eye(3))


class TestPlainStep:
    """A K-FAC step between refreshes is the two GEMMs of each layer on the
    inverses the refresh formed: no factorization, no solve and no new
    inverse."""

    @pytest.mark.parametrize("variant", ["amari_kfac", "sobolev_kfac"])
    def test_plain_step_factors_solves_and_copies_nothing(self, monkeypatch, variant):
        calls = []
        for name in ("cholesky_factor", "solve_from_factor"):
            original = getattr(linalg, name)

            def counted(*args, _name=name, _fn=original, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(linalg, name, counted)
        ds = normalize(train_test_split(gen_two_moons(200, 0.1, seed=3), 0.25, seed=3))
        x, y = ds.train()
        cfg = OptimConfig(variant=variant, batch_size=50, seed=3, record_walltime=False)
        net = make_net([2, 16, 16, 2], "tanh", np.random.default_rng(3))
        state = TrainState.create(net, cfg)
        net, _ = train_step(net, x[:50], y[:50], cfg, state, 0.01)  # step 0 refreshes
        assert calls.count("cholesky_factor") >= 6 and calls.count("solve_from_factor") >= 6
        calls.clear()
        inverses = [(layer.a_inv, layer.s_inv) for layer in state.kfac_layers]
        train_step(net, x[50:100], y[50:100], cfg, state, 0.01)
        assert calls == []
        # The three layers' inverses are the very arrays the refresh formed.
        for layer, (a_inv, s_inv) in zip(state.kfac_layers, inverses):
            assert layer.a_inv is a_inv and layer.s_inv is s_inv
