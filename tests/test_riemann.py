import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from sobnat import linalg
from sobnat.errors import NotPositiveDefinite, RateViolation
from sobnat.riemann import (
    RiemannProblem,
    _sublevel_radius,
    descend,
    grad_step,
    mirror_step,
    prog,
    verify_rate,
)


def random_quadratic(rng, dim=3, with_metric=False):
    m = rng.normal(size=(dim, dim))
    h = m @ m.T + 0.5 * np.eye(dim)
    g = None
    if with_metric:
        g = np.diag(rng.uniform(0.5, 3.0, size=dim))
    return RiemannProblem.quadratic(h, g)


class TestGradStep:
    def test_euclidean_quadratic_one_step_exact(self):
        problem = RiemannProblem.quadratic(np.eye(3))
        x = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(grad_step(problem, x), np.zeros(3), atol=1e-15)

    def test_scaled_metric_hand_case(self):
        # g = 2I on f = |x|^2/2: C = 1/2, L = 1, so the step is
        # x - 2 * (x/2) = 0, again exact.
        problem = RiemannProblem.quadratic(np.eye(2), 2.0 * np.eye(2))
        assert problem.compat_C == pytest.approx(0.5)
        assert problem.lipschitz_L == pytest.approx(1.0)
        x = np.array([3.0, -1.0])
        np.testing.assert_allclose(grad_step(problem, x), np.zeros(2), atol=1e-15)

    def test_decrease_at_least_prog(self):
        rng = np.random.default_rng(0)
        for k in range(100):
            problem = random_quadratic(rng, with_metric=(k % 2 == 1))
            x = rng.normal(size=3) * 2.0
            drop = problem.f(x) - problem.f(grad_step(problem, x))
            assert drop >= prog(problem, x) - 1e-10


    def test_constant_metric_is_factored_once(self, factor_orders):
        # quadratic() factors its constant metric once; no step factors
        # again, and each step solves with that factor.
        rng = np.random.default_rng(4)
        problem = random_quadratic(rng, with_metric=True)
        assert factor_orders == [3]
        x = rng.normal(size=3)
        cl = problem.compat_C * problem.lipschitz_L
        for _ in range(5):
            grad = problem.grad(x)
            nat = np.linalg.solve(problem.metric, grad)
            assert prog(problem, x) == pytest.approx(float(grad @ nat) / (2.0 * cl), rel=1e-12)
            np.testing.assert_allclose(mirror_step(problem, x, 2.0), x - nat / 2.0, rtol=1e-12)
            step = grad_step(problem, x)
            np.testing.assert_allclose(step, x - nat / cl, rtol=1e-12)
            x = step
        assert factor_orders == [3]


class TestProg:
    def test_zero_gradient(self):
        problem = RiemannProblem.quadratic(np.eye(2))
        assert prog(problem, np.zeros(2)) == 0.0

    def test_euclidean_formula(self):
        # C = L = 1 and grad f = (2, 0): Prog = |grad|^2 / 2 = 2.
        problem = RiemannProblem.quadratic(np.eye(2))
        assert prog(problem, np.array([2.0, 0.0])) == pytest.approx(2.0)

    def test_matches_numeric_argmin(self):
        # Prog is minus the minimum of the quadratic model
        # <grad^g f, y-x>_g + (CL/2)|y-x|^2_g, found here by BFGS.
        rng = np.random.default_rng(1)
        for _ in range(5):
            problem = random_quadratic(rng, with_metric=True)
            x = rng.normal(size=3)
            g_mat = problem.metric
            nat = np.linalg.solve(g_mat, problem.grad(x))
            cl = problem.compat_C * problem.lipschitz_L

            def model(y):
                d = y - x
                return float(nat @ g_mat @ d + 0.5 * cl * d @ g_mat @ d)

            res = scipy.optimize.minimize(model, x + 0.1, method="BFGS", tol=1e-12)
            assert -res.fun == pytest.approx(prog(problem, x), abs=1e-8)


class TestMirrorStep:
    def test_equals_grad_step_at_alpha_cl(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            problem = random_quadratic(rng, with_metric=True)
            x = rng.normal(size=3)
            alpha = problem.compat_C * problem.lipschitz_L
            assert np.array_equal(mirror_step(problem, x, alpha), grad_step(problem, x))

    def test_euclidean_metric_is_plain_gradient_descent(self):
        problem = RiemannProblem.quadratic(np.diag([2.0, 1.0]))
        x = np.array([1.0, 1.0])
        np.testing.assert_allclose(
            mirror_step(problem, x, 4.0), x - 0.25 * problem.grad(x), atol=1e-15
        )

    def test_matches_numeric_argmin(self):
        # The closed form must agree with the argmin of
        # <grad f(x), y-x> + (alpha/2) |x-y|^2_{g(x)}.
        rng = np.random.default_rng(3)
        for _ in range(5):
            problem = random_quadratic(rng, with_metric=True)
            x = rng.normal(size=3)
            alpha = 2.5
            g_mat = problem.metric
            grad = problem.grad(x)

            def model(y):
                d = y - x
                return float(grad @ d + 0.5 * alpha * d @ g_mat @ d)

            res = scipy.optimize.minimize(model, x, method="BFGS", tol=1e-12)
            np.testing.assert_allclose(mirror_step(problem, x, alpha), res.x, atol=1e-8)

    def test_positive_alpha_required(self):
        problem = RiemannProblem.quadratic(np.eye(2))
        with pytest.raises(ValueError):
            mirror_step(problem, np.ones(2), 0.0)


def reference_rate_violation(problem, x0, steps):
    """Step by step, from first principles: the first (T, gap, bound) with
    f(x_T) above 2 L C R^2 / T, or None."""
    f = lambda x: 0.5 * float(x @ problem.hessian @ x)
    f0 = f(x0)
    lam = scipy.linalg.eigh(problem.metric, problem.hessian, eigvals_only=True)
    coeff = 2.0 * problem.lipschitz_L * problem.compat_C * 2.0 * f0 * float(np.max(lam))
    x = x0
    for k in range(1, steps + 1):
        x = grad_step(problem, x)
        if f(x) > coeff / k + 1e-12 * max(1.0, f0):
            return k, f(x), coeff / k
    return None


class TestDescend:
    # Orders 50 and 200 besides 1-3: numpy may take a product down another path by size.
    @pytest.mark.parametrize("dim", [1, 2, 3, 50, 200])
    @pytest.mark.parametrize("with_metric", [False, True])
    def test_rows_are_repeated_grad_steps(self, dim, with_metric):
        rng = np.random.default_rng(10 + dim)
        problem = random_quadratic(rng, dim=dim, with_metric=with_metric)
        x = rng.normal(size=dim) * 2.0
        xs = descend(problem, x, 40)
        assert xs.shape == (41, dim)
        assert np.array_equal(xs[0], x)
        rate = 1.0 / (problem.compat_C * problem.lipschitz_L)
        # The step map I - rate g^-1 H, from one solve with the metric's factor.
        t = np.eye(dim) - rate * linalg.solve_from_factor(problem.metric_factor, problem.hessian)
        for row in xs[1:]:
            assert np.array_equal(row, t @ x)
            x = grad_step(problem, x)
            assert row.tobytes() == x.tobytes()  # bit for bit, signed zeros too

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("with_metric", [False, True])
    def test_matches_an_independent_solve_recursion(self, dim, with_metric):
        # Against x - rate np.linalg.solve(g, H x), one solve per step, over
        # 200 steps: within 1e-13 of the trajectory's largest entry (about
        # 4e-16 is seen on 200 random problems).
        rng = np.random.default_rng(30 + dim)
        for _ in range(10):
            problem = random_quadratic(rng, dim=dim, with_metric=with_metric)
            x = rng.normal(size=dim) * 2.0
            rate = 1.0 / (problem.compat_C * problem.lipschitz_L)
            expected = [x]
            for _ in range(200):
                x = x - rate * np.linalg.solve(problem.metric, problem.hessian @ x)
                expected.append(x)
            expected = np.array(expected)
            xs = descend(problem, expected[0], 200)
            assert np.max(np.abs(xs - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_one_solve_per_descent(self, monkeypatch):
        # The step map is formed once per descent, not once per row.
        calls = []
        original = linalg.solve_from_factor

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(linalg, "solve_from_factor", counted)
        rng = np.random.default_rng(13)
        problem = random_quadratic(rng, with_metric=True)
        x0 = rng.normal(size=3)
        descend(problem, x0, 200)
        assert len(calls) == 1
        calls.clear()
        verify_rate(problem, x0, 200)
        assert len(calls) == 1

    def test_f_and_prog_over_a_stack_match_each_point(self):
        rng = np.random.default_rng(11)
        problem = random_quadratic(rng, with_metric=True)
        xs = descend(problem, rng.normal(size=3), 20)
        np.testing.assert_allclose(problem.f(xs), [problem.f(x) for x in xs], rtol=1e-13)
        np.testing.assert_allclose(prog(problem, xs), [prog(problem, x) for x in xs], rtol=1e-13)
        assert isinstance(problem.f(xs[0]), float) and isinstance(prog(problem, xs[0]), float)

    def test_report_carries_the_iterates(self):
        rng = np.random.default_rng(12)
        problem = random_quadratic(rng, with_metric=True)
        x0 = rng.normal(size=3)
        report = verify_rate(problem, x0, 30)
        assert np.array_equal(report.iterates, descend(problem, x0, 30))


class TestSublevelRadius:
    def test_equals_the_eigh_radius_bit_for_bit(self):
        # One dsygvd call against the scipy.linalg.eigh wrapper around it, on
        # identity, diagonal and dense SPD metrics of orders 1-40.
        rng = np.random.default_rng(40)
        for k in range(120):
            dim = 1 + k % 40
            m = rng.normal(size=(dim, dim))
            h = m @ m.T + 0.5 * np.eye(dim)
            kind = k % 3
            if kind == 0:
                g = None
            elif kind == 1:
                g = np.diag(rng.uniform(0.5, 3.0, size=dim))
            else:
                a = rng.normal(size=(dim, dim))
                g = a @ a.T + np.eye(dim)
            problem = RiemannProblem.quadratic(h, g)
            f0 = float(rng.uniform(0.1, 10.0))
            lam = scipy.linalg.eigh(problem.metric, problem.hessian, eigvals_only=True)
            expected = float(np.sqrt(2.0 * f0 * np.max(lam)))
            assert _sublevel_radius(problem, f0) == expected

    def test_indefinite_hessian_names_its_leading_minor(self):
        # f0 = 0.5 > 0 from x0 = (1, 0); H's leading minor of order 2 is -1.
        problem = RiemannProblem.quadratic(np.diag([1.0, -1.0]))
        with pytest.raises(NotPositiveDefinite, match="^leading minor of order 2 of the hessian "):
            verify_rate(problem, np.array([1.0, 0.0]), 10)

    @pytest.mark.parametrize("field", ["hessian", "metric"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_quadratic_refuses_a_non_finite_entry(self, field, bad):
        # eigvalsh would make L or C NaN, and every step from it NaN.
        a = np.array([[1.0, bad], [bad, 2.0]])
        h, g = (a, None) if field == "hessian" else (np.eye(2), a)
        with pytest.raises(ValueError, match=rf"^{field} entry \(0, 1\) is not finite$"):
            RiemannProblem.quadratic(h, g)


class TestFrozenProblem:
    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(RiemannProblem)])
    def test_assigning_a_field_raises(self, field):
        problem = RiemannProblem.quadratic(np.diag([2.0, 1.0]))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(problem, field, getattr(problem, field))

    @pytest.mark.parametrize("field", ["hessian", "metric", "metric_factor"])
    def test_arrays_are_read_only_copies_of_the_callers(self, field):
        h, g = np.diag([2.0, 1.0]), 2.0 * np.eye(2)
        problem = RiemannProblem.quadratic(h, g)
        with pytest.raises(ValueError, match="read-only"):
            getattr(problem, field)[1, 0] = 1.0
        h[1, 0] = g[1, 0] = 1.0  # the caller's arrays stay writable, and apart
        assert problem.hessian[1, 0] == problem.metric[1, 0] == 0.0


class TestVerifyRate:
    def test_euclidean_quadratics_from_random_starts(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            problem = random_quadratic(rng)
            x0 = rng.normal(size=3) * 3.0
            report = verify_rate(problem, x0, 200)
            assert np.all(report.gaps <= report.bounds + 1e-10)

    def test_start_at_minimizer(self):
        problem = RiemannProblem.quadratic(np.diag([3.0, 1.0]))
        report = verify_rate(problem, np.zeros(2), 50)
        np.testing.assert_allclose(report.gaps, 0.0, atol=1e-18)

    def test_anisotropic_metric(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            problem = random_quadratic(rng, with_metric=True)
            verify_rate(problem, rng.normal(size=3) * 2.0, 200)

    def test_falsified_constant_raises(self):
        # Shrinking L below its certified value breaks the guarantee chain;
        # the harness must notice.
        h = np.diag([4.0, 1.0])
        problem = RiemannProblem.quadratic(h)
        problem = dataclasses.replace(problem, lipschitz_L=0.05 * problem.lipschitz_L)
        with pytest.raises(RateViolation):
            verify_rate(problem, np.array([3.0, 2.0]), 200)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("with_metric", [False, True])
    def test_violation_at_the_reference_step(self, dim, with_metric):
        # The first offending prefix, its gap and its bound are those of a
        # step-by-step loop.
        rng = np.random.default_rng(20 + dim)
        problem = random_quadratic(rng, dim=dim, with_metric=with_metric)
        # first violations at T = 1..7
        problem = dataclasses.replace(problem, lipschitz_L=0.4 * problem.lipschitz_L)
        x0 = rng.normal(size=dim) * 3.0
        expected = reference_rate_violation(problem, x0, 200)
        assert expected is not None
        with pytest.raises(RateViolation) as exc:
            verify_rate(problem, x0, 200)
        step, gap, bound = expected
        assert exc.value.step == step
        assert exc.value.gap == pytest.approx(gap, rel=1e-12)
        assert exc.value.bound == pytest.approx(bound, rel=1e-12)


def sampled_constant_ratios(problem, rng, n_pairs=200, span=2.0):
    """Largest |x - y|_E / (sqrt(C) |x - y|_g) and |grad f(x) - grad f(y)| /
    (L |x - y|_E) over pairs drawn from the cube of half-width span around
    the minimizer; both are <= 1 when the certified C and L hold there."""
    max_compat, max_lip = 0.0, 0.0
    for _ in range(n_pairs):
        x = rng.uniform(-span, span, size=problem.dim)
        y = rng.uniform(-span, span, size=problem.dim)
        d = x - y
        norm_e = np.linalg.norm(d)
        if norm_e < 1e-12:
            continue
        norm_g = np.sqrt(d @ problem.metric @ d)
        max_compat = max(max_compat, norm_e / (np.sqrt(problem.compat_C) * norm_g))
        grad_diff = np.linalg.norm(problem.grad(x) - problem.grad(y))
        max_lip = max(max_lip, grad_diff / (problem.lipschitz_L * norm_e))
    return max_compat, max_lip


class TestCompatibility:
    def test_sampled_constants_hold(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            problem = random_quadratic(rng, with_metric=True)
            compat, lip = sampled_constant_ratios(problem, rng)
            assert compat <= 1.0 + 1e-12
            assert lip <= 1.0 + 1e-12

