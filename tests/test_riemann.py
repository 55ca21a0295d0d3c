import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from sobnat.errors import RateViolation
from sobnat.riemann import (
    RiemannProblem,
    bregman_quadratic,
    check_compatibility,
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
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("with_metric", [False, True])
    def test_rows_are_repeated_grad_steps(self, dim, with_metric):
        rng = np.random.default_rng(10 + dim)
        problem = random_quadratic(rng, dim=dim, with_metric=with_metric)
        x = rng.normal(size=dim) * 2.0
        xs = descend(problem, x, 40)
        assert xs.shape == (41, dim)
        assert np.array_equal(xs[0], x)
        for row in xs[1:]:
            x = grad_step(problem, x)
            assert np.array_equal(row, x)

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
        problem.lipschitz_L = 0.05 * problem.lipschitz_L
        with pytest.raises(RateViolation):
            verify_rate(problem, np.array([3.0, 2.0]), 200)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("with_metric", [False, True])
    def test_violation_at_the_reference_step(self, dim, with_metric):
        # The first offending prefix, its gap and its bound are those of a
        # step-by-step loop.
        rng = np.random.default_rng(20 + dim)
        problem = random_quadratic(rng, dim=dim, with_metric=with_metric)
        problem.lipschitz_L = 0.4 * problem.lipschitz_L  # first violations at T = 1..7
        x0 = rng.normal(size=dim) * 3.0
        expected = reference_rate_violation(problem, x0, 200)
        assert expected is not None
        with pytest.raises(RateViolation) as exc:
            verify_rate(problem, x0, 200)
        step, gap, bound = expected
        assert exc.value.step == step
        assert exc.value.gap == pytest.approx(gap, rel=1e-12)
        assert exc.value.bound == pytest.approx(bound, rel=1e-12)


class TestCompatibility:
    def test_sampled_constants_hold(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            problem = random_quadratic(rng, with_metric=True)
            compat, lip = check_compatibility(problem, rng, n_pairs=200)
            assert compat <= 1.0 + 1e-12
            assert lip <= 1.0 + 1e-12


class TestBregman:
    def test_quadratic_generator_divergence(self):
        # V_x(y) for w = 0.5 |.|^2_g, evaluated from the definition, equals
        # 0.5 |x-y|^2_g.
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = rng.normal(size=(3, 3))
            g = m @ m.T + 0.2 * np.eye(3)
            x, y = rng.normal(size=3), rng.normal(size=3)
            direct = 0.5 * float((x - y) @ g @ (x - y))
            assert bregman_quadratic(g, x, y) == pytest.approx(direct, abs=1e-12)

    def test_quadratic_generator_is_self_conjugate(self):
        # sup_x <x, z>_g - 0.5 |x|^2_g is attained at x = z with value
        # 0.5 |z|^2_g; checked against a numeric maximization.
        rng = np.random.default_rng(8)
        for _ in range(5):
            m = rng.normal(size=(2, 2))
            g = m @ m.T + 0.3 * np.eye(2)
            z = rng.normal(size=2)
            res = scipy.optimize.minimize(
                lambda x: -(float(x @ g @ z) - 0.5 * float(x @ g @ x)),
                np.zeros(2),
                method="BFGS",
                tol=1e-12,
            )
            assert -res.fun == pytest.approx(0.5 * float(z @ g @ z), abs=1e-8)
