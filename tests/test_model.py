
import mpmath
import numpy as np
import pytest

from mfoc.model import (
    COMPONENTWISE,
    RIDGE_OUTER,
    ActivationField,
    ConfigError,
    ConfinementPotential,
    Dataset,
    FieldQuadrature,
    TerminalLoss,
    TimeGrid,
    load_problem_config,
    rng_for,
)


def central_diff(fn, x, step=1e-5):
    """Componentwise central finite differences, the gradient oracle."""
    x = np.asarray(x, dtype=float)
    out = []
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = step
        out.append((np.asarray(fn(x + e)) - np.asarray(fn(x - e))) / (2 * step))
    return np.stack(out, axis=-1)


def rel_err(got, want):
    got, want = np.asarray(got, float), np.asarray(want, float)
    scale = max(1.0, float(np.max(np.abs(want))))
    return float(np.max(np.abs(got - want))) / scale


class TestActivationField:
    def test_vanishes_at_zero_parameter(self):
        for family in (RIDGE_OUTER, COMPONENTWISE):
            field = ActivationField(family=family)
            for x in (-1.3, 0.0, 0.5, 2.0):
                assert np.allclose(field.value([x], np.zeros(field.dprime)), 0.0)

    def test_sigma_zero_gives_zero(self):
        field = ActivationField(family=RIDGE_OUTER)
        # a1 = a2 = 0 makes the ridge argument vanish; tanh(0) = 0
        assert field.value([0.5], [2.0, 0.0, 0.0])[0] == 0.0

    def test_tanh_value_against_arbitrary_precision(self):
        field = ActivationField(family=RIDGE_OUTER)
        got = field.value([1.0], [1.0, 1.0, 0.0])[0]
        want = float(mpmath.tanh(1))  # 0.7615941559557649
        assert abs(got - want) < 1e-15

    def test_componentwise_logistic_rejected(self):
        with pytest.raises(ConfigError):
            ActivationField(family=COMPONENTWISE, sigma="logistic")

    @pytest.mark.parametrize(
        "family,sigma",
        [(RIDGE_OUTER, "tanh"), (RIDGE_OUTER, "logistic"), (COMPONENTWISE, "tanh")],
    )
    def test_gradients_match_finite_differences(self, family, sigma):
        field = ActivationField(family=family, sigma=sigma)
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.uniform(-2, 2, 1)
            a = rng.uniform(-2, 2, field.dprime)
            gx, ga = field.jacobians(x, a)
            fd_x = central_diff(lambda xx: field.value(xx, a), x)
            fd_a = central_diff(lambda aa: field.value(x, aa), a)
            assert rel_err(gx, fd_x) < 1e-6
            assert rel_err(ga, fd_a) < 1e-6

    def test_zero_parameter_kills_x_gradient(self):
        field = ActivationField(family=RIDGE_OUTER)
        gx, _ = field.jacobians([0.7], np.zeros(3))
        assert np.allclose(gx, 0.0)
        # a1 = 0 alone already removes the x-dependence
        gx, _ = field.jacobians([0.7], [1.5, 0.0, 0.8])
        assert np.allclose(gx, 0.0)

    def test_linear_growth_bound(self):
        # |b| <= sup|sigma| |a0| for the outer-weight family
        field = ActivationField(family=RIDGE_OUTER)
        rng = np.random.default_rng(5)
        for _ in range(200):
            x = rng.uniform(-3, 3, 1)
            a = rng.uniform(-4, 4, 3)
            assert np.linalg.norm(field.value(x, a)) <= abs(a[0]) + 1e-12

    def test_oddness_in_outer_weight(self):
        field = ActivationField(family=RIDGE_OUTER)
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rng.uniform(-2, 2, 1)
            a = rng.uniform(-3, 3, 3)
            flipped = np.array([-a[0], a[1], a[2]])
            assert np.allclose(
                field.value(x, flipped), -field.value(x, a), atol=1e-14
            )

    def test_batch_matches_pointwise(self):
        # unit folds pick single support points out of the fused kernel, and
        # a unit weight on one state does the same for grad_a_batch
        for family in (RIDGE_OUTER, COMPONENTWISE):
            field = ActivationField(family=family)
            rng = np.random.default_rng(9)
            X = rng.uniform(-2, 2, (7, 1))
            A = rng.uniform(-3, 3, (11, field.dprime))
            quad = FieldQuadrature(field, A)
            b, bx, _ = quad.tiers(X, 2, [quad.fold(e) for e in np.eye(11)])
            for i in range(7):
                ga = field.grad_a_batch(X[i : i + 1], A, np.ones((1, 1)))
                for j in range(11):
                    assert np.allclose(b[j][i], field.value(X[i], A[j]))
                    gx_ij, ga_ij = field.jacobians(X[i], A[j])
                    assert np.allclose(bx[j][i], gx_ij)
                    assert np.allclose(ga[j], ga_ij)

    def test_batch_second_derivative_matches_fd(self):
        field = ActivationField()
        rng = np.random.default_rng(13)
        X = rng.uniform(-2, 2, (5, 1))
        A = rng.uniform(-3, 3, (6, 2))
        quad = FieldQuadrature(field, A)
        bxx = quad.tiers(X, 2, [quad.fold(e) for e in np.eye(6)])[2]
        step = 1e-4
        for i in range(5):
            for j in range(6):
                fd = (
                    field.value(X[i] + step, A[j])
                    - 2 * field.value(X[i], A[j])
                    + field.value(X[i] - step, A[j])
                )[0] / step**2
                assert abs(bxx[j][i] - fd) < 1e-5


class TestConfinementPotential:
    def test_origin(self):
        pot = ConfinementPotential(c1=1.0, c2=1.0)
        a = np.zeros(2)
        value, grad = pot.value(a), pot.grad(a)
        min_eig = np.linalg.eigvalsh(pot.hessian(a))[0]
        assert value == 0.0
        assert np.allclose(grad, 0.0)
        assert min_eig == pytest.approx(2.0 * pot.c2)

    def test_unit_sphere_value(self):
        pot = ConfinementPotential(c1=1.0, c2=1.0)
        a = np.array([1.0, 0.0]) / 1.0
        value = pot.value(a)
        assert value == pytest.approx(2.0)

    def test_gradient_matches_fd(self):
        pot = ConfinementPotential()
        rng = np.random.default_rng(17)
        for _ in range(100):
            a = rng.uniform(-3, 3, 2)
            grad = pot.grad(a)
            fd = central_diff(pot.value, a)
            assert rel_err(grad, fd) < 1e-6

    def test_hessian_lower_bound(self):
        # smallest eigenvalue of the analytic Hessian via dense eigensolve
        pot = ConfinementPotential()
        c = pot.convexity_constant
        rng = np.random.default_rng(19)
        for _ in range(200):
            a = rng.uniform(-4, 4, 2)
            min_eig = float(np.linalg.eigvalsh(pot.hessian(a))[0])
            assert min_eig >= c * (1.0 + a @ a) * (1.0 - 1e-9)

    def test_even(self):
        pot = ConfinementPotential()
        rng = np.random.default_rng(23)
        a = rng.uniform(-3, 3, (50, 2))
        assert np.allclose(pot.value(a), pot.value(-a))


class TestTerminalLoss:
    def test_diagonal_zero(self):
        loss = TerminalLoss()
        v, g = loss.value([0.7], [0.7]), loss.grad_x([0.7], [0.7])
        assert v == 0.0
        assert np.allclose(g, 0.0)

    def test_scalar_example(self):
        loss = TerminalLoss()
        v, g = loss.value([1.0], [0.0]), loss.grad_x([1.0], [0.0])
        assert v == pytest.approx(0.5)
        assert g[0] == pytest.approx(1.0)

    def test_gradient_matches_fd(self):
        loss = TerminalLoss()
        rng = np.random.default_rng(29)
        for _ in range(100):
            x, y = rng.uniform(-3, 3, 1), rng.uniform(-3, 3, 1)
            g = loss.grad_x(x, y)
            fd = central_diff(lambda xx: loss.value(xx, y), x, step=1e-6)
            assert rel_err(g, fd) < 1e-8


class TestConfigPlumbing:
    def test_unknown_key_rejected(self):
        doc = {"epsilon": 0.5, "dataset": {"points": [[0.0, 0.0]]}, "grid": {}, "field": {}}
        doc["unexpected"] = 1
        with pytest.raises(ConfigError, match="unexpected"):
            load_problem_config(doc)
        doc.pop("unexpected")
        doc["field"]["extra"] = True
        with pytest.raises(ConfigError, match="field.*extra"):
            load_problem_config(doc)

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            ConfinementPotential(c1=-1.0)
        with pytest.raises(ConfigError):
            TimeGrid(1.0, 0.5, 5)
        with pytest.raises(ConfigError):
            Dataset(np.zeros((0, 1)), np.zeros((0, 1)))

    def test_rng_streams_are_stable_and_distinct(self):
        a1 = rng_for(42, "descent").standard_normal(4)
        a2 = rng_for(42, "descent").standard_normal(4)
        b = rng_for(42, "pl-scan").standard_normal(4)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)

    def test_time_grid_tail(self):
        grid = TimeGrid(0.0, 1.0, 9)
        tail = grid.tail(4)
        assert tail.nt == 5
        assert tail.t0 == pytest.approx(grid.nodes[4])
        assert tail.dt == pytest.approx(grid.dt)


class TestGrowthBounds:
    def test_x_gradient_quadratic_growth(self):
        # |grad_x b| <= sup|sigma'| (1 + |a|^2) for both bounded families
        for family in (RIDGE_OUTER, COMPONENTWISE):
            field = ActivationField(family=family)
            rng = np.random.default_rng(41)
            for _ in range(200):
                x = rng.uniform(-3, 3, 1)
                a = rng.uniform(-4, 4, field.dprime)
                gx, _ = field.jacobians(x, a)
                assert np.max(np.abs(gx)) <= 1.0 + float(a @ a) + 1e-12
