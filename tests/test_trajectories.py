import math

import numpy as np
import pytest

from mfoc.measures import ControlPath, GridMeasure, ParticleMeasure, PerturbationPath
from mfoc.model import ActivationField, ConfinementPotential, Dataset, FieldQuadrature
from mfoc.trajectories import (
    DivergenceError,
    _measure_arrays,
    backward_solve,
    curvature_solve,
    default_test_functions,
    duality_residual,
    forward_solve,
    tangent_solve,
)
from conftest import make_config, prior_path, refined

POT = ConfinementPotential()


def tilted_grid(res=64, halfwidth=4.0, beta=(0.8, -0.4), curvature=0.0):
    probe = GridMeasure(halfwidth, res, np.zeros((res, res)))
    mids = probe.midpoints()
    lv = -POT.value(mids) - mids @ np.asarray(beta)
    if curvature:
        lv = lv - curvature * np.cos(mids[:, 0] + 0.5 * mids[:, 1])
    return GridMeasure.from_log_values(halfwidth, res, lv.reshape(res, res))


def tilted_path(config, **kw):
    return ControlPath.constant(config.grid, tilted_grid(**kw))


def mean_drift(field, x, m):
    """int b(x, a) dm(a) at the one state x, (1,), from one kernel call."""
    support, weights = _measure_arrays(m)
    quad = FieldQuadrature(field, support)
    return quad.tiers(np.array([[x]]), 0, (quad.fold(weights),))[0][0][0]


class TestMeanfieldDrift:
    def test_symmetric_prior_gives_zero(self):
        config = make_config(n=4)
        _, prior = prior_path(config)
        v = mean_drift(config.field, 0.7, prior.measure)
        assert abs(v[0]) < 1e-14

    def test_point_mass(self):
        config = make_config(n=4)
        a_star = np.array([[1.2, -0.3]])
        v = mean_drift(config.field, 0.5, ParticleMeasure(a_star))
        want = config.field.value([0.5], a_star[0])
        assert np.allclose(v, want)

    def test_grid_gaussian_matches_refined_quadrature(self):
        config = make_config(n=4)

        def gauss(res):
            probe = GridMeasure(4.0, res, np.zeros((res, res)))
            mids = probe.midpoints()
            lv = -np.sum((mids - [0.5, -0.2]) ** 2, axis=1) / (2 * 0.6**2)
            return GridMeasure.from_log_values(4.0, res, lv.reshape(res, res))

        coarse = mean_drift(config.field, 0.3, gauss(64))
        fine = mean_drift(config.field, 0.3, gauss(512))
        assert coarse[0] == pytest.approx(fine[0], rel=1e-6)


class TestForwardSolve:
    def test_zero_drift_keeps_features(self):
        config = make_config(n=8, nt=17)
        frozen = ParticleMeasure(np.zeros((1, 2)))  # b(x, 0) = 0
        path = ControlPath.constant(config.grid, frozen)
        flow = forward_solve(config, path)
        assert np.array_equal(flow.x[-1], flow.x[0])

    def test_constant_drift_is_exact(self):
        # a1 = 0 makes b(x, a) = tanh(a2), constant in x
        config = make_config(n=8, nt=17)
        a2 = 0.9
        path = ControlPath.constant(
            config.grid, ParticleMeasure(np.array([[0.0, a2]]))
        )
        flow = forward_solve(config, path)
        want = config.dataset.x + math.tanh(a2) * (
            config.grid.horizon - config.grid.t0
        )
        assert np.max(np.abs(flow.x[-1] - want)) < 1e-13

    def test_initial_condition_and_labels(self):
        config = make_config(n=8, nt=9)
        path, _ = prior_path(config, res=32)
        flow = forward_solve(config, path)
        assert np.array_equal(flow.x[0], config.dataset.x)
        assert np.array_equal(flow.y, config.dataset.y)

    def test_observed_order_at_least_fourth(self):
        config = make_config(n=8, nt=17)
        path = tilted_path(config, res=32)
        oracle = forward_solve(config, refined(path, 16)).x[-1]
        errs = [
            np.max(np.abs(forward_solve(config, refined(path, s)).x[-1] - oracle))
            for s in (1, 2, 4)
        ]
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 3.7, (errs, orders)

    def test_divergence_detected(self, monkeypatch):
        config = make_config(n=2, nt=5)
        path, _ = prior_path(config, res=16)
        original = FieldQuadrature.tiers

        def poisoned(self, X, order, *args, **kwargs):
            out = original(self, X, order, *args, **kwargs)
            return ([np.full_like(d, np.nan) for d in out[0]],) + tuple(out[1:])

        monkeypatch.setattr(FieldQuadrature, "tiers", poisoned)
        with pytest.raises(DivergenceError, match="node 1"):
            forward_solve(config, path)


class TestBackwardSolve:
    def test_terminal_condition_exact(self):
        config = make_config(n=8, nt=9)
        path, _ = prior_path(config, res=32)
        flow = forward_solve(config, path)
        flow = backward_solve(config, path, flow)
        want = config.loss.grad_x(flow.x[-1], flow.y)
        assert np.array_equal(flow.z[-1], want)

    def test_flat_field_gives_constant_adjoint(self):
        # a1 = 0: grad_x b vanishes along the whole path
        config = make_config(n=8, nt=17)
        path = ControlPath.constant(
            config.grid, ParticleMeasure(np.array([[0.0, 0.7]]))
        )
        flow = backward_solve(config, path, forward_solve(config, path))
        for k in range(config.grid.nt):
            assert np.allclose(flow.z[k], flow.z[-1], atol=1e-14)

    def test_zero_problem_adjoint_vanishes(self):
        config = make_config(n=8, nt=9, zero_problem=True)
        frozen = ParticleMeasure(np.zeros((1, 2)))
        path = ControlPath.constant(config.grid, frozen)
        flow = backward_solve(config, path, forward_solve(config, path))
        assert np.max(np.abs(flow.z)) == 0.0

    def test_observed_order_at_least_fourth(self):
        config = make_config(n=8, nt=17)
        path = tilted_path(config, res=32)
        fine = refined(path, 16)
        oracle = backward_solve(config, fine, forward_solve(config, fine)).z[0]
        errs = []
        for s in (1, 2, 4):
            fine = refined(path, s)
            f = forward_solve(config, fine)
            errs.append(np.max(np.abs(backward_solve(config, fine, f).z[0] - oracle)))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 3.7, (errs, orders)

    def test_adjoint_matches_value_function_gradient(self):
        # reconstruct u_t(x, y) = L(X_T^{t,x}, y) by running the tail problem
        # from probe points and differentiate by central differences
        config = make_config(n=6, nt=33)
        path = tilted_path(config, res=48)
        flow = backward_solve(config, path, forward_solve(config, path))
        k = 16
        h = 1e-4
        tail_grid = config.grid.tail(k)
        tail_path = ControlPath.constant(tail_grid, path.measures[0])

        def u_at(xs):
            from dataclasses import replace

            tail_dataset = Dataset(xs, config.dataset.y)
            tail_config = replace(config, dataset=tail_dataset, grid=tail_grid)
            tf = forward_solve(tail_config, tail_path)
            return tail_config.loss.value(tf.x[-1], tf.y)

        up = u_at(flow.x[k] + h)
        dn = u_at(flow.x[k] - h)
        fd = (up - dn) / (2 * h)
        assert np.max(np.abs(fd - flow.z[k][:, 0])) < 1e-6

    def test_hessian_transport_matches_fd(self):
        config = make_config(n=6, nt=33)
        path = tilted_path(config, res=48)
        flow = curvature_solve(config, path, forward_solve(config, path))
        k = 16
        h = 1e-3
        tail_grid = config.grid.tail(k)
        tail_path = ControlPath.constant(tail_grid, path.measures[0])

        def u_at(xs):
            from dataclasses import replace

            tail_dataset = Dataset(xs, config.dataset.y)
            tail_config = replace(config, dataset=tail_dataset, grid=tail_grid)
            tf = forward_solve(tail_config, tail_path)
            return tail_config.loss.value(tf.x[-1], tf.y)

        fd2 = (u_at(flow.x[k] + h) - 2 * u_at(flow.x[k]) + u_at(flow.x[k] - h)) / h**2
        assert np.max(np.abs(fd2 - flow.hess[k])) < 1e-4


class TestPermutationInvariance:
    def test_push_forward_mean_invariant(self):
        config = make_config(n=16, nt=9)
        path = tilted_path(config, res=32)
        flow = forward_solve(config, path)
        perm = np.random.default_rng(5).permutation(16)
        shuffled = Dataset(config.dataset.x[perm], config.dataset.y[perm])
        from dataclasses import replace

        flow_p = forward_solve(replace(config, dataset=shuffled), path)
        for probe in default_test_functions():
            a = np.sort(probe.value(flow.x[-1], flow.y))
            b = np.sort(probe.value(flow_p.x[-1], flow_p.y))
            assert np.array_equal(a, b)


class TestDualityResidual:
    def test_constant_test_function_exact(self):
        config = make_config(n=8, nt=9)
        path = tilted_path(config, res=32)
        const = default_test_functions()[0]
        assert duality_residual(config, path, const) == 0.0

    def test_zero_drift_exact(self):
        config = make_config(n=8, nt=9)
        frozen = ParticleMeasure(np.zeros((1, 2)))
        path = ControlPath.constant(config.grid, frozen)
        for probe in default_test_functions():
            assert duality_residual(config, path, probe) == 0.0

    def test_second_order_in_dt(self):
        probe = default_test_functions()[3]
        residuals = []
        for nt in (17, 33, 65):
            config = make_config(n=8, nt=nt)
            path = tilted_path(config, res=32)
            residuals.append(duality_residual(config, path, probe))
        orders = [
            math.log2(residuals[i] / residuals[i + 1]) for i in range(2)
        ]
        assert min(orders) >= 1.8, (residuals, orders)


class TestTangentSolve:
    @staticmethod
    def _bump_eta(config, res=32, halfwidth=4.0, profile=None):
        probe = GridMeasure(halfwidth, res, np.zeros((res, res)))
        mids = probe.midpoints()
        raw = np.exp(-np.sum((mids - [0.6, 0.2]) ** 2, axis=1)) - np.exp(
            -np.sum((mids + [0.6, 0.2]) ** 2, axis=1)
        )
        raw = raw.reshape(res, res)
        raw -= raw.mean()
        layers = []
        for k in range(config.grid.nt):
            w = 1.0 if profile is None else profile(config.grid.nodes[k])
            layers.append(w * raw)
        return PerturbationPath(config.grid, halfwidth, res, np.stack(layers))

    def test_zero_perturbation(self):
        config = make_config(n=8, nt=9)
        path = tilted_path(config, res=32)
        flow = forward_solve(config, path)
        eta = PerturbationPath(
            config.grid, 4.0, 32, np.zeros((config.grid.nt, 32, 32))
        )
        tangent = tangent_solve(config, path, flow, eta)
        assert np.max(np.abs(tangent.dx)) == 0.0

    def test_flat_field_integrates_directly(self):
        # grad_x b = 0 along an a1 = 0 grid path: dX_T = (T - t0) b(X0, eta)
        config = make_config(n=8, nt=17)
        res, hw = 32, 4.0
        probe = GridMeasure(hw, res, np.zeros((res, res)))
        mids = probe.midpoints()
        lv = -50.0 * mids[:, 0] ** 2 - POT.value(mids)  # concentrate near a1 = 0
        base = GridMeasure.from_log_values(hw, res, lv.reshape(res, res))
        path = ControlPath.constant(config.grid, base)
        flow = forward_solve(config, path)
        eta = self._bump_eta(config, res=res)
        tangent = tangent_solve(config, path, flow, eta)
        quad = FieldQuadrature(config.field, base.midpoints())
        w_eta = eta.node(0).ravel() * eta.cell_volume
        b_eta = quad.tiers(flow.x[0], 0, (quad.fold(w_eta),))[0][0]
        horizon = config.grid.horizon - config.grid.t0
        # the a1-variance is tiny but not zero; tolerance reflects that
        assert np.max(np.abs(tangent.dx[-1] - horizon * b_eta)) < 5e-4

    def test_linearity(self):
        config = make_config(n=8, nt=9)
        path = tilted_path(config, res=32)
        flow = forward_solve(config, path)
        eta1 = self._bump_eta(config, res=32)
        eta2 = self._bump_eta(config, res=32, profile=lambda t: math.sin(3 * t))
        t1 = tangent_solve(config, path, flow, eta1).dx
        t2 = tangent_solve(config, path, flow, eta2).dx
        combo = PerturbationPath(
            config.grid, 4.0, 32, 2.0 * eta1.values - 0.5 * eta2.values
        )
        t_combo = tangent_solve(config, path, flow, combo).dx
        scale = max(np.max(np.abs(t_combo)), 1e-30)
        assert np.max(np.abs(t_combo - (2.0 * t1 - 0.5 * t2))) / scale < 1e-10

    def test_matches_finite_difference_push_forward(self):
        # density-relative perturbation keeps nu + lambda eta positive, so the
        # rerun oracle needs no clamping
        config = make_config(n=8, nt=33)
        res = 32
        base = tilted_grid(res=res)
        mids = base.midpoints()
        g = 0.8 * np.cos(1.3 * mids[:, 0] - 0.7 * mids[:, 1] + 0.4).reshape(res, res)
        g -= float(np.sum(g * base.values)) * base.cell_volume
        eta = PerturbationPath(
            config.grid,
            4.0,
            res,
            np.stack([base.values * g] * config.grid.nt),
        )
        path = ControlPath.constant(config.grid, base)
        flow = forward_solve(config, path)
        tangent = tangent_solve(config, path, flow, eta)
        errs = []
        for lam in (1e-2, 1e-3):
            perturbed = [
                GridMeasure(4.0, res, base.values + lam * eta.node(k))
                for k in range(config.grid.nt)
            ]
            flow_lam = forward_solve(config, path.replace_measures(perturbed))
            fd = (flow_lam.x[-1] - flow.x[-1]) / lam
            errs.append(np.max(np.abs(fd - tangent.dx[-1])))
        # error is O(lambda): ratio of errors ~ 10
        assert errs[0] / errs[1] == pytest.approx(10.0, rel=0.25), errs


class TestRidgeFamilySymmetry:
    def test_outer_weight_prior_drift_vanishes(self):
        # the d' = 3 family is odd in the outer weight, so the grid
        # quadrature of the prior drift cancels
        from mfoc.measures import PriorMeasure
        from mfoc.model import ActivationField, RIDGE_OUTER

        field = ActivationField(family=RIDGE_OUTER)
        prior = PriorMeasure.build(POT, 4.0, 24, field.dprime)
        for x in (-1.2, 0.0, 0.7, 2.1):
            v = mean_drift(field, x, prior.measure)
            assert abs(v[0]) < 1e-14


class TestNodeQuadratures:
    def test_grid_path_shares_support_and_keeps_weights(self):
        from mfoc.trajectories import _node_quadratures

        config = make_config(n=4, nt=4)
        path = ControlPath(
            config.grid,
            tuple(tilted_grid(res=16, beta=(0.3 * k, -0.2)) for k in range(4)),
        )
        nodes = _node_quadratures(config.field, path)
        assert all(quad is nodes[0][0] for quad, _ in nodes)
        for (quad, fold), m in zip(nodes, path.measures):
            support, weights = _measure_arrays(m)
            assert np.array_equal(quad.support, support)
            assert np.array_equal(fold._weights(0), weights)
