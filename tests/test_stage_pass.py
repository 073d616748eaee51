"""The linearized sweeps on the shared stage pass against the interval loops
they replaced, and the number of activation-kernel calls they make."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mfoc import cli, linearization, optimizer
from mfoc.cli import _solved_state, load_run_document
from mfoc.linearization import (
    LinearizedMultiplier,
    cross_term_via_multiplier,
    cross_term_via_tangent,
    eta_from,
    linear_map_image,
    quadratic_form,
    second_derivative_check,
    solve_v,
    stability_probe,
)
from mfoc.measures import LOG_FLOOR
from mfoc.model import FieldQuadrature, rng_for
from mfoc.trajectories import (
    DivergenceError,
    TangentFlow,
    _hermite_midpoint,
    _node_quadratures,
    _rk4_between,
    curvature_solve,
    stage_pass,
    tangent_solve,
)

from conftest import fold_drift, fold_grad_x, fold_grad_xx, relative_eta, tier_arrays

MINI = Path(__file__).resolve().parent.parent / "fixtures" / "mini.json"


# -- reference: the per-interval loops that re-evaluate tiers per sweep --------


def reference_tangent_solve(config, path, flow, eta):
    n = flow.n
    nodes = _node_quadratures(config.field, path)
    vol = eta.cell_volume
    dX = np.zeros((path.grid.nt, n, 1))
    dx = np.zeros((n, 1))
    dt = path.grid.dt
    tiers_left = None
    for k in range(path.grid.nt - 1):
        quad, fold = nodes[k]
        eta_fold = quad.fold(eta.node(k).ravel() * vol)
        if tiers_left is None:
            tiers_left = tier_arrays(quad, flow.x[k], 1)
        tiers_right = tier_arrays(quad, flow.x[k + 1], 1)
        drifts = fold_drift(fold, tiers_left), fold_drift(fold, tiers_right)
        x_mid = _hermite_midpoint(flow.x[k], flow.x[k + 1], *drifts, dt)
        tiers_mid = tier_arrays(quad, x_mid, 1)

        def rhs(tiers):
            bx = fold_grad_x(fold, tiers)[:, None, None]
            source = fold_drift(eta_fold, tiers)

            def f(v):
                return np.einsum("nij,nj->ni", bx, v) + source

            return f

        dx = _rk4_between(dx, dt, rhs(tiers_left), rhs(tiers_mid), rhs(tiers_right))
        if not np.all(np.isfinite(dx)):
            raise DivergenceError(f"tangent state diverged at node {k + 1}")
        dX[k + 1] = dx
        tiers_left = tiers_right
    return TangentFlow(dx=dX, flow=flow, eta=eta)


def reference_solve_v(config, path, flow, eta):
    grid = path.grid
    n = flow.n
    nodes = _node_quadratures(config.field, path)
    vol = eta.cell_volume
    dt = grid.dt
    V = np.empty((grid.nt, n))
    DV = np.empty((grid.nt, n))
    state = np.zeros((n, 5))
    state[:, 0] = config.loss.grad_x(flow.x[-1], flow.y)[:, 0]
    state[:, 1] = 1.0
    state[:, 2] = 1.0
    V[-1] = 0.0
    DV[-1] = 0.0
    tiers_right = None
    for k in range(grid.nt - 2, -1, -1):
        quad, fold = nodes[k]
        eta_fold = quad.fold(eta.node(k).ravel() * vol)
        if tiers_right is None:
            tiers_right = tier_arrays(quad, flow.x[k + 1], 2)
        tiers_left = tier_arrays(quad, flow.x[k], 2)
        drifts = fold_drift(fold, tiers_left), fold_drift(fold, tiers_right)
        x_mid = _hermite_midpoint(flow.x[k], flow.x[k + 1], *drifts, dt)
        tiers_mid = tier_arrays(quad, x_mid, 2)

        def rhs(tiers):
            bx = fold_grad_x(fold, tiers)
            bxx = fold_grad_xx(fold, tiers)
            s_eta = fold_drift(eta_fold, tiers)[:, 0]
            sx_eta = fold_grad_x(eta_fold, tiers)

            def f(s):
                z, h, kk, _, _ = s.T
                gp = sx_eta * z + s_eta * h
                return np.stack(
                    [-bx * z, -2.0 * bx * h - bxx * z, -bx * kk, -s_eta * z, -gp / kk],
                    axis=1,
                )

            return f

        state = _rk4_between(state, -dt, rhs(tiers_right), rhs(tiers_mid), rhs(tiers_left))
        V[k] = state[:, 3]
        DV[k] = state[:, 2] * state[:, 4]
        tiers_right = tiers_left
    return LinearizedMultiplier(v=V, dv=DV, config=config, path=path, eta=eta)


def reference_linear_map_image(config, path, flow, eta, stages=None):
    tangent = reference_tangent_solve(config, path, flow, eta)
    multiplier = reference_solve_v(config, path, flow, eta)
    return eta_from(config, path, flow, tangent, multiplier)


def reference_bracket_series(config, path, flow, eta, tangent):
    nodes = _node_quadratures(config.field, path)
    vol = eta.cell_volume
    out = np.empty(path.grid.nt)
    for k in range(path.grid.nt):
        quad, _ = nodes[k]
        eta_fold = quad.fold(eta.node(k).ravel() * vol)
        tiers = tier_arrays(quad, flow.x[k], 1)
        s_eta = fold_drift(eta_fold, tiers)[:, 0]
        sx_eta = fold_grad_x(eta_fold, tiers)
        integrand = sx_eta * flow.z[k][:, 0] + s_eta * flow.hess[k]
        out[k] = float(np.mean(integrand * tangent.dx[k][:, 0]))
    return out


def reference_quadratic_form(config, path, flow, eta):
    tangent = reference_tangent_solve(config, path, flow, eta)
    dt = path.grid.dt
    vol = eta.cell_volume
    weighted = 0.0
    for k in range(path.grid.nt - 1):
        nu = path.measures[k].values
        e = eta.node(k)
        if np.any((np.abs(e) > 0.0) & (nu <= 10.0 * LOG_FLOOR)):
            return math.inf
        ratio = np.zeros_like(e)
        np.divide(e * e, nu, out=ratio, where=nu > 10.0 * LOG_FLOOR)
        weighted += float(np.sum(ratio)) * vol * dt
    series = reference_bracket_series(config, path, flow, eta, tangent)
    cross = float(np.sum(series[:-1])) * dt
    return config.epsilon * weighted + 2.0 * cross


def reference_cross_term_via_tangent(config, path, flow, eta_bracket, tangent):
    nodes = _node_quadratures(config.field, path)
    vol = eta_bracket.cell_volume
    dt = path.grid.dt
    state = np.zeros((flow.n, 3))
    state[:, 0] = config.loss.grad_x(flow.x[-1], flow.y)[:, 0]
    state[:, 1] = 1.0
    tiers_right = None
    for k in range(path.grid.nt - 2, -1, -1):
        quad, fold = nodes[k]
        e2_fold = quad.fold(eta_bracket.node(k).ravel() * vol)
        e1_fold = quad.fold(tangent.eta.node(k).ravel() * vol)
        if tiers_right is None:
            tiers_right = tier_arrays(quad, flow.x[k + 1], 2)
        tiers_left = tier_arrays(quad, flow.x[k], 2)
        drifts = fold_drift(fold, tiers_left), fold_drift(fold, tiers_right)
        x_mid = _hermite_midpoint(flow.x[k], flow.x[k + 1], *drifts, dt)
        tiers_mid = tier_arrays(quad, x_mid, 2)
        dx_l = tangent.dx[k][:, 0]
        dx_r = tangent.dx[k + 1][:, 0]
        ddx_l = fold_grad_x(fold, tiers_left) * dx_l + fold_drift(e1_fold, tiers_left)[:, 0]
        ddx_r = fold_grad_x(fold, tiers_right) * dx_r + fold_drift(e1_fold, tiers_right)[:, 0]
        dx_m = _hermite_midpoint(dx_l, dx_r, ddx_l, ddx_r, dt)

        def rhs(tiers, dx_here):
            bx = fold_grad_x(fold, tiers)
            bxx = fold_grad_xx(fold, tiers)
            s2 = fold_drift(e2_fold, tiers)[:, 0]
            sx2 = fold_grad_x(e2_fold, tiers)

            def f(s):
                z, h = s[:, 0], s[:, 1]
                return np.stack(
                    [-bx * z, -2.0 * bx * h - bxx * z, -(sx2 * z + s2 * h) * dx_here],
                    axis=1,
                )

            return f

        state = _rk4_between(
            state, -dt, rhs(tiers_right, dx_r), rhs(tiers_mid, dx_m), rhs(tiers_left, dx_l)
        )
        tiers_right = tiers_left
    return float(np.mean(state[:, 2]))


def reference_cross_term_via_multiplier(config, path, flow, eta_drift, multiplier):
    nodes = _node_quadratures(config.field, path)
    vol = eta_drift.cell_volume
    dt = path.grid.dt
    eta2 = multiplier.eta
    state = np.zeros((flow.n, 5))
    state[:, 0] = config.loss.grad_x(flow.x[-1], flow.y)[:, 0]
    state[:, 1] = 1.0
    state[:, 2] = 1.0
    tiers_right = None
    for k in range(path.grid.nt - 2, -1, -1):
        quad, fold = nodes[k]
        e1_fold = quad.fold(eta_drift.node(k).ravel() * vol)
        e2_fold = quad.fold(eta2.node(k).ravel() * vol)
        if tiers_right is None:
            tiers_right = tier_arrays(quad, flow.x[k + 1], 2)
        tiers_left = tier_arrays(quad, flow.x[k], 2)
        drifts = fold_drift(fold, tiers_left), fold_drift(fold, tiers_right)
        x_mid = _hermite_midpoint(flow.x[k], flow.x[k + 1], *drifts, dt)
        tiers_mid = tier_arrays(quad, x_mid, 2)

        def rhs(tiers):
            bx = fold_grad_x(fold, tiers)
            bxx = fold_grad_xx(fold, tiers)
            s2 = fold_drift(e2_fold, tiers)[:, 0]
            sx2 = fold_grad_x(e2_fold, tiers)
            s1 = fold_drift(e1_fold, tiers)[:, 0]

            def f(s):
                z, h, kk, rr = s[:, 0], s[:, 1], s[:, 2], s[:, 3]
                gp = sx2 * z + s2 * h
                return np.stack(
                    [-bx * z, -2.0 * bx * h - bxx * z, -bx * kk, -gp / kk, -s1 * kk * rr],
                    axis=1,
                )

            return f

        state = _rk4_between(state, -dt, rhs(tiers_right), rhs(tiers_mid), rhs(tiers_left))
        tiers_right = tiers_left
    return float(np.mean(state[:, 4]))


# -- fixtures ------------------------------------------------------------------


@pytest.fixture(scope="module")
def mini():
    config, tools, _ = load_run_document(str(MINI), [])
    result, _, _ = _solved_state(config, tools)
    assert result is not None
    path = result.path
    flow = curvature_solve(config, path, result.flow)
    base = path.measures[0]
    eta = relative_eta(
        base,
        config.grid,
        lambda m: np.cos(1.1 * m[:, 0] - 0.4 * m[:, 1]),
        profile=lambda t: 1.0 + 0.5 * np.sin(2.0 * t),
    )
    return config, tools, path, flow, eta


@pytest.fixture(scope="module")
def eta_pairs(mini):
    config, _, path, _, eta = mini
    base = path.measures[0]
    other = relative_eta(base, config.grid, lambda m: np.sin(0.7 * m[:, 0] + 0.9 * m[:, 1]))
    third = relative_eta(
        base,
        config.grid,
        lambda m: np.cos(0.5 * m[:, 1]) - 0.3 * m[:, 0],
        profile=lambda t: 1.2 - t,
    )
    return [(eta, other), (third, eta), (other, third)]


@pytest.fixture
def tiers_calls(monkeypatch):
    calls = []
    original = FieldQuadrature.tiers

    def counting(self, X, order, *args, **kwargs):
        calls.append(order)
        return original(self, X, order, *args, **kwargs)

    monkeypatch.setattr(FieldQuadrature, "tiers", counting)
    return calls


def _probe(config, tools, path, flow):
    return stability_probe(
        config,
        path,
        flow,
        iters=int(tools["stability"]["iters"]),
        rng=rng_for(config.seed, "stability-probe"),
    )


# -- bitwise agreement with the reference loops ---------------------------------


def test_tangent_matches_reference_loop(mini):
    config, _, path, flow, eta = mini
    new = tangent_solve(config, path, flow, eta).dx
    assert np.abs(new).max() > 0.0
    assert np.array_equal(new, reference_tangent_solve(config, path, flow, eta).dx)


def test_multiplier_matches_reference_loop(mini):
    config, _, path, flow, eta = mini
    new = solve_v(config, path, flow, eta)
    ref = reference_solve_v(config, path, flow, eta)
    assert np.abs(new.dv).max() > 0.0
    assert np.array_equal(new.v, ref.v)
    assert np.array_equal(new.dv, ref.dv)


def test_linear_map_image_matches_reference_loops(mini):
    config, _, path, flow, eta = mini
    ref = reference_linear_map_image(config, path, flow, eta).values
    assert np.array_equal(linear_map_image(config, path, flow, eta).values, ref)
    stages = stage_pass(config, path, flow)
    shared = linear_map_image(config, path, flow, eta, stages=stages).values
    assert np.array_equal(shared, ref)


def test_stability_probe_matches_reference_loops(mini, monkeypatch):
    config, tools, path, flow, _ = mini
    new = _probe(config, tools, path, flow)
    monkeypatch.setattr(linearization, "linear_map_image", reference_linear_map_image)
    ref = _probe(config, tools, path, flow)
    assert len(new.details["ritz"]) == int(tools["stability"]["iters"])
    assert new.details["ritz"] == ref.details["ritz"]
    assert new.details["rayleigh_history"] == ref.details["rayleigh_history"]
    assert new.dominant_eig == ref.dominant_eig
    assert new.ritz_residual == ref.ritz_residual


def test_quadratic_form_matches_reference_loops(mini, eta_pairs):
    config, _, path, flow, _ = mini
    for eta, _ in eta_pairs:
        new = quadratic_form(config, path, flow, eta)
        ref = reference_quadratic_form(config, path, flow, eta)
        assert new == ref
        assert second_derivative_check(config, path, flow, eta, lambdas=()).jform == ref
        tangent = reference_tangent_solve(config, path, flow, eta)
        assert np.abs(reference_bracket_series(config, path, flow, eta, tangent)).max() > 0.0


def test_cross_terms_match_reference_loops(mini, eta_pairs):
    config, _, path, flow, _ = mini
    for e1, e2 in eta_pairs:
        tangent1 = tangent_solve(config, path, flow, e1)
        mult2 = solve_v(config, path, flow, e2)
        lhs = cross_term_via_tangent(config, path, flow, e2, tangent1)
        rhs = cross_term_via_multiplier(config, path, flow, e1, mult2)
        assert lhs != 0.0
        assert lhs == reference_cross_term_via_tangent(config, path, flow, e2, tangent1)
        assert rhs == reference_cross_term_via_multiplier(config, path, flow, e1, mult2)


# -- kernel calls on mini (nt = 9) ---------------------------------------------


def test_standalone_sweeps_make_one_pass(mini, tiers_calls):
    config, _, path, flow, eta = mini
    nt = config.grid.nt
    tangent_solve(config, path, flow, eta)
    assert tiers_calls == [1] * (2 * nt - 1) == [1] * 17
    tiers_calls.clear()
    solve_v(config, path, flow, eta)
    assert tiers_calls == [2] * 17


def test_linear_map_image_shares_the_pass(mini, tiers_calls):
    config, _, path, flow, eta = mini
    linear_map_image(config, path, flow, eta)
    assert len(tiers_calls) == 26


def test_stability_probe_builds_stage_data_once(mini, tiers_calls):
    config, tools, path, flow, _ = mini
    steps = len(_probe(config, tools, path, flow).details["rayleigh_history"])
    assert steps == int(tools["stability"]["iters"])
    assert len(tiers_calls) == 17 + 26 * steps
    assert tiers_calls[:17] == [2] * 17
    assert set(tiers_calls[17:]) == {1}


def test_stability_probe_transports_the_curvature_itself(mini, tiers_calls):
    config, tools, path, flow, _ = mini
    forward = replace(flow, z=None, hess=None)
    report = _probe(config, tools, path, forward)
    calls = len(tiers_calls)
    assert repr(report) == repr(_probe(config, tools, path, flow))
    assert len(tiers_calls) == 2 * calls


def test_stability_command_runs_no_backward_sweep_after_the_solve(
    tmp_path, monkeypatch, tiers_calls
):
    backward, solved = [], []
    original_backward, original_picard = optimizer.backward_solve, cli.picard_solve

    def counting(*args, **kwargs):
        backward.append(1)
        return original_backward(*args, **kwargs)

    def marking(*args, **kwargs):
        result = original_picard(*args, **kwargs)
        solved.append((len(backward), len(tiers_calls)))
        return result

    monkeypatch.setattr(optimizer, "backward_solve", counting)
    monkeypatch.setattr(cli, "picard_solve", marking)
    _, tools, _ = load_run_document(str(MINI), [])
    assert cli.main(["stability", "--config", str(MINI), "--out", str(tmp_path / "o")]) == 0
    # mini's solve runs on two levels; the probe follows the fine one
    _, (sweeps, kernel) = solved
    assert sweeps > 0 and len(backward) == sweeps
    assert len(tiers_calls) - kernel == 17 + int(tools["stability"]["iters"]) * 26


def test_quadratic_form_makes_one_order_1_pass(mini, tiers_calls):
    config, _, path, flow, eta = mini
    quadratic_form(config, path, flow, eta)
    assert tiers_calls == [1] * 17


def test_cross_terms_make_one_order_2_pass_each(mini, eta_pairs, tiers_calls):
    config, _, path, flow, _ = mini
    e1, e2 = eta_pairs[0]
    tangent1 = tangent_solve(config, path, flow, e1)
    mult2 = solve_v(config, path, flow, e2)
    tiers_calls.clear()
    cross_term_via_tangent(config, path, flow, e2, tangent1)
    assert tiers_calls == [2] * 17
    tiers_calls.clear()
    cross_term_via_multiplier(config, path, flow, e1, mult2)
    assert tiers_calls == [2] * 17
