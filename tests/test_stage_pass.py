"""The linearized sweeps on the shared stage pass against the interval loops
they replaced, the stability probe against the grid-vector probe it
replaced, and the number of activation-kernel calls they make."""

import functools
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mfoc import cli, linearization, optimizer
from mfoc.cli import _solved_state, load_run_document
from mfoc.linearization import (
    LinearizedMultiplier,
    PerturbationPath,
    SecondOrderReport,
    _arnoldi,
    _ritz_residual,
    cross_term_duality,
    eta_from,
    linear_map_image,
    quadratic_form,
    second_derivative_check,
    solve_v,
    stability_probe,
)
from mfoc.measures import LOG_FLOOR
from mfoc.model import RIDGE_OUTER, ActivationField, FieldQuadrature, rng_for
from mfoc.optimizer import picard_solve
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

from conftest import (
    fold_drift,
    fold_grad_x,
    fold_grad_xx,
    make_config,
    prior_path,
    relative_eta,
    tier_arrays,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
MINI = FIXTURES / "mini.json"


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


def reference_linear_map_image(config, path, flow, eta):
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


def reference_cross_term_tangent_side(config, path, flow, eta_bracket, tangent):
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


def reference_cross_term_multiplier_side(config, path, flow, eta_drift, multiplier):
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


def reference_stability_probe(config, path, flow, iters, rng):
    """The probe on grid vectors: Arnoldi over ``linear_map_image`` in
    L^2(1/nu), each basis vector re-projected onto zero node mass along nu
    before it is applied."""
    template = path.measures[0]
    mids = template.midpoints()
    seedfn = (
        np.cos(1.1 * mids[:, 0] - 0.7 * mids[:, 1])
        + 0.5 * np.sin(0.6 * mids[:, 1] + 0.3)
        + 0.2 * rng.standard_normal(mids.shape[0])
    ).reshape(template.values.shape)
    vol, dt = template.cell_volume, path.grid.dt
    nus = [nu.values for nu in path.measures]
    v0 = np.stack([nu * (seedfn - float(np.sum(seedfn * nu)) * vol) for nu in nus])
    inv_weight = [np.maximum(nu, LOG_FLOOR) for nu in nus[:-1]]

    def dot(a, b):
        total = 0.0
        for k, nu in enumerate(inv_weight):
            total += float(np.sum(a[k] * b[k] / nu)) * vol * dt
        return total

    stages = stage_pass(config, path, flow)
    flow = curvature_solve(config, path, flow, stages)

    def apply(v):
        for k, nu in enumerate(nus):
            v[k] -= nu * (np.sum(v[k]) / np.sum(nu))
        eta = PerturbationPath(path.grid, template.halfwidth, template.res, v)
        return linearization.linear_map_image(config, path, flow, eta).values

    _, H, history, below, breakdown = _arnoldi(apply, v0, dot, iters)
    ritz = np.real_if_close(np.linalg.eigvals(H), tol=1e6)
    top = ritz[np.argmax(abs(ritz))]
    return SecondOrderReport(
        dominant_eig=float(np.real(top)),
        ritz_residual=_ritz_residual(H, below, top),
        details={
            "ritz": sorted(float(np.real(r)) for r in ritz),
            "rayleigh_history": history,
            "breakdown": breakdown,
        },
    )


def spread(config, path, flow, u):
    """E(d) on the grid for a vector [alpha, d] of the probe's range map:
    ``eta_from`` with adjoint 1 and curvature 0 pairs the tangent gamma with
    grad_x b and dv = beta with b."""
    nt, n = path.grid.nt, flow.n
    d = np.zeros((nt, 2 * n))
    d[:-1] = u[1:].reshape(nt - 1, 2 * n)
    unit = replace(flow, z=np.ones_like(flow.x), hess=np.zeros((nt, n)))
    tangent = TangentFlow(dx=d[:, n:, None], flow=unit)
    multiplier = LinearizedMultiplier(v=None, dv=d[:, :n], config=config, path=path, eta=None)
    return eta_from(config, path, unit, tangent, multiplier)


def assert_probes_agree(new, ref):
    """Agreement at round-off: the same spectrum size and breakdown, Ritz and
    Rayleigh values within 1e-12 max|ritz| and the residual within 1e-12.
    The last Rayleigh quotient of a run that broke down is taken on a
    direction made of round-off, so it is not compared."""
    ritz, want = np.array(new.details["ritz"]), np.array(ref.details["ritz"])
    assert ritz.shape == want.shape
    assert new.details["breakdown"] == ref.details["breakdown"]
    bound = 1e-12 * np.abs(want).max()
    assert np.all(np.abs(ritz - want) <= bound)
    assert abs(new.dominant_eig - ref.dominant_eig) <= bound
    assert abs(new.ritz_residual - ref.ritz_residual) <= 1e-12
    history = np.array(new.details["rayleigh_history"])
    want_history = np.array(ref.details["rayleigh_history"])
    kept = len(want_history) - 1 if ref.details["breakdown"] else len(want_history)
    assert np.all(np.abs(history[:kept] - want_history[:kept]) <= bound)


@functools.lru_cache(maxsize=None)
def solved_case(name):
    """(config, path, forward flow) of a fixture's solve, or of a small
    ridge-with-outer-weight problem with logistic sigma, whose support has
    no mirror and whose rows carry a0."""
    if name == "ridge-logistic":
        config = replace(make_config(n=8, nt=9), field=ActivationField(RIDGE_OUTER, "logistic"))
        result = picard_solve(config, prior_path(config, res=12)[0], tol=1e-10)
    else:
        config, doc = load_run_document(str(FIXTURES / f"{name}.json"), [])
        result, _, _ = _solved_state(config, doc)
    assert result.converged
    return config, result.path, result.flow


# -- fixtures ------------------------------------------------------------------


@pytest.fixture(scope="module")
def mini():
    config, doc = load_run_document(str(MINI), [])
    result, _, _ = _solved_state(config, doc)
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
    return config, doc, path, flow, eta


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


def _probe(config, doc, path, flow):
    return stability_probe(
        config,
        path,
        flow,
        iters=int(doc["stability"]["iters"]),
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


def test_stability_probe_matches_reference_loops(mini, monkeypatch):
    # the probe no longer applies linear_map_image, so it agrees with the
    # grid-vector probe over the reference loops at round-off, not bitwise
    config, doc, path, flow, _ = mini
    iters = int(doc["stability"]["iters"])
    new = _probe(config, doc, path, flow)
    monkeypatch.setattr(linearization, "linear_map_image", reference_linear_map_image)
    ref = reference_stability_probe(
        config, path, flow, iters, rng_for(config.seed, "stability-probe")
    )
    assert len(new.details["ritz"]) == iters
    assert_probes_agree(new, ref)


@pytest.mark.parametrize(
    "case,iters",
    [("mini", 8), ("mini", 20), ("mini_zero", 10), ("desk", 10), ("ridge-logistic", 10)],
)
def test_stability_probe_agrees_with_the_grid_vector_probe(case, iters, monkeypatch):
    config, path, flow = solved_case(case)
    held = {}
    arnoldi, range_map = linearization._arnoldi, linearization._range_map

    def holding_basis(*args):
        out = arnoldi(*args)
        held["basis"] = out[0]
        return out

    def holding_flow(config, path, flow, *args):
        held["flow"] = flow
        return range_map(config, path, flow, *args)

    monkeypatch.setattr(linearization, "_arnoldi", holding_basis)
    monkeypatch.setattr(linearization, "_range_map", holding_flow)
    new = stability_probe(
        config, path, flow, iters=iters, rng=rng_for(config.seed, "stability-probe")
    )
    ref = reference_stability_probe(
        config, path, flow, iters, rng_for(config.seed, "stability-probe")
    )
    assert_probes_agree(new, ref)
    assert new.details["lambda_max"] == max(new.details["ritz"])
    if case == "mini_zero":
        assert new.details["breakdown"] and len(new.details["ritz"]) == 8
    # each direction's image part is zero-mass by construction: formed on
    # the grid it passes the perturbation's mass check
    assert len(held["basis"]) == len(new.details["ritz"]) + (not new.details["breakdown"])
    for u in held["basis"]:
        assert isinstance(spread(config, path, held["flow"], u), PerturbationPath)


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
        lhs, rhs = cross_term_duality(config, path, flow, e1, e2)
        assert lhs != 0.0
        assert lhs == reference_cross_term_tangent_side(config, path, flow, e2, tangent1)
        assert rhs == reference_cross_term_multiplier_side(config, path, flow, e1, mult2)


# -- kernel calls on mini (nt = 9) ---------------------------------------------


def test_standalone_sweeps_make_one_pass(mini, tiers_calls):
    config, _, path, flow, eta = mini
    nt = config.grid.nt
    tangent_solve(config, path, flow, eta)
    assert tiers_calls == [1] * (2 * nt - 1) == [1] * 17
    tiers_calls.clear()
    solve_v(config, path, flow, eta)
    assert tiers_calls == [2] * 17


def test_linear_map_image_transports_the_curvature_itself(mini):
    config, _, path, flow, eta = mini
    forward = replace(flow, z=None, hess=None)
    image = linear_map_image(config, path, forward, eta).values
    assert np.abs(image).max() > 0.0
    assert np.array_equal(image, linear_map_image(config, path, flow, eta).values)


def test_linear_map_image_shares_the_pass(mini, tiers_calls):
    config, _, path, flow, eta = mini
    linear_map_image(config, path, flow, eta)
    assert len(tiers_calls) == 26


def test_stability_probe_builds_stage_data_once(mini, tiers_calls):
    # one order-2 pass for the control and the seed, and one order-1 pass
    # for the Gram matrices, whatever the number of Krylov steps
    config, _, path, flow, _ = mini
    calls = []
    for iters in (3, 8):
        tiers_calls.clear()
        report = stability_probe(config, path, flow, iters=iters, rng=rng_for(0, "probe"))
        assert len(report.details["rayleigh_history"]) == iters
        calls.append(list(tiers_calls))
    assert calls[0] == calls[1] == [2] * 17 + [1] * 17
    assert len(calls[0]) <= 3 * (2 * config.grid.nt - 1) == 51


def test_stability_probe_transports_the_curvature_itself(mini, tiers_calls):
    config, doc, path, flow, _ = mini
    forward = replace(flow, z=None, hess=None)
    report = _probe(config, doc, path, forward)
    calls = len(tiers_calls)
    assert repr(report) == repr(_probe(config, doc, path, flow))
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
    assert cli.main(["stability", "--config", str(MINI), "--out", str(tmp_path / "o")]) == 0
    # mini's solve runs on two levels; the probe follows the fine one, and
    # its kernel calls do not depend on stability.iters
    _, (sweeps, kernel) = solved
    assert sweeps > 0 and len(backward) == sweeps
    assert len(tiers_calls) - kernel == 2 * 17


def test_quadratic_form_makes_one_order_1_pass(mini, tiers_calls):
    config, _, path, flow, eta = mini
    quadratic_form(config, path, flow, eta)
    assert tiers_calls == [1] * 17


def test_cross_terms_make_one_order_2_pass_each(mini, eta_pairs, tiers_calls):
    # one pass for both sides of the duality: no tangent or multiplier is
    # solved first
    config, _, path, flow, _ = mini
    e1, e2 = eta_pairs[0]
    cross_term_duality(config, path, flow, e1, e2)
    assert tiers_calls == [2] * 17
