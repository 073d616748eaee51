"""Forward, backward and duality sweeps and the mean-field drift on the fused
kernel against the tier-holding loops they replaced, the fused kernel against
the weight folds, and the kernel's mirrored route against sums over every
support cell."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mfoc import cli, optimizer
from mfoc.cli import _initial_grid_path, load_run_document
from mfoc.measures import ControlPath, GridMeasure, ParticleMeasure
from mfoc.model import (
    COMPONENTWISE,
    RIDGE_OUTER,
    _BLOCK_CELLS,
    _SIGMAS,
    ActivationField,
    ConfinementPotential,
    FieldQuadrature,
    Workspace,
    _contract_columns,
    rng_for,
)
from mfoc.optimizer import picard_solve, sample_prior
from mfoc.trajectories import (
    DivergenceError,
    _hermite_midpoint,
    _node_quadratures,
    _rk4_between,
    backward_solve,
    curvature_solve,
    default_test_functions,
    duality_residual,
    forward_solve,
)

from conftest import (
    fold_drift,
    prior_path,
    fold_grad_x,
    fold_grad_xx,
    full_contraction,
    full_tier_arrays,
    refined,
    sigma_triplet,
    tier_arrays,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SRC = FIXTURES.parent / "src"
MINI = FIXTURES / "mini.json"
EPS = np.finfo(float).eps
# a fold's weights per tier, each as long as the tier's prefix
TIER_WEIGHTS = ("_w_drift", "_w_gx", "_w_gxx")


# -- reference: the loops that hold tier arrays per stage position --------------


def reference_forward_solve(config, path):
    grid = path.grid
    X = np.empty((grid.nt, config.dataset.n, 1))
    X[0] = config.dataset.x
    nodes = _node_quadratures(config.field, path)
    for k in range(grid.nt - 1):
        quad, fold = nodes[k]
        X[k + 1] = _reference_rk4_forward(quad, fold, X[k], grid.dt)
    return X


def _reference_rk4_forward(quad, fold, x, dt):
    k1 = fold_drift(fold, tier_arrays(quad, x, 0))
    k2 = fold_drift(fold, tier_arrays(quad, x + 0.5 * dt * k1, 0))
    k3 = fold_drift(fold, tier_arrays(quad, x + 0.5 * dt * k2, 0))
    k4 = fold_drift(fold, tier_arrays(quad, x + dt * k3, 0))
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _pack_state(z, h, with_hessian):
    if with_hessian:
        return np.concatenate([z, h[:, None]], axis=-1)
    return z


def _unpack_state(state, with_hessian):
    if with_hessian:
        return state[..., :1], state[..., 1]
    return state, None


def _reference_adjoint_rhs(fold, tiers, with_hessian):
    bx = fold_grad_x(fold, tiers)[:, None, None]
    bxx = fold_grad_xx(fold, tiers) if with_hessian else None

    def f(state):
        if with_hessian:
            zz, hh = state[..., :1], state[..., 1]
            dz = -np.einsum("nij,ni->nj", bx, zz)
            dh = -2.0 * bx[:, 0, 0] * hh - bxx * zz[:, 0]
            return np.concatenate([dz, dh[:, None]], axis=-1)
        return -np.einsum("nij,ni->nj", bx, state)

    return f


def reference_backward_solve(config, path, flow, with_hessian=False, bracket_grid=None):
    grid = path.grid
    n = flow.n
    order = 2 if with_hessian else 1
    nodes = _node_quadratures(config.field, path)
    Z = np.empty_like(flow.x)
    z = config.loss.grad_x(flow.x[-1], flow.y)
    Z[-1] = z
    H = h = None
    if with_hessian:
        H = np.empty((grid.nt, n))
        h = np.ones(n)
        H[-1] = h
    bracket = None
    if bracket_grid is not None:
        bracket = np.empty((grid.nt, bracket_grid.res**bracket_grid.dprime))
    rhs = _reference_adjoint_rhs
    dt = grid.dt
    tiers_right = None
    for k in range(grid.nt - 2, -1, -1):
        quad, fold = nodes[k]
        if tiers_right is None or not path.is_grid:
            tiers_right = tier_arrays(quad, flow.x[k + 1], order)
        if bracket is not None and k == grid.nt - 2:
            bracket[-1] = quad.bracket(tiers_right, Z[-1])
        tiers_left = tier_arrays(quad, flow.x[k], order)
        drifts = fold_drift(fold, tiers_left), fold_drift(fold, tiers_right)
        x_mid = _hermite_midpoint(flow.x[k], flow.x[k + 1], *drifts, dt)
        tiers_mid = tier_arrays(quad, x_mid, order)
        state = _pack_state(z, h, with_hessian)
        state = _rk4_between(
            state,
            -dt,
            rhs(fold, tiers_right, with_hessian),
            rhs(fold, tiers_mid, with_hessian),
            rhs(fold, tiers_left, with_hessian),
        )
        z, h = _unpack_state(state, with_hessian)
        Z[k] = z
        if with_hessian:
            H[k] = h
        if bracket is not None:
            bracket[k] = quad.bracket(tiers_left, z)
        tiers_right = tiers_left
    return Z, H, bracket


def reference_duality_residual(config, path, probe, flow):
    push_forward = float(np.mean(probe.value(flow.x[-1], flow.y)))
    psi = probe.value(flow.x[-1], flow.y).astype(float)
    g = probe.grad_x(flow.x[-1], flow.y).astype(float)
    nodes = _node_quadratures(config.field, path)
    dt = path.grid.dt
    for k in range(path.grid.nt - 2, -1, -1):
        quad, fold = nodes[k]
        chord = (flow.x[k + 1] - flow.x[k]) / dt
        x_mid = 0.5 * (flow.x[k] + flow.x[k + 1])
        stage_tiers = [
            tier_arrays(quad, flow.x[k + 1], 1),
            tier_arrays(quad, x_mid, 1),
            tier_arrays(quad, flow.x[k], 1),
        ]

        def rhs(tiers):
            bx = fold_grad_x(fold, tiers)[:, None, None]
            defect = chord - fold_drift(fold, tiers)

            def f(state):
                val_g = state[..., 1:]
                dpsi = np.einsum("ni,ni->n", defect, val_g)
                dg = -np.einsum("nij,ni->nj", bx, val_g)
                return np.concatenate([dpsi[:, None], dg], axis=-1)

            return f

        state = np.concatenate([psi[:, None], g], axis=-1)
        state = _rk4_between(
            state, -dt, rhs(stage_tiers[0]), rhs(stage_tiers[1]), rhs(stage_tiers[2])
        )
        psi, g = state[..., 0], state[..., 1:]
    return abs(push_forward - float(np.mean(psi)))


# -- fixtures ------------------------------------------------------------------


@pytest.fixture(scope="module")
def mini():
    config, doc = load_run_document(str(MINI), [])
    path, _ = _initial_grid_path(config, doc)
    # a few Picard steps give a path away from the prior
    return config, picard_solve(config, path, max_iters=3).path


def _same(a, b):
    if a is None or b is None:
        return a is b
    return np.array_equal(a, b)


# -- bitwise agreement with the reference loops ---------------------------------


@pytest.mark.parametrize("s", [1, 2])
def test_grid_sweeps_match_reference_loops(mini, s):
    config, path = mini
    path = refined(path, s)
    flow = forward_solve(config, path)
    assert np.array_equal(flow.x, reference_forward_solve(config, path))
    grid = path.measures[0]
    new = backward_solve(config, path, flow, bracket_grid=grid)
    ref = reference_backward_solve(config, path, flow, bracket_grid=grid)
    assert np.abs(new.z).max() > 0.0
    assert all(_same(a, b) for a, b in zip((new.z, new.hess, new.bracket), ref))


@pytest.mark.parametrize("family", [COMPONENTWISE, RIDGE_OUTER])
def test_curvature_solve_matches_reference_hessian_loop(mini, family):
    config, path = mini
    if family != config.field.family:
        overrides = [f"field.family={family}", "measure.res=16"]
        config, doc = load_run_document(str(MINI), overrides)
        path = picard_solve(config, _initial_grid_path(config, doc)[0], max_iters=3).path
    flow = forward_solve(config, path)
    new = curvature_solve(config, path, flow)
    z, hess, _ = reference_backward_solve(config, path, flow, with_hessian=True)
    assert np.abs(new.z).max() > 0.0 and np.abs(new.hess - 1.0).max() > 0.0
    assert np.array_equal(new.x, flow.x) and new.bracket is None
    assert np.array_equal(new.z, z) and np.array_equal(new.hess, hess)


def test_particle_sweeps_match_reference_loops(mini):
    config, _ = mini
    rng = rng_for(config.seed, "sweep-test")
    points = sample_prior(config.potential, config.field.dprime, 300, rng)
    path = ControlPath.constant(config.grid, ParticleMeasure(points))
    flow = forward_solve(config, path)
    assert np.array_equal(flow.x, reference_forward_solve(config, path))
    new = backward_solve(config, path, flow)
    assert np.array_equal(new.z, reference_backward_solve(config, path, flow)[0])


def test_duality_residual_matches_reference_loop(mini):
    config, path = mini
    flow = forward_solve(config, path)
    probes = default_test_functions()
    assert len(probes) == 5
    for probe in probes:
        new = duality_residual(config, path, probe, flow)
        assert new == reference_duality_residual(config, path, probe, flow), probe.name
    assert any(duality_residual(config, path, p, flow) > 0.0 for p in probes)


# -- the fused kernel against the folds ------------------------------------------


@pytest.mark.parametrize(
    "family,sigma",
    [(COMPONENTWISE, "tanh"), (RIDGE_OUTER, "tanh"), (RIDGE_OUTER, "logistic")],
)
@pytest.mark.parametrize("n", [37, 5])
def test_fused_contractions_equal_folds(family, sigma, n):
    # m = 4096 puts 16 rows in a block: n = 37 ends on a partial block and
    # n = 5 fits in less than one
    field = ActivationField(family, sigma)
    rng = np.random.default_rng(n)
    support = rng.normal(size=(4096, field.dprime))
    quad = FieldQuadrature(field, support)
    X = 2.0 * rng.normal(size=(n, 1))
    folds = [quad.fold(rng.random(4096)), quad.fold(rng.normal(size=4096))]
    work = Workspace()
    for order in (0, 1, 2):
        tiers = tier_arrays(quad, X, order)
        assert np.array_equal(tiers[0], _reference_sigma(sigma, X[:, 0], quad))
        fused = quad.tiers(X, order, folds, work, keep=min(order + 1, 2))
        assert len(fused) == order + 1
        for j, contract in enumerate((fold_drift, fold_grad_x, fold_grad_xx)[: order + 1]):
            for f, fold in enumerate(folds):
                ref = contract(fold, tiers)
                assert fused[j][f].shape == ref.shape
                assert np.array_equal(fused[j][f], ref)
        assert all(np.array_equal(a, b) for a, b in zip(work.kept, tiers))


@pytest.mark.parametrize("family", [COMPONENTWISE, RIDGE_OUTER])
def test_fold_forms_only_the_weights_a_call_uses(family):
    field = ActivationField(family, "tanh")
    rng = np.random.default_rng(3)
    quad = FieldQuadrature(field, rng.normal(size=(256, field.dprime)))
    fold = quad.fold(rng.random(256))
    X = rng.normal(size=(7, 1))
    for order in (0, 1, 2):
        quad.tiers(X, order, (fold,), Workspace())
        assert [name in vars(fold) for name in TIER_WEIGHTS] == [j <= order for j in range(3)]


def _reference_sigma(sigma, x, quad):
    z = np.multiply.outer(x, quad.support[:, -2]) + quad.support[:, -1]
    return np.tanh(z) if sigma == "tanh" else 1.0 / (1.0 + np.exp(-z))


@pytest.mark.parametrize(
    "family,sigma,seed",
    [(COMPONENTWISE, "tanh", 1), (RIDGE_OUTER, "tanh", 1), (RIDGE_OUTER, "logistic", 1)],
)
def test_grad_a_contraction_equals_four_index_form(family, sigma, seed):
    field = ActivationField(family, sigma)
    rng = np.random.default_rng(seed)
    X, Z = rng.normal(size=(64, 1)), rng.normal(size=(64, 1))
    A = rng.normal(size=(2000, field.dprime))
    ref = np.einsum("nmip,ni->mp", four_index_grad_a(field, X, A), Z)
    assert np.array_equal(field.grad_a_batch(X, A, Z), ref)
    assert np.array_equal(field.grad_a_batch(X, A, Z), reference_grad_a_contraction(field, X, A, Z))


def four_index_grad_a(field, X, A):
    """grad_a b on all pairs as an (n, m, 1, dprime) array."""
    if field.family == RIDGE_OUTER:
        s, s1, _ = sigma_triplet(field.sigma, np.einsum("nk,mk->nm", X, A[:, 1:2]) + A[:, 2])
        columns = (s, np.einsum("nm,m,n->nm", s1, A[:, 0], X[:, 0]), s1 * A[None, :, 0])
    else:
        _, s1, _ = sigma_triplet(field.sigma, np.einsum("nk,mk->nm", X, A[:, :1]) + A[:, 1])
        columns = (s1 * X, s1)
    return np.stack(columns, axis=-1)[:, :, None, :]


def reference_grad_a_contraction(field, X, A, Z):
    """The contraction with sigma, sigma' and sigma'' as fresh arrays."""
    if field.family == RIDGE_OUTER:
        s, s1, _ = sigma_triplet(field.sigma, np.einsum("nk,mk->nm", X, A[:, 1:2]) + A[:, 2])
        s1a0 = s1 * A[None, :, 0]
        return _contract_columns((s, s1a0 * X, s1a0), Z)
    _, s1, _ = sigma_triplet(
        field.sigma, np.einsum("nk,mik->nmi", X, A[:, :1].reshape(-1, 1, 1)) + A[None, :, 1:]
    )
    return _contract_columns((s1[:, :, 0] * X, s1[:, :, 0]), Z)


# -- the mirrored route: half the cells on a support that is its own mirror ----


def grid_support(field, res):
    """Midpoints of a centred grid with cell width 1/8, which are exact, so
    the support satisfies support[::-1] == -support bit for bit."""
    return GridMeasure(res / 16.0, res, np.zeros((res,) * field.dprime)).midpoints()


def full_bracket(quad, tiers, z):
    """``bracket`` as a reduction over all M cells."""
    out = np.einsum("nm,n->m", tiers[0], z[:, 0]) / z.shape[0]
    return out if quad._a0 is None else out * quad._a0


def full_bracket_pair(quad, tiers, vec_dx, vec_b):
    """``bracket_pair`` as reductions over all M cells."""
    term_b = np.einsum("nm,n->m", tiers[0], vec_b)
    term_dx = np.einsum("nm,n->m", tiers[1], vec_dx)
    if quad._a0 is not None:
        return (term_b * quad._a0 + term_dx * quad._a0 * quad._a1) / vec_b.shape[0]
    return (term_b + term_dx * quad._a1) / vec_b.shape[0]


# (family, res): even M, and odd M with a centre cell
MIRRORED_GRIDS = [(COMPONENTWISE, 64), (COMPONENTWISE, 61), (RIDGE_OUTER, 16), (RIDGE_OUTER, 17)]
# the smallest grids: a centre cell and its 8 neighbours, one cell per quadrant
SMALL_GRIDS = [(COMPONENTWISE, 3), (COMPONENTWISE, 2), (RIDGE_OUTER, 3), (RIDGE_OUTER, 2)]


@pytest.mark.parametrize("family,res", MIRRORED_GRIDS)
@pytest.mark.parametrize("n", [37, 5])
def test_mirrored_contractions_match_full_arrays(family, res, n):
    field = ActivationField(family, "tanh")
    quad = FieldQuadrature(field, grid_support(field, res))
    m = quad.support.shape[0]
    assert quad.h == (m + 1) // 2
    # n = 37 ends on a partial block and n = 5 fits in less than one
    rows = _BLOCK_CELLS // quad.h
    assert 5 < rows < 37 < 2 * rows
    rng = np.random.default_rng(res + n)
    X = 2.0 * rng.normal(size=(n, 1))
    folds = [quad.fold(rng.random(m)), quad.fold(rng.normal(size=m))]
    full = full_tier_arrays(quad, X, 2)
    work = Workspace()
    for order in (0, 1, 2):
        fused = quad.tiers(X, order, folds, work, keep=min(order + 1, 2))
        tiers = tier_arrays(quad, X, order)
        assert all(np.array_equal(a, b) for a, b in zip(work.kept, tiers))
        for j, contract in enumerate((fold_drift, fold_grad_x, fold_grad_xx)[: order + 1]):
            for f, fold in enumerate(folds):
                # bitwise against the folded reference loop, and within a
                # rounding bound of the unfolded sum over all M cells
                assert np.array_equal(fused[j][f], contract(fold, tiers))
                ref = full_contraction(fold, full, j)
                scale = np.einsum("nm,m->n", np.abs(full[j]), np.abs(fold._weights(j)))
                assert np.all(np.abs(fused[j][f].reshape(n) - ref) <= 16 * EPS * scale)


@pytest.mark.parametrize("family,res", MIRRORED_GRIDS + SMALL_GRIDS)
def test_mirrored_brackets_equal_full_reductions(family, res):
    field = ActivationField(family, "tanh")
    quad = FieldQuadrature(field, grid_support(field, res))
    rng = np.random.default_rng(res)
    X, z = 2.0 * rng.normal(size=(37, 1)), rng.normal(size=(37, 1))
    vec_dx, vec_b = rng.normal(size=37), rng.normal(size=37)
    kept, full = tier_arrays(quad, X, 1), full_tier_arrays(quad, X, 1)
    pairs = [
        (quad.bracket(kept, z), full_bracket(quad, full, z)),
        (quad.bracket_pair(kept, vec_dx, vec_b), full_bracket_pair(quad, full, vec_dx, vec_b)),
    ]
    for new, ref in pairs:
        if family == RIDGE_OUTER and res % 2:
            # the cells with a1 = a2 = 0 and a0 != 0 sum a column of exact
            # zeros; the full array forms x * -0 + -0 on one side of the
            # mirror, so that sum may carry the other sign of zero
            assert np.array_equal(new, ref)
            new, ref = new[ref != 0.0], ref[ref != 0.0]
        assert new.tobytes() == ref.tobytes()


def _unmirrored_cases():
    rng = np.random.default_rng(7)
    logistic = ActivationField(RIDGE_OUTER, "logistic")
    tanh = ActivationField(COMPONENTWISE, "tanh")
    ridge = ActivationField(RIDGE_OUTER, "tanh")
    off_grid = GridMeasure(3.7, 50, np.zeros((50, 50))).midpoints()
    return {
        "logistic-mirrored-grid": (logistic, grid_support(logistic, 16)),
        "particles-componentwise": (tanh, sample_prior(ConfinementPotential(), 2, 2000, rng)),
        "particles-ridge": (ridge, sample_prior(ConfinementPotential(), 3, 2000, rng)),
        "halfwidth-3.7-res-50": (tanh, off_grid),
    }


@pytest.mark.parametrize("case", sorted(_unmirrored_cases()))
def test_supports_without_mirror_keep_full_arithmetic(case):
    field, support = _unmirrored_cases()[case]
    quad = FieldQuadrature(field, support)
    m = quad.support.shape[0]
    assert quad.h == m
    rng = np.random.default_rng(m)
    X, z = 2.0 * rng.normal(size=(37, 1)), rng.normal(size=(37, 1))
    vec_dx, vec_b = rng.normal(size=37), rng.normal(size=37)
    folds = [quad.fold(rng.random(m)), quad.fold(rng.normal(size=m))]
    full = full_tier_arrays(quad, X, 2)
    work = Workspace()
    fused = quad.tiers(X, 2, folds, work, keep=2)
    # support order and no cut: every fold-tier's prefix is all h = M cells
    assert all(getattr(f, name).shape == (m,) for f in folds for name in TIER_WEIGHTS)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(work.kept, full))
    for j in range(3):
        for f, fold in enumerate(folds):
            assert fused[j][f].reshape(37).tobytes() == full_contraction(fold, full, j).tobytes()
    assert quad.bracket(work.kept, z).tobytes() == full_bracket(quad, full, z).tobytes()
    new = quad.bracket_pair(work.kept, vec_dx, vec_b)
    assert new.tobytes() == full_bracket_pair(quad, full, vec_dx, vec_b).tobytes()


# -- the |a|-ordered route: each fold-tier over the prefix that carries its weight --


def gaussian_tailed(quad, centre, width):
    """A Gibbs-like density on the support, exp(-|a - centre|^2 / (2 width^2)),
    whose tail falls far below 2^-60 of its mass inside the box."""
    return np.exp(-np.sum((quad.support - centre) ** 2, axis=1) / (2.0 * width**2))


def tail_folds(quad):
    """A Gaussian-tailed density off the centre and a signed perturbation of
    it, as a Gibbs map and a Krylov direction carry them."""
    halfwidth = float(quad.support.max())
    density = gaussian_tailed(quad, 0.1 * halfwidth, halfwidth / 12.0)
    signed = density * np.cos(3.0 * quad.support[:, -2] / halfwidth - 0.5 * quad.support[:, -1])
    return [quad.fold(density, 0.25), quad.fold(signed)]


@pytest.mark.parametrize("family,res", MIRRORED_GRIDS + SMALL_GRIDS)
def test_prefix_contractions_match_full_sums_within_the_cut(family, res):
    field = ActivationField(family, "tanh")
    quad = FieldQuadrature(field, grid_support(field, res))
    m = quad.support.shape[0]
    assert quad.h == (m + 1) // 2
    # the evaluated cells are visited by |a|, ties by index
    head = quad.support[: quad.h]
    r2 = np.einsum("ij,ij->i", head, head)
    assert np.array_equal(quad._visit, np.lexsort((np.arange(quad.h), r2)))
    rng = np.random.default_rng(res)
    X = 2.0 * rng.normal(size=(37, 1))
    folds = tail_folds(quad)
    full = full_tier_arrays(quad, X, 2)
    fused = quad.tiers(X, 2, folds, Workspace())
    for j, name in enumerate(TIER_WEIGHTS):
        for f, fold in enumerate(folds):
            w = fold._weights(j)
            cut = 2.0**-60 * np.sum(np.abs(w))
            scale = np.einsum("nm,m->n", np.abs(full[j]), np.abs(w))
            error = np.abs(fused[j][f].reshape(37) - full_contraction(fold, full, j))
            assert np.all(error <= cut + 16 * EPS * scale)
            assert getattr(fold, name).shape[0] <= quad.h
    if res >= 16:
        # the grids large enough to hold a tail drop it
        assert all(getattr(f, name).shape[0] < quad.h for f in folds for name in TIER_WEIGHTS)


@pytest.mark.parametrize("family,res", [(COMPONENTWISE, 64), (RIDGE_OUTER, 17)])
def test_fold_contraction_is_the_same_in_every_call(family, res):
    field = ActivationField(family, "tanh")
    quad = FieldQuadrature(field, grid_support(field, res))
    halfwidth = float(quad.support.max())
    narrow = quad.fold(gaussian_tailed(quad, 0.1 * halfwidth, halfwidth / 16.0))
    wide = quad.fold(gaussian_tailed(quad, -0.1 * halfwidth, halfwidth / 8.0))
    assert all(
        0 < getattr(narrow, name).shape[0] < getattr(wide, name).shape[0] < quad.h
        for name in TIER_WEIGHTS
    )
    X = 2.0 * np.random.default_rng(res).normal(size=(37, 1))
    for order in (0, 1, 2):
        alone = quad.tiers(X, order, (narrow,), Workspace())
        calls = [
            [c[1] for c in quad.tiers(X, order, (wide, narrow), Workspace())],
            [c[0] for c in quad.tiers(X, order, (narrow, wide), Workspace())],
        ]
        calls += [
            [c[0] for c in quad.tiers(X, order, (narrow,), Workspace(), keep=keep)]
            for keep in range(1, min(order + 1, 2) + 1)
        ]
        for contractions in calls:
            assert [c.tobytes() for c in contractions] == [c[0].tobytes() for c in alone]


def _plan_supports():
    """A mirrored grid (2048 evaluated cells, blocks of 32 rows when a tier is
    kept), a particle support (2000 cells, unmirrored) and an unmirrored
    ridge-logistic grid (4096 cells, blocks of 16 rows when kept)."""
    tanh, logistic = ActivationField(COMPONENTWISE, "tanh"), ActivationField(RIDGE_OUTER, "logistic")
    particles = sample_prior(ConfinementPotential(), 2, 2000, np.random.default_rng(5))
    return {
        "mirrored-64": FieldQuadrature(tanh, grid_support(tanh, 64)),
        "particles-2000": FieldQuadrature(tanh, particles),
        "ridge-logistic-16": FieldQuadrature(logistic, grid_support(logistic, 16)),
    }


@pytest.mark.parametrize("case", sorted(_plan_supports()))
def test_planned_calls_match_reference_contractions(case):
    # one workspace serves every call, so plans are formed, reused across fold
    # sets of the same prefixes and dropped as its buffers grow; n = 1 is a
    # one-row block and n = 33 ends on a lone row that joins the block before
    quad = _plan_supports()[case]
    folds = tail_folds(quad)
    rng = np.random.default_rng(7)
    work = Workspace()
    for _ in range(2):
        for n in (1, 2, 33, 37):
            X = 2.0 * rng.normal(size=(n, 1))
            for order in (0, 1, 2):
                tiers = tier_arrays(quad, X, order)
                for keep in range(min(order + 1, 2) + 1):
                    for fs in (folds, folds[::-1], folds[:1], []):
                        got = quad.tiers(X, order, fs, work, keep)
                        refs = (fold_drift, fold_grad_x, fold_grad_xx)[: order + 1]
                        assert len(got) == order + 1
                        for contractions, ref in zip(got, refs):
                            assert [c.tobytes() for c in contractions] == [
                                ref(f, tiers).tobytes() for f in fs
                            ]
                        if keep:
                            assert [t.tobytes() for t in work.kept] == [
                                t.tobytes() for t in tiers[:keep]
                            ]


@pytest.mark.parametrize("case", sorted(_plan_supports()))
def test_kept_tiers_span_the_cells_of_the_workspace(case):
    # a kept tier spans the workspace's kept cells, or the call's prefix
    # when that is longer
    quad = _plan_supports()[case]
    folds = tail_folds(quad)
    X = 2.0 * np.random.default_rng(9).normal(size=(33, 1))
    tiers = tier_arrays(quad, X, 1)
    for cells in (1, quad.h // 3, quad.h):
        work = Workspace(kept_cells=cells)
        for fs in ([], folds):
            quad.tiers(X, 1, fs, work, keep=2)
            width = max([cells] + [getattr(f, name).shape[0] for f in fs for name in TIER_WEIGHTS[:2]])
            assert [t.shape for t in work.kept] == [(33, width)] * 2
            assert [t.tobytes() for t in work.kept] == [t[:, :width].tobytes() for t in tiers]


# -- Gram matrices of the field rows -------------------------------------------


def kept_rows(quad, X):
    """``FieldQuadrature.rows`` of the states X over every evaluated cell,
    from a call that keeps its tiers."""
    work = Workspace()
    quad.tiers(X, 1, (), work, keep=2)
    return quad.rows(work.kept, quad.h)


def full_rows(quad, X):
    """The rows [b; grad_x b] (2n, M) of the states X on all M support cells."""
    tiers = full_tier_arrays(quad, X, 1)
    rows = np.concatenate((tiers[0], tiers[1] * quad._a1))
    return rows if quad._a0 is None else rows * quad._a0


@pytest.mark.parametrize("family,res", MIRRORED_GRIDS + SMALL_GRIDS)
def test_grams_match_full_sums_within_the_cut(family, res):
    field = ActivationField(family, "tanh")
    quad = FieldQuadrature(field, grid_support(field, res))
    rng = np.random.default_rng(res)
    X, Y = 2.0 * rng.normal(size=(37, 1)), 2.0 * rng.normal(size=(37, 1))
    # a Gibbs-like density, whose tail the cut drops on the larger grids
    w = gaussian_tailed(quad, 0.1 * float(quad.support.max()), float(quad.support.max()) / 12.0)
    folded = quad.gram_weights(w, 0.25)
    grams = quad.gram((kept_rows(quad, Y), kept_rows(quad, X)), kept_rows(quad, X), folded)
    assert grams.shape == (2, 74, 74)
    w = w * 0.25
    full_x = full_rows(quad, X)
    # the cut drops weights summing to at most 2^-60 ||w||_1, and the rows
    # are at most max|a0| (1 + max|a1|) in size
    cut = 2.0**-60 * np.sum(np.abs(w)) * np.max(np.abs(full_rows(quad, np.vstack((X, Y))))) ** 2
    for got, left in zip(grams, (Y, X)):
        full_left = full_rows(quad, left)
        ref = (full_left * w) @ full_x.T
        scale = (np.abs(full_left) * np.abs(w)) @ np.abs(full_x).T
        assert np.all(np.abs(got - ref) <= cut + 16 * EPS * scale)
        assert np.abs(ref).max() > 0.0
    if res >= 16:
        assert folded.shape[0] < quad.h


@pytest.mark.parametrize("case", sorted(_unmirrored_cases()))
def test_grams_without_mirror_sum_every_cell(case):
    field, support = _unmirrored_cases()[case]
    quad = FieldQuadrature(field, support)
    rng = np.random.default_rng(quad.h)
    X = 2.0 * rng.normal(size=(37, 1))
    w = rng.random(quad.h)
    assert quad.gram_weights(w).tobytes() == w.tobytes()
    got = quad.gram((kept_rows(quad, X),), kept_rows(quad, X), quad.gram_weights(w))[0]
    full = full_rows(quad, X)
    assert np.array_equal(kept_rows(quad, X), full)
    scale = (np.abs(full) * w) @ np.abs(full).T
    assert np.all(np.abs(got - (full * w) @ full.T) <= 16 * EPS * scale)


GRAM_BYTES = """
import hashlib
import numpy as np
from mfoc.model import RIDGE_OUTER, ActivationField, FieldQuadrature, Workspace
digest = hashlib.sha256()
rng = np.random.default_rng(5)
field = ActivationField(RIDGE_OUTER, "logistic")
for cells in (77, 256, 513, 1244, 1286, 2048):
    quad = FieldQuadrature(field, rng.normal(size=(cells, 3)))
    work, rows = Workspace(), []
    for _ in range(3):
        quad.tiers(rng.normal(size=(64, 1)), 1, (), work, keep=2)
        rows.append(quad.rows(work.kept, cells))
    gram = quad.gram(rows, rows[0], quad.gram_weights(rng.random(cells) + 0.5, 0.25))
    assert gram.shape == (3, 128, 128)
    digest.update(gram.tobytes())
print(digest.hexdigest())
"""


def test_grams_at_probe_shapes_are_byte_identical_across_blas_thread_counts():
    # 128-row operands are desk's 2n rows, and 1244 cells its prefix at the
    # solution; the other sizes reach past the inner dimension at which
    # OpenBLAS's dgemm rounds by thread count on both sides of a block. A
    # logistic support has no mirror, so its weights are never cut
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
        done = subprocess.run(
            [sys.executable, "-c", GRAM_BYTES], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout)
    assert digests[0] == digests[1] and len(digests[0].strip()) == 64


def test_non_finite_weights_are_never_cut():
    # a NaN or an infinite weight reaches every particle, so a sweep sees it
    field = ActivationField(COMPONENTWISE, "tanh")
    quad = FieldQuadrature(field, grid_support(field, 64))
    X = np.linspace(-2.0, 2.0, 5)[:, None]
    for bad in (np.nan, np.inf):
        values = gaussian_tailed(quad, 0.4, 0.3)
        values[-1] = bad  # a corner cell, far out in the tail
        drift = quad.tiers(X, 0, (quad.fold(values),))[0][0]
        assert not np.any(np.isfinite(drift))


def test_prior_path_folds_have_prefix_zero(small_config):
    # the prior is its own mirror image, so the componentwise field's folded
    # weights vanish and the mean drift is exactly zero
    path, _ = prior_path(small_config)
    quad, fold = _node_quadratures(small_config.field, path)[0]
    quad.tiers(small_config.dataset.x, 2, (fold,))
    assert [getattr(fold, name).shape for name in TIER_WEIGHTS] == [(0,)] * 3
    flow = forward_solve(small_config, path)
    assert all(x.tobytes() == small_config.dataset.x.tobytes() for x in flow.x)


def test_tanh_is_odd_to_the_bit():
    # the mirrored route takes sigma and sigma'' at a mirror cell as the exact
    # negatives, and sigma' as an exact copy, of its partner's
    tiny = np.finfo(float).smallest_subnormal
    rng = np.random.default_rng(0)
    spread = np.ldexp(1.0 + rng.random(200_000), rng.integers(-1075, 1024, 200_000))
    z = np.concatenate(([0.0, tiny, np.finfo(float).tiny, np.inf], np.logspace(-323, 308, 100_000), spread))
    assert np.tanh(-z).tobytes() == np.negative(np.tanh(z)).tobytes()
    plus, minus = sigma_triplet("tanh", z), sigma_triplet("tanh", -z)
    assert minus[0].tobytes() == np.negative(plus[0]).tobytes()
    assert minus[1].tobytes() == plus[1].tobytes()
    assert minus[2].tobytes() == np.negative(plus[2]).tobytes()


def _preactivation_supports():
    rng = np.random.default_rng(13)
    tanh = ActivationField(COMPONENTWISE, "tanh")
    ridge = ActivationField(RIDGE_OUTER, "tanh")
    logistic = ActivationField(RIDGE_OUTER, "logistic")
    cases = {
        f"{family}-res-{res}": (field, grid_support(field, res))
        for family, field in ((COMPONENTWISE, tanh), (RIDGE_OUTER, ridge))
        for res in (64, 17, 3, 2)
    }
    cases["particles-2000"] = (tanh, sample_prior(ConfinementPotential(), 2, 2000, rng))
    # one cell: a one-column product, which numpy would hand to gemv
    cases["particles-1"] = (ridge, sample_prior(ConfinementPotential(), 3, 1, rng))
    cases["logistic-ridge-res-17"] = (logistic, grid_support(logistic, 17))
    return cases


def _blocks_checked(monkeypatch, sigma, x, cells, call):
    """Run ``call`` with sigma replaced by a check that each pre-activation
    block it is handed equals, bit for bit, the next rows of x a1 + a2 at the
    first cells, formed as an outer product and a sum; the rows of each block
    and the widths of its tier buffers."""
    blocks = []

    def check(t, *derivatives):
        r0, (rows, p) = sum(b[0] for b in blocks), t.shape
        ref = np.multiply.outer(x[r0 : r0 + rows], cells[:p, -2]) + cells[:p, -1]
        # the uint64 view tells the signs of zero apart
        assert np.array_equal(t.view(np.uint64), ref.view(np.uint64))
        blocks.append((rows, [p] + [d.shape[1] for d in derivatives]))
        for d in derivatives:
            d[...] = 0.0

    monkeypatch.setitem(_SIGMAS, sigma, check)
    call()
    return blocks


@pytest.mark.parametrize("case", sorted(_preactivation_supports()))
@pytest.mark.parametrize("n", [1, 2, 16, 64])
def test_preactivation_is_the_two_pass_form_to_the_bit(case, n, monkeypatch):
    # the kernel and grad_a_batch form a1 x + a2 by one rank-2 product;
    # the reference here never goes through the kernel's code
    field, support = _preactivation_supports()[case]
    quad = FieldQuadrature(field, support)
    order = np.arange(quad.h) if quad._visit is None else quad._visit
    cells = quad.support[order]
    # keep=1 evaluates all h cells. A fold whose one weight sits on the first
    # visited cell that can carry it (a0 != 0) has a short prefix on a
    # mirrored grid: one cell, unless the plane a0 = 0 comes first
    carries = np.ones(quad.h, bool) if quad._a0 is None else quad._a0[: quad.h] != 0.0
    one = np.zeros(quad.support.shape[0])
    one[order[carries[order]][0]] = 1.0
    fold = quad.fold(one)
    prefix = quad.h if quad._visit is None else np.argmax(carries[order]) + 1
    assert fold._w_drift.shape[0] == prefix
    # grad_a_batch at every cell, or at a stride of at most 4096 of them
    A = cells[:: max(1, quad.h // 4096)]
    # signed zeros and products that swamp a2 among values, and values alone,
    # whose sums round differently from a fused multiply-add
    rng = np.random.default_rng(n)
    special = 2.0 * rng.normal(size=n)
    special[:4] = [-0.0, 1e300, 0.0, -1e300][:n]
    for x in (special, 2.0 * rng.normal(size=n)):
        X = x[:, None]
        calls = [
            (cells, lambda: quad.tiers(X, 0, (), Workspace(), keep=1)),
            (cells, lambda: quad.tiers(X, 2, (fold,), Workspace())),
            (A, lambda: field.grad_a_batch(X, A, np.ones((n, 1)))),
        ]
        for at, call in calls:
            rows = [r for r, _ in _blocks_checked(monkeypatch, field.sigma, x, at, call)]
            assert sum(rows) == n
            # a block has two rows at least; only a one-state batch runs alone
            assert min(rows) >= 2 or rows == [1]
        # a kept tier spans every cell, its derivatives the fold's prefix
        call = lambda: quad.tiers(X, 2, (fold,), Workspace(), keep=1)
        blocks = _blocks_checked(monkeypatch, field.sigma, x, cells, call)
        assert all(widths == [quad.h, prefix, prefix] for _, widths in blocks)
        if quad.h > 65536:
            # the ridge grids at res 64, h = 131072: two rows per block
            assert [r for r, _ in blocks] == [2] * (n // 2) + [1] * (n % 2)


def test_two_row_blocks_contract_like_whole_arrays():
    # on the ridge grid at res 64 a block holds two rows of 131072 cells, and
    # its contractions are those of the tier arrays over all rows at once
    field = ActivationField(RIDGE_OUTER, "tanh")
    quad = FieldQuadrature(field, grid_support(field, 64))
    folds = tail_folds(quad)
    X = np.linspace(-2.0, 2.0, 6)[:, None]
    tiers = tier_arrays(quad, X, 2)
    for keep in (0, 1):
        got = quad.tiers(X, 2, folds, Workspace(), keep=keep)
        for j, contract in enumerate((fold_drift, fold_grad_x, fold_grad_xx)):
            for f, fold in enumerate(folds):
                assert got[j][f].tobytes() == contract(fold, tiers).tobytes()


def test_lone_last_row_joins_the_block_before_it(monkeypatch):
    # five states in blocks of two rows: the fifth joins the second block, so
    # every row contracts as in the tier arrays over all rows at once
    field = ActivationField(RIDGE_OUTER, "tanh")
    quad = FieldQuadrature(field, grid_support(field, 64))
    folds = tail_folds(quad)
    X = np.linspace(-2.0, 2.0, 5)[:, None]
    tiers = tier_arrays(quad, X, 2)
    cells = quad.support[quad._visit]
    for keep in (0, 1):
        call = lambda: quad.tiers(X, 2, folds, Workspace(), keep=keep)
        blocks = _blocks_checked(monkeypatch, field.sigma, X[:, 0], cells, call)
        assert [r for r, _ in blocks] == [2, 3]
        monkeypatch.undo()
        got = call()
        for j, contract in enumerate((fold_drift, fold_grad_x, fold_grad_xx)):
            for f, fold in enumerate(folds):
                assert got[j][f].tobytes() == contract(fold, tiers).tobytes()


@pytest.mark.parametrize("name", ["desk", "mini"])
def test_fixture_quadratures_take_the_mirrored_route(name):
    config, doc = load_run_document(str(FIXTURES / f"{name}.json"), [])
    path, _ = _initial_grid_path(config, doc)
    quad = _node_quadratures(config.field, path)[0][0]
    assert quad.h == quad.support.shape[0] // 2


# -- satellites of the sweep engine ----------------------------------------------


def test_picard_stops_on_non_finite_residual(mini, monkeypatch, tmp_path):
    config, path = mini
    maps = []  # the resolution of each Gibbs map
    original = optimizer.gibbs_map_with_flow

    def counting(config, path):
        maps.append(path.measures[0].res)
        return original(config, path)

    monkeypatch.setattr(optimizer, "gibbs_map_with_flow", counting)
    monkeypatch.setattr(optimizer, "picard_residual", lambda path, snapshots: np.nan)
    result = picard_solve(config, path, max_iters=50)
    assert maps == [32]
    assert not result.converged and result.iterations == 0
    # mini's res-32 solve has a res-16 coarse level: each level stops at its
    # first map
    assert cli.main(["solve", "--config", str(MINI), "--out", str(tmp_path / "o")]) == 2
    assert maps == [32, 16, 32]


def test_picard_result_carries_the_flow_of_its_path(mini):
    config, path = mini
    result = picard_solve(config, path, max_iters=2)
    assert np.array_equal(result.flow.x, forward_solve(config, result.path).x)
    assert result.flow.z is None and result.flow.bracket is None


def test_pl_scan_runs_no_sweep_after_the_solve(tmp_path, monkeypatch):
    # only the curvature sweeps evaluate the kernel at order 2
    orders = []
    original = FieldQuadrature.tiers

    def counting(self, X, order, *args, **kwargs):
        orders.append(order)
        return original(self, X, order, *args, **kwargs)

    monkeypatch.setattr(FieldQuadrature, "tiers", counting)
    code = cli.main(["pl-scan", "--config", str(MINI), "--out", str(tmp_path / "o")])
    assert code == 0
    assert orders and 2 not in orders


def test_divergence_in_backward_sweep_names_the_node(mini, monkeypatch):
    config, path = mini
    flow = forward_solve(config, path)
    original = FieldQuadrature.tiers

    def poisoned(self, X, order, *args, **kwargs):
        out = original(self, X, order, *args, **kwargs)
        return (out[0], [np.full_like(g, np.nan) for g in out[1]]) + tuple(out[2:])

    monkeypatch.setattr(FieldQuadrature, "tiers", poisoned)
    with pytest.raises(DivergenceError, match=f"node {config.grid.nt - 2}"):
        backward_solve(config, path, flow)
    with pytest.raises(DivergenceError, match=f"diverged at node {config.grid.nt - 2}"):
        curvature_solve(config, path, flow)
