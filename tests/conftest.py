import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from mfoc.linearization import quadratic_form, solve_v
from mfoc.measures import ControlPath, GridMeasure, PerturbationPath, PriorMeasure
from mfoc.model import (
    ActivationField,
    ConfigError,
    ConfinementPotential,
    Dataset,
    FieldQuadrature,
    ProblemConfig,
    TerminalLoss,
    TimeGrid,
    _SIGMAS,
    _preactivation,
)
from mfoc.optimizer import total_cost
from mfoc.trajectories import forward_solve

DESK_RES = 64
DESK_HALFWIDTH = 4.0


def make_dataset(n=64, seed=11, zero_problem=False):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(-2.0, 2.0, n))[:, None]
    if zero_problem:
        y = x.copy()
    else:
        y = x - 0.6 * np.tanh(x) + 0.05 * rng.standard_normal((n, 1))
    return Dataset(x, y)


def make_config(n=64, nt=65, epsilon=0.5, seed=11, zero_problem=False, horizon=1.0):
    return ProblemConfig(
        epsilon=epsilon,
        field=ActivationField(),
        potential=ConfinementPotential(),
        loss=TerminalLoss(),
        dataset=make_dataset(n=n, seed=seed, zero_problem=zero_problem),
        grid=TimeGrid(0.0, horizon, nt),
        seed=seed,
    )


def make_prior(config, res=DESK_RES, halfwidth=DESK_HALFWIDTH):
    return PriorMeasure.build(
        config.potential, halfwidth, res, config.field.dprime
    )


def prior_path(config, res=DESK_RES, halfwidth=DESK_HALFWIDTH):
    prior = make_prior(config, res=res, halfwidth=halfwidth)
    return ControlPath.constant(config.grid, prior.measure), prior


def refined(path, s):
    """The path on a grid s times finer, each node measure held over the s
    fine intervals of its coarse one: one RK4 step per fine interval is s
    steps of dt / s per coarse interval, and coarse node k is fine node k s.
    For s a power of two, dt / s is exact."""
    grid = path.grid
    fine = TimeGrid(grid.t0, grid.horizon, (grid.nt - 1) * s + 1)
    measures = [m for m in path.measures[:-1] for _ in range(s)]
    return ControlPath(fine, measures + [path.measures[-1]])


def gaussian_grid(halfwidth, res, mean, sigma):
    """1D discretized normal density (not renormalized)."""
    m = GridMeasure(halfwidth, res, np.zeros(res))
    a = m.axis
    vals = np.exp(-((a - mean) ** 2) / (2.0 * sigma**2)) / (
        sigma * np.sqrt(2.0 * np.pi)
    )
    return GridMeasure(halfwidth, res, vals)


@pytest.fixture(scope="session")
def desk_config():
    return make_config()


@pytest.fixture(scope="session")
def small_config():
    # cheap fixture for unit tests: coarser grid, fewer particles
    return make_config(n=16, nt=17)


@pytest.fixture(scope="session")
def desk_solution(desk_config):
    """Converged first-order solution of the desk problem, shared widely."""
    from mfoc.optimizer import picard_solve

    path, prior = prior_path(desk_config)
    result = picard_solve(desk_config, path, damping=0.5, tol=1e-9, max_iters=500)
    assert result.converged
    return desk_config, prior, result


@pytest.fixture
def kernel_calls(monkeypatch):
    """(support cells, order, keep) of every FieldQuadrature.tiers call."""
    calls = []
    original = FieldQuadrature.tiers

    def counting(self, X, order, folds, work=None, keep=0, **kwargs):
        calls.append((self.support.shape[0], order, keep))
        return original(self, X, order, folds, work, keep, **kwargs)

    monkeypatch.setattr(FieldQuadrature, "tiers", counting)
    return calls


@pytest.fixture
def fold_calls(monkeypatch):
    """(support cells, parity) of every weight fold a FieldQuadrature forms."""
    calls = []
    original = FieldQuadrature._fold

    def counting(self, w, odd):
        calls.append((self.support.shape[0], odd))
        return original(self, w, odd)

    monkeypatch.setattr(FieldQuadrature, "_fold", counting)
    return calls


def relative_eta(base, grid, fn, profile=None):
    """Zero-mass perturbation proportional to a base grid density."""
    mids = base.midpoints()
    g = np.asarray(fn(mids), dtype=float).reshape(base.values.shape)
    g = g - float(np.sum(g * base.values)) * base.cell_volume
    layers = []
    for k in range(grid.nt):
        w = 1.0 if profile is None else float(profile(grid.nodes[k]))
        layers.append(w * base.values * g)
    return PerturbationPath(grid, base.halfwidth, base.res, np.stack(layers))


# -- second-order oracles -------------------------------------------------------
# Finite-difference and test-function routes to the linearized objects, which
# the tests check the package's sweeps against.


def grid_tail(grid, k: int) -> TimeGrid:
    """Sub-grid starting at interior node k (restart problems)."""
    if not 0 <= k < grid.nt - 1:
        raise ConfigError("tail start must be an interior node")
    return TimeGrid(grid.nodes[k], grid.horizon, grid.nt - k)


def scaled(eta, factor: float) -> PerturbationPath:
    return PerturbationPath(eta.grid, eta.halfwidth, eta.res, factor * eta.values)


def rho_action(tangent, probe, k: int) -> float:
    """Action of the linearized curve on a C^1 test function at node k.

    Realizes the derivative of the push-forward: mean of grad_x(phi) . dX
    over the ensemble.
    """
    flow = tangent.flow
    g = probe.grad_x(flow.x[k], flow.y)
    return float(np.mean(np.sum(g * tangent.dx[k], axis=-1)))


def value_probe(config, path, eta, k: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The linearized multiplier v along ``eta`` at node k for arbitrary
    points, via fresh tail characteristics."""
    if k == config.grid.nt - 1:
        return np.zeros(np.atleast_2d(x).shape[0])
    tail_grid = grid_tail(config.grid, k)
    tail_config = replace(
        config, dataset=Dataset(np.atleast_2d(x), np.atleast_2d(y)), grid=tail_grid
    )
    tail_path = ControlPath(tail_grid, path.measures[k:])
    tail_eta = PerturbationPath(tail_grid, eta.halfwidth, eta.res, eta.values[k:])
    tail_flow = forward_solve(tail_config, tail_path)
    tail_v = solve_v(tail_config, tail_path, tail_flow, tail_eta)
    return tail_v.v[0]


def grad_probe(config, path, eta, k: int, x, y, delta: float = 1e-4) -> np.ndarray:
    """Central finite-difference x-gradient of v at probe points."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    up = value_probe(config, path, eta, k, x + delta, y)
    dn = value_probe(config, path, eta, k, x - delta, y)
    return (up - dn) / (2.0 * delta)


def perturbed_path(path: ControlPath, eta: PerturbationPath, lam: float) -> ControlPath:
    measures = []
    for k, nu in enumerate(path.measures):
        vals = nu.values + lam * eta.node(k)
        if np.min(vals) < 0.0:
            raise ConfigError("perturbed path leaves the density cone")
        measures.append(nu.with_values(vals))
    return path.replace_measures(measures)


def second_derivative_check(
    config: ProblemConfig,
    path: ControlPath,
    flow,
    eta: PerturbationPath,
    lambdas=(1e-2, 1e-3),
    prior=None,
) -> SimpleNamespace:
    """Central second difference of the cost against the quadratic form."""
    jform = quadratic_form(config, path, flow, eta)
    j0 = total_cost(config, path, prior=prior).cost
    per_lambda = {}
    note = None
    for lam in lambdas:
        try:
            plus, minus = perturbed_path(path, eta, lam), perturbed_path(path, eta, -lam)
        except ConfigError:
            note = f"ladder truncated at lambda={lam:g}: density would go negative"
            continue
        jp = total_cost(config, plus, prior=prior).cost
        jm = total_cost(config, minus, prior=prior).cost
        per_lambda[lam] = (jp - 2.0 * j0 + jm) / lam**2
    fd2 = per_lambda[min(per_lambda)] if per_lambda else math.nan
    details = {"per_lambda": per_lambda}
    if note:
        details["note"] = note
    return SimpleNamespace(jform=jform, fd2=fd2, details=details)


# -- references for the activation kernel ---------------------------------------
# The reference loops of the tests hold tier arrays and contract them one fold at
# a time, with the arithmetic of the fused kernel: tiers on the quadrature's h
# evaluated cells in its visiting order (by |a| on a mirrored support), weights
# folded onto them and cut to each fold-tier's prefix, and its ufuncs and einsum
# contractions. The full_* helpers evaluate every support cell against the
# unfolded weights instead, as the kernel does on a support that is not
# mirrored.


def _with_ones(X):
    """The left operand [x, 1] (n, 2) of the pre-activation of states X (n, 1)."""
    x1 = np.ones((X.shape[0], 2))
    x1[:, 0] = X[:, 0]
    return x1


def tier_arrays(quad, X, order):
    """Activation tiers at the states X (n, 1): order + 1 (n, h) arrays."""
    X = np.atleast_2d(X)
    tiers = tuple(np.empty((X.shape[0], quad.h)) for _ in range(order + 1))
    _preactivation(_with_ones(X), quad._a12v, tiers[0])
    _SIGMAS[quad.field.sigma](*tiers)
    return tiers


def _prefix_contraction(tier, w):
    """A tier (n, h) contracted against fold weights over their prefix."""
    return np.einsum("nm,m->n", tier[:, : w.shape[0]], w)


def fold_drift(fold, tiers):
    return _prefix_contraction(tiers[0], fold._w_drift)[:, None]


def fold_grad_x(fold, tiers):
    return _prefix_contraction(tiers[1], fold._w_gx)


def fold_grad_xx(fold, tiers):
    return _prefix_contraction(tiers[2], fold._w_gxx)


def full_tier_arrays(quad, X, order):
    """Activation tiers at the states X (n, 1) on all M support cells."""
    support = quad.support
    z = np.multiply.outer(np.atleast_2d(X)[:, 0], support[:, -2]) + support[:, -1]
    return sigma_triplet(quad.field.sigma, z)[: order + 1]


def full_contraction(fold, tiers, j):
    """Tier j on all M cells contracted against the unfolded weights, (n,)."""
    return np.einsum("nm,m->n", tiers[j], fold._weights(j))


def sigma_triplet(name, z):
    """sigma, sigma' and sigma'' of z as fresh arrays."""
    out = (np.array(z, dtype=float), np.empty(np.shape(z)), np.empty(np.shape(z)))
    _SIGMAS[name](*out)
    return out
