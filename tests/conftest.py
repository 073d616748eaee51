import numpy as np
import pytest

from mfoc.measures import ControlPath, GridMeasure, PriorMeasure
from mfoc.model import (
    ActivationField,
    ConfinementPotential,
    Dataset,
    FieldQuadrature,
    ProblemConfig,
    TerminalLoss,
    TimeGrid,
    _SIGMAS,
    _preactivation,
)

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
    from mfoc.measures import PerturbationPath

    mids = base.midpoints()
    g = np.asarray(fn(mids), dtype=float).reshape(base.values.shape)
    g = g - float(np.sum(g * base.values)) * base.cell_volume
    layers = []
    for k in range(grid.nt):
        w = 1.0 if profile is None else float(profile(grid.nodes[k]))
        layers.append(w * base.values * g)
    return PerturbationPath(grid, base.halfwidth, base.res, np.stack(layers))


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
