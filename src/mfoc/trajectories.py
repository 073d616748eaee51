"""Coupled characteristics of the control problem.

The feature particles X follow the mean drift of the control path, the
adjoints Z = grad_x u(X, Y) are transported backward along the stored X, and
the tangent particles dX realize the derivative of the flow with respect to a
signed control perturbation.

Integrator conventions (shared by the whole package):

* classical RK4 with the control frozen at the left node of each interval,
* backward and tangent passes reconstruct in-interval positions from the
  stored node values with a cubic Hermite step (one-sided in-interval drifts),
  which keeps the passes deterministic and fourth-order without re-solving,
* the transported-test comparison in ``duality_residual`` deliberately uses
  the cruder linear in-interval reconstruction; its second-order defect is the
  quantity being reported,
* a sweep takes one RK4 step per interval of its path's grid; a finer step
  is a refined path, whose grid splits each interval into s equal ones and
  holds the node's measure over all of them.

Kernel work (shared by the forward, backward and stage passes): each stage
position costs one ``FieldQuadrature.tiers`` call, which contracts the tiers
against every weight fold that position needs and hands back per-particle
vectors; the RK4 right-hand sides only see those. A sweep owns one
``Workspace`` for the buffers and plans of all its calls: a call whose
layout (order, keep and fold-tier prefixes) an earlier call formed only
writes its states and runs the arithmetic, as the four RK4 stages of a
forward interval do. The forward and backward sweeps of a Gibbs map or a
Langevin step share the path's folds, so each tier's weights are folded
once per map. Only the particle reductions onto the measure grid (the node
bracket) and the stability probe's Gram matrices, over the cells its rows
read, ask for a tier in full.
Each particle's contraction is a fixed-order numpy sum over support points
(on a mirrored support, over the prefix of the folded half, in order of |a|,
that carries the fold's weight, which the support and the weights alone
decide) and the particle reductions sum rows in order, so results depend
neither on the block size, nor on the other folds of a call, nor on thread
counts. The pre-activation a1 x + a2 of a row block is one rank-2 BLAS
product [x, 1] by [a1; a2]. dgemm rounds x a1 and then its sum with a2, as
an outer product and an add would, and never splits the inner dimension 2
across threads; so its bits equal the two-pass form (up to the sign of an
exact zero when a2 = -0, which no grid midpoint is) at any BLAS thread
count.

Every linearized sweep (tangent, multiplier, linearized map, quadratic form
and the cross-term duality) reads its stage data from one ``stage_pass``,
which contracts the control fold and the folds of any number of
perturbations in the same call. ``duality_residual`` passes its folds to
the kernel in the same way, so no sweep of the package builds tier arrays.

``backward_solve`` is the order-1 adjoint sweep of the Gibbs map and the
Langevin step. The pair (z, h) of adjoint and curvature h = grad_xx u has
one backward RK4 driver, ``_curvature_sweep``, on an order-2 stage pass:
``curvature_solve`` stores its node states on the flow, and the multiplier
and both sides of the cross-term duality add their accumulator columns to
the same state; RK4 is elementwise per column, so stacking changes no bit.

Features and labels are scalars: states are (n, 1) arrays, and the kernel
hands back drifts as (n, 1) and their x-derivatives as (n,) vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .measures import (
    ControlPath,
    GridMeasure,
    ParticleMeasure,
    PerturbationPath,
)
from .model import ActivationField, ConfigError, FieldQuadrature, ProblemConfig, Workspace


class DivergenceError(RuntimeError):
    """Particle state became non-finite during integration."""


@dataclass(frozen=True)
class EnsembleFlow:
    """Per-node ensemble state along the time grid.

    ``x`` always holds the forward features, shape (nt, n, 1). ``y`` is the
    constant label block (n, 1). ``z`` holds the backward adjoints when
    populated; ``hess`` the second x-derivative of the value function along
    characteristics, (nt, n), when ``curvature_solve`` filled it;
    ``bracket`` the per-node samples of the mean b . z coupling on the cells
    of the grid supplied to the backward pass, which may differ from the
    path's own.
    """

    x: np.ndarray
    y: np.ndarray
    z: Optional[np.ndarray] = None
    hess: Optional[np.ndarray] = None
    bracket: Optional[np.ndarray] = None

    @property
    def nt(self) -> int:
        return self.x.shape[0]

    @property
    def n(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class TangentFlow:
    """Tangent particles dX realizing the linearized push-forward."""

    dx: np.ndarray  # (nt, n, 1)
    flow: EnsembleFlow
    eta: Optional[PerturbationPath] = None


@dataclass(frozen=True)
class ProbeFunction:
    """C^1 test function phi(x, y) with analytic x-gradient."""

    name: str
    value: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad_x: Callable[[np.ndarray, np.ndarray], np.ndarray]


def default_test_functions():
    """Small C^1 family used by the push-forward and duality diagnostics."""
    def _col(fn):
        return lambda x, y: fn(x[:, 0], y[:, 0])

    def _grad(fn):
        return lambda x, y: fn(x[:, 0], y[:, 0])[:, None]

    return [
        ProbeFunction("constant", _col(lambda x, y: np.ones_like(x)), _grad(lambda x, y: np.zeros_like(x))),
        ProbeFunction("affine", _col(lambda x, y: x + 0.5 * y), _grad(lambda x, y: np.ones_like(x))),
        ProbeFunction("quadratic", _col(lambda x, y: 0.5 * x**2 - 0.3 * x * y), _grad(lambda x, y: x - 0.3 * y)),
        ProbeFunction("saturating", _col(lambda x, y: np.tanh(1.3 * x - 0.4 * y)), _grad(lambda x, y: 1.3 / np.cosh(1.3 * x - 0.4 * y) ** 2)),
        ProbeFunction("bump", _col(lambda x, y: np.exp(-((x - 0.3) ** 2))), _grad(lambda x, y: -2.0 * (x - 0.3) * np.exp(-((x - 0.3) ** 2)))),
    ]


# -- measure plumbing ----------------------------------------------------------


def _measure_arrays(m):
    """(support points, weights) realizing integration against m."""
    if isinstance(m, GridMeasure):
        return m.midpoints(), m.values.ravel() * m.cell_volume
    if isinstance(m, ParticleMeasure):
        return m.points, np.full(m.m, 1.0 / m.m)
    raise ConfigError(f"unsupported measure type {type(m).__name__}")


def _node_quadratures(field: ActivationField, path: ControlPath):
    """Per-node (quadrature, control fold); grid paths share one support."""
    if path.is_grid:
        quad = FieldQuadrature(field, path.measures[0].midpoints())
        return [(quad, quad.fold(m.values.ravel(), m.cell_volume)) for m in path.measures]
    out = []
    for m in path.measures:
        support, weights = _measure_arrays(m)
        quad = FieldQuadrature(field, support)
        out.append((quad, quad.fold(weights)))
    return out


# -- forward pass ---------------------------------------------------------------


def forward_solve(config: ProblemConfig, path: ControlPath, nodes=None) -> EnsembleFlow:
    """Push the dataset features through the mean-field ODE, one RK4 step per
    interval of the path's grid with the control frozen at its left node.
    ``nodes`` are the path's ``_node_quadratures`` when a backward sweep of
    the same path shares them, so that each fold forms its weights once."""
    grid = path.grid
    X = np.empty((grid.nt, config.dataset.n, 1))
    X[0] = config.dataset.x
    nodes = _node_quadratures(config.field, path) if nodes is None else nodes
    work = Workspace()
    for k in range(grid.nt - 1):
        quad, fold = nodes[k]

        def drift(y):
            return quad.tiers(y, 0, (fold,), work)[0][0]

        xk = _rk4_between(X[k], grid.dt, drift, drift, drift)
        if not np.isfinite(xk).all():
            raise DivergenceError(f"forward state diverged at node {k + 1}")
        X[k + 1] = xk
    return EnsembleFlow(x=X, y=config.dataset.y.copy())


# -- backward / tangent passes ----------------------------------------------------


def _hermite_midpoint(x_left, x_right, b_left, b_right, dt):
    """Cubic Hermite value at the interval midpoint from node data."""
    return 0.5 * (x_left + x_right) + 0.125 * dt * (b_left - b_right)


def _rk4_between(y, dt, f_left, f_mid, f_right):
    """One RK4 step of size dt with stage fields frozen per position."""
    k1 = f_left(y)
    k2 = f_mid(y + 0.5 * dt * k1)
    k3 = f_mid(y + 0.5 * dt * k2)
    k4 = f_right(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def backward_solve(
    config: ProblemConfig,
    path: ControlPath,
    flow: EnsembleFlow,
    bracket_grid: Optional[GridMeasure] = None,
    nodes=None,
) -> EnsembleFlow:
    """Transport the adjoint Z backward along the stored features.

    The terminal condition is assigned exactly from the loss gradient. When
    ``bracket_grid`` is given, the returned flow also holds the per-node
    samples of the coupling Phi_k = mean_i b(x_i(t_k), .) z_i(t_k) on its
    cells: on the path's own grid from the kept tiers of the sweep's node
    calls, on any other grid from one order-0 kernel call per node on its
    cells. The sweep is order 1; ``curvature_solve`` transports the
    curvature. ``nodes`` are the forward sweep's ``_node_quadratures`` when
    it shares them; the sweep drops each node once it has passed it.
    """
    grid = path.grid
    if bracket_grid is not None and not path.is_grid:
        raise ConfigError("bracket assembly requires a grid path")
    nodes = _node_quadratures(config.field, path) if nodes is None else nodes
    work = Workspace()
    Z = np.empty_like(flow.x)
    z = _terminal_adjoint(config, flow)
    Z[-1] = z
    bracket, sampler, keep = None, None, 0
    if bracket_grid is not None:
        bracket = np.empty((grid.nt, bracket_grid.res**bracket_grid.dprime))
        # the bracket reduces over particles: on the path's own grid the node
        # calls keep their order-0 tier for it, elsewhere one call per node does
        keep = int(bracket_grid.same_geometry(path.measures[0]))
        sampler = nodes[0][0] if keep else FieldQuadrature(config.field, bracket_grid.midpoints())

    def sample(j):
        if not keep:
            sampler.tiers(flow.x[j], 0, (), work, keep=1)
        bracket[j] = sampler.bracket(work.kept, Z[j])

    right = None
    for k in range(grid.nt - 2, -1, -1):
        quad, fold = nodes[k]
        if right is None:
            right = _first(quad.tiers(flow.x[k + 1], 1, (fold,), work, keep))
            if bracket is not None:
                sample(k + 1)
        # grid paths share one support, so the left node's call also serves
        # interval k - 1, whose right node it is (each node is evaluated once)
        roll = path.is_grid and k > 0
        folds = (fold, nodes[k - 1][1]) if roll else (fold,)
        node = quad.tiers(flow.x[k], 1, folds, work, keep)
        left = _first(node)
        x_mid = _hermite_midpoint(flow.x[k], flow.x[k + 1], left[0], right[0], grid.dt)
        mid = _first(quad.tiers(x_mid, 1, (fold,), work))
        z = _rk4_between(z, -grid.dt, _adjoint_rhs(right), _adjoint_rhs(mid), _adjoint_rhs(left))
        if not np.isfinite(z).all():
            raise DivergenceError(f"backward state diverged at node {k}")
        Z[k] = z
        if bracket is not None:
            sample(k)
        right = tuple(c[1] for c in node) if roll else None
        nodes[k] = None  # interval k - 1 needs only node k - 1's fold
    return replace(flow, z=Z, bracket=bracket)


def _first(contractions):
    """(drift, grad_x[, grad_xx]) of the first fold of a kernel call."""
    return tuple(c[0] for c in contractions)


def _terminal_adjoint(config, flow):
    """Loss gradient at the terminal features, (n, 1)."""
    return config.loss.grad_x(flow.x[-1], flow.y)


def _adjoint_rhs(stage):
    bx = stage[1][:, None]
    return lambda z: -bx * z


@dataclass(frozen=True)
class StagePass:
    """Stage data of the linearized sweeps along one stored grid flow.

    Interval k takes its RK4 stages at s = 0, 1, 2: the left node, the cubic
    Hermite midpoint ``x_mid[k]`` and the right node. Indexed [k, s],
    ``drift`` (n, 1) is the drift of the control frozen at node k, and ``bx``
    and ``bxx`` (order-2 passes only) are its grad_x and grad_xx, (n,) each.
    Indexed [p, k, s], ``s_eta`` (n, 1) and ``sx_eta`` (n,) are the drift of
    the p-th perturbation and its grad_x. No tier array is kept.
    """

    quad: FieldQuadrature
    x_mid: np.ndarray
    drift: np.ndarray
    bx: np.ndarray
    bxx: Optional[np.ndarray]
    s_eta: np.ndarray
    sx_eta: np.ndarray


def stage_pass(
    config: ProblemConfig,
    path: ControlPath,
    flow: EnsembleFlow,
    etas: Sequence[PerturbationPath] = (),
    order: int = 2,
) -> StagePass:
    """One kernel evaluation per stage position of the linearized sweeps.

    A pass of the given tier order builds the midpoints and contracts the
    control folds there (grad_xx only at order 2, which only the curvature
    sweeps need), and the folds of every perturbation in ``etas``.
    """
    grid = path.grid
    if not path.is_grid:
        raise ConfigError("linearized sweeps require the grid backend")
    if any(eta.grid.nt != grid.nt or not path.measures[0].same_geometry(eta) for eta in etas):
        raise ConfigError("perturbation must live on the control path's grid")
    shape = (grid.nt - 1, 3, flow.n)
    nodes = _node_quadratures(config.field, path)
    quad = nodes[0][0]
    drift, bx = np.empty(shape + (1,)), np.empty(shape)
    bxx = np.empty(shape) if order == 2 else None
    s_eta = np.empty((len(etas),) + shape + (1,))
    sx_eta = np.empty((len(etas),) + shape)

    # per interval: the control's fold, then one per perturbation
    folds = [
        [nodes[k][1]] + [quad.fold(eta.node(k).ravel(), eta.cell_volume) for eta in etas]
        for k in range(shape[0])
    ]
    work = Workspace()

    def contract(x, uses):
        c = iter(zip(*quad.tiers(x, order, [f for k, _ in uses for f in folds[k]], work)))
        for k, s in uses:
            fold = next(c)
            drift[k, s], bx[k, s] = fold[:2]
            if bxx is not None:
                bxx[k, s] = fold[2]
            for p in range(len(etas)):
                s_eta[p, k, s], sx_eta[p, k, s] = next(c)[:2]

    for j in range(grid.nt):
        contract(flow.x[j], [(k, s) for k, s in ((j - 1, 2), (j, 0)) if 0 <= k < shape[0]])
    x_mid = _hermite_midpoint(flow.x[:-1], flow.x[1:], drift[:, 0], drift[:, 2], grid.dt)
    for k in range(shape[0]):
        contract(x_mid[k], [(k, 1)])
    return StagePass(quad, x_mid, drift, bx, bxx, s_eta, sx_eta)


def _curvature_sweep(config, flow, stages: StagePass, dt, terminal=(), columns=None):
    """Backward RK4 transport of the adjoint z and the curvature h on an
    order-2 stage pass, with any accumulator columns of the caller.

    The state is (n, 2 + len(terminal)): z, h, then one column per
    accumulator, which starts at its ``terminal`` value. ``columns(k, i, s)``
    gives the accumulators' derivatives at stage i of interval k for state s.
    Yields (k, state) from the terminal node down to node 0.
    """
    state = np.empty((flow.n, 2 + len(terminal)))
    state[:, 0] = _terminal_adjoint(config, flow)[:, 0]
    state[:, 1] = 1.0  # quadratic loss: terminal curvature is the identity
    state[:, 2:] = terminal
    yield flow.nt - 1, state
    for k in range(flow.nt - 2, -1, -1):

        def rhs(i):
            bx, bxx = stages.bx[k, i], stages.bxx[k, i]

            def f(s):
                z, h = s[:, 0], s[:, 1]
                extra = columns(k, i, s) if columns else ()
                return np.stack([-bx * z, -2.0 * bx * h - bxx * z, *extra], axis=1)

            return f

        state = _rk4_between(state, -dt, rhs(2), rhs(1), rhs(0))
        yield k, state


def curvature_solve(
    config: ProblemConfig,
    path: ControlPath,
    flow: EnsembleFlow,
    stages: Optional[StagePass] = None,
) -> EnsembleFlow:
    """The flow with its adjoint Z and curvature h = grad_xx u filled in.

    Both are transported backward along the stored features on ``stages``,
    an order-2 ``stage_pass`` of the same path and flow, which is built when
    not given.
    """
    if stages is None:
        stages = stage_pass(config, path, flow)
    Z = np.empty_like(flow.x)
    H = np.empty((flow.nt, flow.n))
    for k, state in _curvature_sweep(config, flow, stages, path.grid.dt):
        if not np.all(np.isfinite(state[:, 0])):
            raise DivergenceError(f"backward state diverged at node {k}")
        Z[k, :, 0] = state[:, 0]
        H[k] = state[:, 1]
    return replace(flow, z=Z, hess=H)


def _tangent_dx(stages: StagePass, dt: float) -> np.ndarray:
    """Tangent particles at the nodes for the pass's first perturbation."""
    dX = np.zeros((stages.x_mid.shape[0] + 1,) + stages.x_mid.shape[1:])
    for k in range(dX.shape[0] - 1):

        def rhs(s):
            bx, source = stages.bx[k, s][:, None], stages.s_eta[0, k, s]
            return lambda v: bx * v + source

        dX[k + 1] = _rk4_between(dX[k], dt, rhs(0), rhs(1), rhs(2))
        if not np.all(np.isfinite(dX[k + 1])):
            raise DivergenceError(f"tangent state diverged at node {k + 1}")
    return dX


def tangent_solve(
    config: ProblemConfig,
    path: ControlPath,
    flow: EnsembleFlow,
    eta: PerturbationPath,
) -> TangentFlow:
    """Tangent particles for the linearized continuity equation.

    Solves d(dX)/dt = grad_x b(X, nu_t) dX + b(X, eta_t), dX(t0) = 0 along the
    stored characteristics, with the same node-frozen control convention.
    """
    dx = _tangent_dx(stage_pass(config, path, flow, (eta,), order=1), path.grid.dt)
    return TangentFlow(dx=dx, flow=flow, eta=eta)


def duality_residual(
    config: ProblemConfig,
    path: ControlPath,
    probe: ProbeFunction,
    flow: Optional[EnsembleFlow] = None,
) -> float:
    """Defect between the push-forward mean of a test function and its
    backward-transported counterpart evaluated on the initial ensemble.

    The transported side tracks the pair (value, x-gradient) of the test
    function backward along the linearly reconstructed characteristics; the
    along-path defect of that reconstruction is exactly what the returned
    residual measures, so it vanishes for constant tests or zero drift and
    shrinks at second order in the time step.
    """
    if flow is None:
        flow = forward_solve(config, path)
    grid = path.grid
    push_forward = float(np.mean(probe.value(flow.x[-1], flow.y)))
    psi = probe.value(flow.x[-1], flow.y).astype(float)
    g = probe.grad_x(flow.x[-1], flow.y).astype(float)
    nodes = _node_quadratures(config.field, path)
    work = Workspace()
    dt = grid.dt
    for k in range(grid.nt - 2, -1, -1):
        quad, fold = nodes[k]
        chord = (flow.x[k + 1] - flow.x[k]) / dt
        x_mid = 0.5 * (flow.x[k] + flow.x[k + 1])
        stages = [
            _first(quad.tiers(x, 1, (fold,), work)) for x in (flow.x[k + 1], x_mid, flow.x[k])
        ]

        def rhs(stage):
            drift, bx = stage
            defect = chord - drift

            def f(state):
                val_g = state[..., 1:]
                dpsi = np.einsum("ni,ni->n", defect, val_g)
                dg = -bx[:, None] * val_g
                return np.concatenate([dpsi[:, None], dg], axis=-1)

            return f

        state = np.concatenate([psi[:, None], g], axis=-1)
        state = _rk4_between(state, -dt, rhs(stages[0]), rhs(stages[1]), rhs(stages[2]))
        psi, g = state[..., 0], state[..., 1:]
    transported = float(np.mean(psi))
    return abs(push_forward - transported)
