"""Cost evaluation, Gibbs map, Anderson-accelerated Picard iteration and the
two descent flows (grid Fokker-Planck, particle Langevin).

The Gibbs map sends a control path to the family of measures proportional to
exp(-ell - Phi_t / epsilon), where Phi_t is the ensemble average of b . Z
along the flow driven by the path; its fixed points are exactly the
first-order optimal controls. All normalizers are computed with log-sum-exp
and the Picard update combines log-densities (Anderson mixing over the last
two steps, the damped geometric mixture without history) before each node is
renormalized, which preserves positivity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .measures import (
    ControlPath,
    GridMeasure,
    LOG_FLOOR,
    ParticleMeasure,
    PriorMeasure,
    _logsumexp,
    fisher_divergence,
    path_entropy,
    relative_entropy,
)
from .model import ConfigError, ProblemConfig
from .trajectories import EnsembleFlow, backward_solve, forward_solve


class PositivityError(RuntimeError):
    """A Fokker-Planck step kept a negative cell after every step halving."""


@dataclass(frozen=True)
class GibbsSnapshot:
    """Per-node Gibbs data: potential samples, log-normalizer, density."""

    phi: np.ndarray  # grid-shaped samples of mean b . z
    log_z: float
    gamma: GridMeasure


@dataclass(frozen=True)
class CostReport:
    terminal: float
    entropy: float
    cost: float  # terminal + epsilon * entropy
    fisher: Optional[float] = None
    picard_residual: Optional[float] = None


@dataclass(frozen=True)
class PicardResult:
    """``flow`` is the forward flow under ``path`` from the last Gibbs map,
    so callers need not solve it again. Its adjoint and bracket are dropped:
    held past the solve, they pin freed memory and raise the peak RSS of a
    run."""

    path: ControlPath
    report: CostReport
    iterations: int
    converged: bool
    residual_history: tuple
    flow: EnsembleFlow


@dataclass(frozen=True)
class FpStepResult:
    path: ControlPath
    report: CostReport
    dj_estimate: float  # first-order predicted change, -h * fisher
    halvings: int


@dataclass(frozen=True)
class LangevinStepResult:
    path: ControlPath
    resampled: int


def _require_grid(path: ControlPath, what: str):
    if not path.is_grid:
        raise ConfigError(f"{what} requires the grid backend")


def _prior_for(config: ProblemConfig, template: GridMeasure) -> PriorMeasure:
    return PriorMeasure.build(
        config.potential, template.halfwidth, template.res, template.dprime
    )


def _gibbs_from_bracket(config, template, potential_vals, bracket_row):
    log_unnorm = -potential_vals - bracket_row / config.epsilon
    shaped = log_unnorm.reshape(template.values.shape)
    log_z = _logsumexp(log_unnorm) + template.dprime * math.log(template.cell_width)
    gamma = template.with_values(np.exp(shaped - log_z))
    return GibbsSnapshot(
        phi=bracket_row.reshape(template.values.shape), log_z=log_z, gamma=gamma
    )


def gibbs_map(config: ProblemConfig, path: ControlPath):
    """Gibbs image of a control path: one snapshot per time node.

    Runs the forward and backward passes under the path, assembles the
    coupling potential on the measure grid and normalizes in log space.
    """
    snapshots, _ = gibbs_map_with_flow(config, path)
    return snapshots


def gibbs_map_with_flow(config: ProblemConfig, path: ControlPath):
    _require_grid(path, "gibbs map")
    template = path.measures[0]
    flow = forward_solve(config, path)
    flow = backward_solve(config, path, flow, bracket_grid=template)
    potential_vals = config.potential.value(template.midpoints())
    snapshots = tuple(
        _gibbs_from_bracket(config, template, potential_vals, flow.bracket[k])
        for k in range(path.grid.nt)
    )
    return snapshots, flow


def terminal_cost(config: ProblemConfig, flow: EnsembleFlow) -> float:
    return float(np.mean(config.loss.value(flow.x[-1], flow.y)))


def total_cost(
    config: ProblemConfig,
    path: ControlPath,
    with_fisher: bool = False,
    prior: Optional[PriorMeasure] = None,
) -> CostReport:
    """Terminal plus entropic running cost; optionally the Fisher functional."""
    _require_grid(path, "total cost")
    prior = prior or _prior_for(config, path.measures[0])
    fisher = None
    if with_fisher:
        snapshots, flow = gibbs_map_with_flow(config, path)
        fisher = _fisher_from_snapshots(config, path, snapshots)
    else:
        flow = forward_solve(config, path)
    terminal = terminal_cost(config, flow)
    entropy = path_entropy(path, prior)
    return CostReport(
        terminal=terminal,
        entropy=entropy,
        cost=terminal + config.epsilon * entropy,
        fisher=fisher,
    )


def _fisher_from_snapshots(config, path, snapshots) -> float:
    dt = path.grid.dt
    eps2 = config.epsilon**2
    total = 0.0
    for k in range(path.grid.nt - 1):
        div = fisher_divergence(path.measures[k], snapshots[k].gamma)
        if math.isinf(div):
            return math.inf
        total += eps2 * div * dt
    return total


def fisher_functional(config: ProblemConfig, path: ControlPath) -> float:
    """Dissipation rate of the cost along the measure-space gradient flow."""
    snapshots = gibbs_map(config, path)
    return _fisher_from_snapshots(config, path, snapshots)


def picard_residual(path: ControlPath, snapshots) -> float:
    return max(
        relative_entropy(path.measures[k], snapshots[k].gamma)
        for k in range(path.grid.nt)
    )


# past steps whose differences the Anderson fit uses
_DEPTH = 2


def _log_density(m: GridMeasure) -> np.ndarray:
    return np.log(np.maximum(m.values, LOG_FLOOR))


def _mixing_coefficients(gram, rhs):
    """Least-squares solution of the normal equations of the Anderson fit, or
    None when it is not finite."""
    if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(rhs))):
        return None
    coeffs = np.linalg.lstsq(gram, rhs, rcond=None)[0]
    return coeffs if np.all(np.isfinite(coeffs)) else None


def picard_solve(
    config: ProblemConfig,
    init_path: ControlPath,
    damping: float = 0.5,
    tol: float = 1e-8,
    max_iters: int = 500,
) -> PicardResult:
    """Anderson-accelerated fixed-point iteration for the first-order system.

    It works on the per-node log-densities x = log nu and the fixed-point
    residual f = log Gamma[nu] - x. The update is type-II Anderson mixing of
    depth 2 (Walker & Ni, SIAM J. Numer. Anal. 49, 2011) with mixing weight
    beta = ``damping``: x+ = x + beta f - sum_i c_i (dx_i + beta df_i), where
    dx_i and df_i are the differences of x and f over the last two steps and
    c solves the least-squares fit of f by the df_i. Each node is then
    renormalized, so densities stay positive, and dx is the step so taken.
    With an empty history the step is the damped geometric mixture
    nu^{1-beta} Gamma[nu]^beta; a non-finite coefficient clears the history
    and takes that step. The history is held in float32: it only steers the
    extrapolation, while the iterate, the map, the residual and the stopping
    test stay float64.

    The converged cost is the value of the control problem at (t0, gamma_0).
    A non-finite residual stops the iteration at once, unconverged.
    """
    _require_grid(init_path, "picard solve")
    if not 0.0 < damping <= 1.0:
        raise ConfigError("damping must lie in (0, 1]")
    template = init_path.measures[0]
    prior = _prior_for(config, template)
    path = init_path
    nt = path.grid.nt
    # slot j holds a history column (dx, df) or the last step's pending dx
    # and f, which the next residual turns into a column
    dx = np.empty((_DEPTH, nt) + template.values.shape, dtype=np.float32)
    df = np.empty_like(dx)
    columns = []  # slots of the complete columns, oldest first
    pending = None
    history = []
    iterations = 0
    converged = False
    snapshots, flow = gibbs_map_with_flow(config, path)
    for _ in range(max_iters + 1):
        residual = picard_residual(path, snapshots)
        history.append(residual)
        if residual <= tol:
            converged = True
            break
        if iterations >= max_iters or not math.isfinite(residual):
            break
        # drop the flow now and each snapshot once its node is mixed, so two
        # maps are never held at once
        flow = None
        coeffs = ()
        if pending is not None:
            columns.append(pending)
            gram = np.zeros((len(columns), len(columns)))
            rhs = np.zeros(len(columns))
            for k in range(nt):
                f = _log_density(snapshots[k].gamma) - _log_density(path.measures[k])
                df[pending, k] = f - df[pending, k]
                d = df[columns, k].reshape(len(columns), -1).astype(float)
                gram += np.einsum("im,jm->ij", d, d)
                rhs += np.einsum("im,m->i", d, f.ravel())
            coeffs = _mixing_coefficients(gram, rhs)
            if coeffs is None:
                columns, coeffs = [], ()
        slot = iterations % _DEPTH  # the oldest column's slot, or a free one
        snapshots = list(snapshots)
        new_measures = []
        for k in range(nt):
            x = _log_density(path.measures[k])
            f = _log_density(snapshots[k].gamma) - x
            snapshots[k] = None
            x_new = x + damping * f
            for c, j in zip(coeffs, columns):
                x_new -= c * (dx[j, k].astype(float) + damping * df[j, k].astype(float))
            new = GridMeasure.from_log_values(template.halfwidth, template.res, x_new)
            dx[slot, k] = _log_density(new) - x
            df[slot, k] = f
            new_measures.append(new)
        columns = [j for j in columns if j != slot]
        pending = slot
        path = path.replace_measures(new_measures)
        iterations += 1
        snapshots, flow = gibbs_map_with_flow(config, path)
    terminal = terminal_cost(config, flow)
    entropy = path_entropy(path, prior)
    report = CostReport(
        terminal=terminal,
        entropy=entropy,
        cost=terminal + config.epsilon * entropy,
        fisher=_fisher_from_snapshots(config, path, snapshots),
        picard_residual=history[-1],
    )
    return PicardResult(
        path=path,
        report=report,
        iterations=iterations,
        converged=converged,
        residual_history=tuple(history),
        flow=replace(flow, z=None, bracket=None),
    )


# -- grid Fokker-Planck descent ---------------------------------------------------

_NEGATIVITY_REL_TOL = 1e-13
# relative scale of the Gibbs-shaped density floor inside the descent
# potential's logarithm: below it the log term cancels the confinement
# exactly, so clamped far-tail cells see only the smooth coupling gradient
# instead of enormous artificial log walls (which would amplify sign noise
# step over step)
_XI_REL_FLOOR = 1e-20


def _fv_step_node(values, xi, h_cell, step):
    """Explicit conservative step of d(nu)/ds = div(nu grad(xi)).

    Centered two-point fluxes nu * dxi on interior faces, no-flux boundary.
    Returns the updated cell values (same shape).
    """
    new = values.copy()
    d = values.ndim
    for axis in range(d):
        v_l = np.moveaxis(values, axis, 0)[:-1]
        v_r = np.moveaxis(values, axis, 0)[1:]
        xi_l = np.moveaxis(xi, axis, 0)[:-1]
        xi_r = np.moveaxis(xi, axis, 0)[1:]
        flux = 0.5 * (v_l + v_r) * (xi_r - xi_l) / h_cell  # on interior faces
        upd = np.moveaxis(new, axis, 0)
        upd[:-1] += (step / h_cell) * flux
        upd[1:] -= (step / h_cell) * flux
    return new


def fp_descent_step(
    config: ProblemConfig,
    path: ControlPath,
    step: float,
    prior: Optional[PriorMeasure] = None,
) -> FpStepResult:
    """One explicit finite-volume step of the measure-space gradient flow.

    The descent potential at node k is xi = eps log(nu) + eps ell + Phi_k with
    Phi assembled from a fresh flow solve, shared across all nodes of the
    step. Fluxes are conservative, so total mass is preserved to rounding;
    if a genuinely negative density appears the step is halved (up to 10
    times). Sign noise in the far tail (below 1e-13 of the peak) is clamped
    to zero instead, which perturbs mass far below the conservation
    tolerance.
    """
    _require_grid(path, "fokker-planck descent")
    template = path.measures[0]
    prior = prior or _prior_for(config, template)
    snapshots, flow = gibbs_map_with_flow(config, path)
    fisher = _fisher_from_snapshots(config, path, snapshots)
    terminal = terminal_cost(config, flow)
    entropy = path_entropy(path, prior)
    report = CostReport(
        terminal=terminal,
        entropy=entropy,
        cost=terminal + config.epsilon * entropy,
        fisher=fisher,
    )
    ell_vals = config.potential.value(template.midpoints()).reshape(
        template.values.shape
    )
    floor_shape = prior.measure.values / np.max(prior.measure.values)
    h_cell = template.cell_width
    eps = config.epsilon

    halvings = 0
    current = step
    while True:
        new_measures = []
        ok = True
        for k in range(path.grid.nt):
            nu = path.measures[k].values
            floor = (_XI_REL_FLOOR * np.max(nu)) * floor_shape
            xi = (
                eps * np.log(np.maximum(nu, floor))
                + eps * ell_vals
                + snapshots[k].phi
            )
            new_vals = _fv_step_node(nu, xi, h_cell, current)
            if np.min(new_vals) < -_NEGATIVITY_REL_TOL * float(np.max(new_vals)):
                ok = False
                break
            # reflect far-tail sign noise instead of zeroing it: a zeroed
            # cell forms a deep log hole whose refill overshoot amplifies,
            # while reflection keeps the local scale and the noise decays
            new_measures.append(path.measures[k].with_values(np.abs(new_vals)))
        if ok:
            break
        halvings += 1
        if halvings > 10:
            raise PositivityError(
                "fokker-planck step kept violating positivity after 10 halvings"
            )
        current *= 0.5
    return FpStepResult(
        path=path.replace_measures(new_measures),
        report=report,
        dj_estimate=-current * fisher,
        halvings=halvings,
    )


# -- particle Langevin descent -----------------------------------------------------


def sample_prior(potential, dprime, count, rng) -> np.ndarray:
    """Exact sampling from exp(-ell) by Gaussian rejection.

    Proposal N(0, 1/(2 c2)); acceptance probability exp(-c1 |a|^4) <= 1.
    """
    sigma = 1.0 / math.sqrt(2.0 * potential.c2)
    out = np.empty((count, dprime))
    filled = 0
    while filled < count:
        draw = rng.normal(0.0, sigma, size=(2 * (count - filled) + 8, dprime))
        r2 = np.sum(draw * draw, axis=1)
        keep = rng.random(draw.shape[0]) < np.exp(-potential.c1 * r2 * r2)
        take = draw[keep][: count - filled]
        out[filled : filled + take.shape[0]] = take
        filled += take.shape[0]
    return out


def langevin_descent_step(
    config: ProblemConfig,
    path: ControlPath,
    step: float,
    rng: np.random.Generator,
) -> LangevinStepResult:
    """One Euler-Maruyama step of the per-node mean-field Langevin update.

    Every particle moves by -h (eps grad ell + grad_a Phi_t) plus
    sqrt(2 eps h) Gaussian noise, with Phi's parameter gradient evaluated
    against the flow of the current particle path. Non-finite particles are
    resampled from the prior and counted.
    """
    if path.is_grid:
        raise ConfigError("langevin descent requires the particle backend")
    flow = forward_solve(config, path)
    flow = backward_solve(config, path, flow)
    eps = config.epsilon
    new_measures = []
    resampled = 0
    for k in range(path.grid.nt):
        pts = path.measures[k].points
        noise = rng.standard_normal(pts.shape)
        if step > 0.0:
            grad_phi = _bracket_grad_a(config, flow, k, pts)
            drift = eps * config.potential.grad(pts) + grad_phi
            new_pts = pts - step * drift + math.sqrt(2.0 * eps * step) * noise
        else:
            new_pts = pts.copy()
        bad = ~np.all(np.isfinite(new_pts), axis=1)
        if np.any(bad):
            count = int(np.sum(bad))
            new_pts[bad] = sample_prior(
                config.potential, pts.shape[1], count, rng
            )
            resampled += count
        new_measures.append(ParticleMeasure(new_pts))
    return LangevinStepResult(
        path=path.replace_measures(new_measures), resampled=resampled
    )


def _bracket_grad_a(config, flow, k, points) -> np.ndarray:
    """grad_a of mean_i b(x_i(t_k), a) . z_i(t_k) at the given points."""
    return config.field.grad_a_batch(flow.x[k], points, flow.z[k]) / flow.n
