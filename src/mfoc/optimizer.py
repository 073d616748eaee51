"""Cost evaluation, Gibbs map, Anderson-accelerated Picard iteration and the
two descent flows (grid Fokker-Planck, particle Langevin).

The Gibbs map sends a control path to the family of measures proportional to
exp(-ell - Phi_t / epsilon), where Phi_t is the ensemble average of b . Z
along the flow driven by the path; its fixed points are exactly the
first-order optimal controls. All normalizers are computed with log-sum-exp
and the Picard update combines log-densities (Anderson mixing over the last
two steps, the damped geometric mixture without history) before each node is
renormalized, which preserves positivity.

The grid descent takes the Fokker-Planck form of the measure-space gradient
flow with an exponentially fitted (Scharfetter-Gummel) flux: every step it
admits keeps each cell non-negative and each node's mass, with no repair;
a step too long for that raises PositivityError.
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
from .trajectories import EnsembleFlow, _node_quadratures, backward_solve, forward_solve


class PositivityError(RuntimeError):
    """A Fokker-Planck step needs more substeps than MAX_SUBSTEPS to keep
    every cell non-negative."""


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
    run. At a residual of +inf, ``support_node`` is the first node whose
    Gibbs image is at ``LOG_FLOOR`` on a cell where the iterate is not."""

    path: ControlPath
    report: CostReport
    iterations: int
    converged: bool
    residual_history: tuple
    flow: EnsembleFlow
    support_node: Optional[int] = None


@dataclass(frozen=True)
class FpStepResult:
    path: ControlPath
    report: CostReport


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


def gibbs_map_with_flow(config: ProblemConfig, path: ControlPath):
    """Gibbs image of a control path on its own grid, one snapshot per time
    node, and the path's flow (``gibbs_image`` of its forward flow). The two
    sweeps share the path's quadrature and folds, which the map drops."""
    _require_grid(path, "gibbs map")
    nodes = _node_quadratures(config.field, path)
    flow = forward_solve(config, path, nodes)
    return gibbs_image(config, path, flow, path.measures[0], nodes)


def gibbs_image(
    config: ProblemConfig, path: ControlPath, flow: EnsembleFlow, template: GridMeasure, nodes=None
):
    """Gibbs image of ``path`` on the grid of ``template``, one snapshot per
    time node, and the flow with its adjoint and bracket; ``flow`` is the
    forward flow under ``path``.

    The backward pass samples the coupling potential on the template's
    cells, which need not be the path's: the Gibbs map sees a path only
    through its flow, so a path solved on a coarse grid lifts to the start
    of a fine solve. Each node is normalized in log space. ``nodes`` are as
    in ``backward_solve``.
    """
    flow = backward_solve(config, path, flow, bracket_grid=template, nodes=nodes)
    potential_vals = config.potential.value(template.midpoints())
    snapshots = tuple(
        _gibbs_from_bracket(config, template, potential_vals, row) for row in flow.bracket
    )
    return snapshots, flow


def cost_report(config, path, flow, prior, **extra) -> CostReport:
    """Terminal plus entropic running cost of ``path``, whose forward flow is
    ``flow``; ``extra`` fills the report's optional fields."""
    terminal = float(np.mean(config.loss.value(flow.x[-1], flow.y)))
    entropy = path_entropy(path, prior)
    return CostReport(terminal, entropy, terminal + config.epsilon * entropy, **extra)


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
    return cost_report(config, path, flow, prior, fisher=fisher)


def _fisher_from_snapshots(config, path, snapshots) -> float:
    """Dissipation rate of the cost along the measure-space gradient flow."""
    dt = path.grid.dt
    eps2 = config.epsilon**2
    total = 0.0
    for k in range(path.grid.nt - 1):
        div = fisher_divergence(path.measures[k], snapshots[k].gamma)
        if math.isinf(div):
            return math.inf
        total += eps2 * div * dt
    return total


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

    The grid of ``init_path`` is the grid of the solve. The command-line
    solve starts from the prior, or on a grid of res 32 or more from the
    ``gibbs_image`` of a res-16 solve on its grid (see ``cli._solved_state``).

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
    entropies = (relative_entropy(m, snap.gamma) for m, snap in zip(path.measures, snapshots))
    support = (k for k, e in enumerate(entropies) if e == math.inf)
    return PicardResult(
        path=path,
        report=cost_report(
            config,
            path,
            flow,
            prior,
            fisher=_fisher_from_snapshots(config, path, snapshots),
            picard_residual=history[-1],
        ),
        iterations=iterations,
        converged=converged,
        residual_history=tuple(history),
        flow=replace(flow, z=None, bracket=None),
        support_node=next(support, None) if history[-1] == math.inf else None,
    )


# -- grid Fokker-Planck descent ---------------------------------------------------

# most equal substeps one descent step is split into
MAX_SUBSTEPS = 1024


def _bernoulli(z):
    """B(z) = z / (e^z - 1) with B(0) = 1; e^z overflows only where B is 0."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(z == 0.0, 1.0, z / np.expm1(z))


def _fitted_rates(v, eps, h):
    """Scharfetter-Gummel rates of d(nu)/ds = div(eps grad nu + nu grad v) on
    the trailing axes of ``v``: per axis (moved to the front), mass crosses
    each interior face rightward at (eps / h^2) B(delta) and leftward at
    (eps / h^2) B(-delta), delta = (v_r - v_l) / eps, and none crosses the box
    boundary. Also returns the largest exit rate of a cell."""
    rates = []
    exit_rate = np.zeros_like(v)
    for axis in range(1, v.ndim):
        delta = np.diff(np.moveaxis(v, axis, 0), axis=0) / eps
        right, left = (eps / h**2) * _bernoulli(delta), (eps / h**2) * _bernoulli(-delta)
        rates.append((right, left))
        out = np.moveaxis(exit_rate, axis, 0)
        out[:-1] += right
        out[1:] += left
    return rates, float(np.max(exit_rate))


def fokker_planck_flow(nu, v, eps, h, step):
    """Densities ``nu`` after time ``step`` of the flow of ``_fitted_rates``.

    A substep s keeps a share 1 - s c of each cell, c its exit rate, and adds
    non-negative inflows, so s <= 1 / max c keeps every cell non-negative and
    exp(-v / eps) stationary, and the face fluxes conserve mass. The step is
    taken in the fewest equal substeps under half that bound, so that rounding
    cannot push a cell below zero; a step needing more than MAX_SUBSTEPS raises
    PositivityError before any substep.
    """
    rates, max_exit = _fitted_rates(v, eps, h)
    needed = 2.0 * step * max_exit
    if not needed <= MAX_SUBSTEPS:
        raise PositivityError(
            f"fokker-planck step {step:g} would need {needed:.6g} substeps of at "
            f"most half the positivity bound {1.0 / max_exit:.3e}; the cap is "
            f"{MAX_SUBSTEPS}"
        )
    substeps = max(1, math.ceil(needed))
    for _ in range(substeps):
        new = nu.copy()
        for axis, (right, left) in enumerate(rates, start=1):
            cells = np.moveaxis(nu, axis, 0)
            moved = (step / substeps) * (right * cells[:-1] - left * cells[1:])
            upd = np.moveaxis(new, axis, 0)
            upd[:-1] -= moved
            upd[1:] += moved
        nu = new
    return nu


def fp_descent_step(
    config: ProblemConfig,
    path: ControlPath,
    step: float,
    prior: Optional[PriorMeasure] = None,
) -> FpStepResult:
    """One step of the measure-space gradient flow on the grid, with the cost
    and Fisher functional at its start: at node k, ``fokker_planck_flow`` with
    V_k = eps ell + Phi_k, Phi from a fresh flow solve."""
    _require_grid(path, "fokker-planck descent")
    template = path.measures[0]
    prior = prior or _prior_for(config, template)
    snapshots, flow = gibbs_map_with_flow(config, path)
    fisher = _fisher_from_snapshots(config, path, snapshots)
    report = cost_report(config, path, flow, prior, fisher=fisher)
    eps = config.epsilon
    ell = config.potential.value(template.midpoints()).reshape(template.values.shape)
    v = np.stack([eps * ell + snap.phi for snap in snapshots])
    nu = np.stack([m.values for m in path.measures])
    nu = fokker_planck_flow(nu, v, eps, template.cell_width, step)
    return FpStepResult(
        path.replace_measures(template.with_values(node) for node in nu), report
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
    against the flow of the current particle path. The backward sweep hands
    each node's kept tiers to the step, which contracts them into the
    gradient and writes the deterministic move into the node's new
    particles; the noise is drawn afterwards in node order. Non-finite
    particles are resampled from the prior and counted.
    """
    if path.is_grid:
        raise ConfigError("langevin descent requires the particle backend")
    nodes = _node_quadratures(config.field, path)
    flow = forward_solve(config, path, nodes)
    eps = config.epsilon
    descends = step > 0.0
    moved = [None] * path.grid.nt if descends else [m.points.copy() for m in path.measures]

    def descend(k, quad, tiers, z):
        pts = path.measures[k].points
        grad_phi = quad.grad_a(flow.x[k], tiers, z) / flow.n
        moved[k] = pts - step * (eps * config.potential.grad(pts) + grad_phi)

    backward_solve(config, path, flow, nodes=nodes, visit=descend if descends else None)
    new_measures = []
    resampled = 0
    for new_pts in moved:
        noise = rng.standard_normal(new_pts.shape)
        if descends:
            new_pts += math.sqrt(2.0 * eps * step) * noise
        bad = ~np.all(np.isfinite(new_pts), axis=1)
        if np.any(bad):
            count = int(np.sum(bad))
            new_pts[bad] = sample_prior(
                config.potential, new_pts.shape[1], count, rng
            )
            resampled += count
        new_measures.append(ParticleMeasure(new_pts))
    return LangevinStepResult(
        path=path.replace_measures(new_measures), resampled=resampled
    )
