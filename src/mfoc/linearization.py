"""Second-order structure around a converged control.

The linearized triple consists of a signed zero-mass perturbation of the
control, the tangent curve it induces on the feature ensemble, and the
linearized multiplier transported backward. The quadratic form assembled from
them is the second derivative of the total cost along the perturbation; its
kernel directions are exactly the fixed points of the linear map realized by
``linear_map_image``. The stability probe applies the same map inside its
range, which per-node particle coefficients parameterize (``_range_map``).
The two checks the commands report return one report type each:
``stability_probe`` a ``StabilityReport`` and ``pl_scan`` a ``PlScanReport``.

Everything here is Lagrangian: the tangent curve acts on test functions
through tangent particles, and the multiplier and its x-gradient are
accumulated along the stored characteristics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Optional

import numpy as np

from .measures import (
    ControlPath,
    DegenerateMeasureError,
    GridMeasure,
    LOG_FLOOR,
    PerturbationPath,
    relative_entropy,
)
from .model import ConfigError, FieldQuadrature, ProblemConfig, Workspace
from .optimizer import _prior_for, total_cost
from .trajectories import (
    EnsembleFlow,
    StagePass,
    TangentFlow,
    _curvature_sweep,
    _hermite_midpoint,
    _tangent_dx,
    curvature_solve,
    stage_pass,
)

__all__ = [
    "PerturbationPath",
    "LinearizedMultiplier",
    "StabilityReport",
    "PlScanReport",
    "solve_v",
    "eta_from",
    "linear_map_image",
    "quadratic_form",
    "cross_term_duality",
    "stability_probe",
    "pl_scan",
]


@dataclass(frozen=True)
class LinearizedMultiplier:
    """Linearized backward multiplier along the stored characteristics.

    ``v`` and ``dv`` hold the multiplier and its x-gradient at the flow's
    (node, particle) grid.
    """

    v: np.ndarray  # (nt, n)
    dv: np.ndarray  # (nt, n)


@dataclass(frozen=True)
class StabilityReport:
    dominant_eig: float
    ritz_residual: float
    ritz: list  # sorted
    lambda_max: float
    margin_from_one: float
    stable_evidence: bool
    rayleigh_history: list
    breakdown: bool
    # a read-only view of the fields, for perfbench/spans.py; drop once it
    # reads them
    details = property(lambda self: MappingProxyType(vars(self)))


@dataclass(frozen=True)
class PlScanReport:
    pl_ratio: float
    rows: list  # of dicts
    samples: int
    radius: float
    # a read-only view of the fields, for perfbench/spans.py; drop once it
    # reads them
    details = property(lambda self: MappingProxyType(vars(self)))


def solve_v(
    config: ProblemConfig,
    path: ControlPath,
    flow: EnsembleFlow,
    eta: PerturbationPath,
) -> LinearizedMultiplier:
    """Backward transport of the linearized multiplier and its x-gradient.

    Along each characteristic the state (z, h, K, V, R) is integrated
    backward: adjoint z, value-function curvature h, terminal flow Jacobian
    K = dX_T/dX_t, accumulated multiplier V and the Jacobian-weighted
    gradient accumulator R with grad_x v = K R. The source terms use the
    signed drift of the perturbation, so the result is linear in it.
    """
    return _multiplier(config, path, flow, stage_pass(config, path, flow, (eta,)))


def _multiplier(config, path, flow, stages: StagePass) -> LinearizedMultiplier:
    """``solve_v`` along the first perturbation of the stage data."""
    V = np.empty((flow.nt, flow.n))
    DV = np.empty((flow.nt, flow.n))

    def columns(k, i, s):
        # K, V, R after z and h
        bx = stages.bx[k, i]
        s_eta = stages.s_eta[0, k, i][:, 0]
        sx_eta = stages.sx_eta[0, k, i]
        z, h, kk = s[:, 0], s[:, 1], s[:, 2]
        gp = sx_eta * z + s_eta * h  # x-derivative of the source
        return -bx * kk, -s_eta * z, -gp / kk

    # the flow Jacobian K is the identity at the terminal time
    for k, state in _curvature_sweep(config, flow, stages, path.grid.dt, (1.0, 0.0, 0.0), columns):
        V[k] = state[:, 3]
        DV[k] = state[:, 2] * state[:, 4]
    return LinearizedMultiplier(v=V, dv=DV)


def eta_from(
    config: ProblemConfig,
    path: ControlPath,
    flow: EnsembleFlow,
    tangent: TangentFlow,
    multiplier: LinearizedMultiplier,
) -> PerturbationPath:
    """Kernel-direction image of the linearized system.

    At every node and support point the bracket combines the tangent action
    on b(., a) . grad_x(u) with the ensemble average of b(., a) . grad_x(v);
    centering by its control-average makes the node mass vanish exactly, and
    the result is scaled by -nu / epsilon. ``flow`` carries the adjoint and
    the curvature (``curvature_solve``).
    """
    if flow.hess is None:
        raise ConfigError("eta_from needs a flow with transported curvature")
    grid = path.grid
    template = path.measures[0]
    quad = FieldQuadrature(config.field, template.midpoints())
    vol = template.cell_volume
    shape = template.values.shape
    out = np.empty((grid.nt,) + shape)
    # the tangent and dv at node k exist only after both sweeps, so these
    # node calls cannot join the stage pass; each keeps both tiers in full
    # for the reduction over particles
    work = Workspace()
    beta, gamma = _image_coefficients(flow, tangent.dx[:, :, 0], multiplier.dv)
    for k in range(grid.nt):
        quad.tiers(flow.x[k], 1, (), work, keep=2)
        bracket = quad.bracket_pair(work.kept, gamma[k], beta[k])
        nu = path.measures[k].values.ravel()
        c_k = float(np.sum(bracket * nu)) * vol
        out[k] = (-(nu * (bracket - c_k)) / config.epsilon).reshape(shape)
    return PerturbationPath(grid, template.halfwidth, template.res, out)


def _image_coefficients(flow: EnsembleFlow, dx: np.ndarray, dv: np.ndarray):
    """Per-node particle coefficients (beta, gamma) = (h dx + dv, z dx) of an
    image, from the tangent ``dx`` and the multiplier gradient ``dv``, (nodes,
    n) each; the map spreads beta against b and gamma against grad_x b."""
    nodes = dx.shape[0]
    return flow.hess[:nodes] * dx + dv, flow.z[:nodes, :, 0] * dx


def linear_map_image(
    config: ProblemConfig,
    path: ControlPath,
    flow: EnsembleFlow,
    eta: PerturbationPath,
) -> PerturbationPath:
    """One application of the linearized fixed-point map. ``flow`` needs
    only the forward features: one order-2 stage pass gives the adjoint, the
    curvature, the tangent and the multiplier."""
    stages = stage_pass(config, path, flow, (eta,))
    flow = curvature_solve(config, path, flow, stages)
    tangent = TangentFlow(dx=_tangent_dx(stages, path.grid.dt), flow=flow, eta=eta)
    multiplier = _multiplier(config, path, flow, stages)
    return eta_from(config, path, flow, tangent, multiplier)


def cross_term_duality(config, path, flow, e1, e2) -> tuple:
    """The cross term of the second derivative, the time integral of
    < b(., e2) grad u ; rho^1 >, as the pair (via the tangent rho^1 of
    ``e1``, via the multiplier of ``e2``); the two agree up to the
    discretization of the duality relation.

    One order-2 stage pass holds the stage data of both perturbations. One
    backward RK4 pass, which restarts at every node and so respects the
    left-frozen control branches, carries after z and h the tangent side's
    accumulated integrand P, and the multiplier's flow Jacobian K, gradient
    accumulator R and accumulated drift of ``e1`` against grad_x v, W.
    Inside an interval the tangent takes the solvers' cubic Hermite value.
    """
    stages = stage_pass(config, path, flow, (e1, e2))
    dt = path.grid.dt
    # tangent at the left node, the Hermite midpoint and the right node
    dx = _tangent_dx(stages, dt)[:, :, 0]
    ends = np.stack([dx[:-1], dx[1:]], axis=1)
    ddx = stages.bx[:, ::2] * ends + stages.s_eta[0, :, ::2, :, 0]
    dx_stage = [dx[:-1], _hermite_midpoint(dx[:-1], dx[1:], ddx[:, 0], ddx[:, 1], dt), dx[1:]]

    def columns(k, i, s):
        # P, K, R, W after z and h
        bx, s1 = stages.bx[k, i], stages.s_eta[0, k, i][:, 0]
        s2, sx2 = stages.s_eta[1, k, i][:, 0], stages.sx_eta[1, k, i]
        z, h, kk, rr = s[:, 0], s[:, 1], s[:, 3], s[:, 4]
        gp = sx2 * z + s2 * h
        return -gp * dx_stage[i][k], -bx * kk, -gp / kk, -s1 * kk * rr

    # the flow Jacobian K is the identity at the terminal time
    for _, state in _curvature_sweep(config, flow, stages, dt, (0.0, 1.0, 0.0, 0.0), columns):
        pass
    return float(np.mean(state[:, 2])), float(np.mean(state[:, 5]))


def quadratic_form(
    config: ProblemConfig,
    path: ControlPath,
    flow: EnsembleFlow,
    eta: PerturbationPath,
) -> float:
    """Second derivative of the cost along the perturbation.

    eps int eta^2 / nu plus twice the tangent cross term; +inf when the
    perturbation charges cells the control does not.
    """
    if flow.hess is None:
        raise ConfigError("quadratic form needs a flow with transported curvature")
    dt = path.grid.dt
    vol = eta.cell_volume
    weighted = 0.0
    for k in range(path.grid.nt - 1):
        nu = path.measures[k].values
        e = eta.node(k)
        charged = abs(e) > 0.0
        if np.any(charged & (nu <= 10.0 * LOG_FLOOR)):
            return math.inf
        ratio = np.zeros_like(e)
        np.divide(e * e, nu, out=ratio, where=nu > 10.0 * LOG_FLOOR)
        weighted += float(np.sum(ratio)) * vol * dt
    # one pass gives the tangent and, at each left node, the drift of eta and
    # its grad_x; the left-rule cross term keeps the form consistent with the
    # discrete cost it curves (the entropy part of the cost uses the same rule)
    stages = stage_pass(config, path, flow, (eta,), order=1)
    dx = _tangent_dx(stages, dt)[:-1, :, 0]
    s_eta, sx_eta = stages.s_eta[0, :, 0, :, 0], stages.sx_eta[0, :, 0]
    integrand = sx_eta * flow.z[:-1, :, 0] + s_eta * flow.hess[:-1]
    cross = float(np.sum(np.mean(integrand * dx, axis=1))) * dt
    return config.epsilon * weighted + 2.0 * cross


def _arnoldi(apply, v0, dot, iters):
    """Arnoldi iteration of a linear map on plain arrays.

    Builds an orthonormal basis of the Krylov space of ``v0`` under ``apply``
    in the inner product ``dot`` by modified Gram-Schmidt, and returns it with
    the m x m Hessenberg matrix, the Rayleigh quotients <q_j, apply(q_j)>
    taken before Gram-Schmidt, the entry H[m, m - 1] below it (0 after a
    breakdown) and whether the basis broke down, which ends the iteration
    after m <= ``iters`` steps. ``apply`` may correct its argument in place;
    the basis holds the vector as applied. Images are not held.
    """
    basis = [(1.0 / math.sqrt(dot(v0, v0))) * v0]
    H = np.zeros((iters + 1, iters))
    rayleigh = []
    breakdown = False
    for j in range(iters):
        image = apply(basis[j])
        rayleigh.append(dot(basis[j], image))
        vec = image.copy()
        for i, q in enumerate(basis):
            H[i, j] = dot(q, vec)
            vec = vec - H[i, j] * q
        H[j + 1, j] = math.sqrt(max(dot(vec, vec), 0.0))
        if H[j + 1, j] < 1e-12:
            breakdown = True
            break
        basis.append((1.0 / H[j + 1, j]) * vec)
    m = len(rayleigh)
    return basis, H[:m, :m], rayleigh, 0.0 if breakdown else H[m, m - 1], breakdown


def _ritz_residual(H, below, theta):
    """||A u - theta u|| of the Ritz pair (theta, u) of an Arnoldi run with
    Hessenberg matrix H and entry ``below`` = H[m, m - 1]: for the unit
    eigenvector y of H at theta, u = V y and A u - theta u = below y[m - 1]
    times the next, unit, basis vector."""
    values, vectors = np.linalg.eig(H)
    return float(abs(below * vectors[-1, np.argmin(abs(values - theta))]))


def stability_probe(
    config: ProblemConfig,
    path: ControlPath,
    flow: EnsembleFlow,
    iters: int = 10,
    margin: float = 0.1,
    rng: Optional[np.random.Generator] = None,
) -> StabilityReport:
    """Krylov probe of the linearized fixed-point map.

    Nontrivial solutions of the linearized system are exactly fixed points of
    the map, so spectral distance of the sampled Ritz values from one is
    evidence (not proof) of stability. The report holds the dominant
    eigenvalue estimate ``dominant_eig``, the residual ``ritz_residual`` =
    ||L u - theta u|| of its Ritz pair in L^2(1/nu), the sampled spectrum
    ``ritz`` in ascending order, its largest value ``lambda_max``, its
    distance ``margin_from_one`` from one and whether that is at least
    ``margin`` (``stable_evidence``), the Rayleigh quotient of each Krylov
    step (``rayleigh_history``) and whether the Krylov basis broke down
    (``breakdown``), which leaves fewer than ``iters`` Ritz values.

    The Krylov space of a zero-mass seed v0 is spanned by v0 and the range
    of the map, which ``_range_map`` parameterizes by per-node particle
    coefficients; Arnoldi runs on those, for at most as many steps as they
    have dimensions, 1 + (nt - 1) 2n. ``flow`` needs only the forward
    features: one order-2 stage pass gives the adjoint, the curvature and
    v0's stage data, and one pass of Gram matrices serves every Krylov step,
    so the probe makes no kernel call per step.
    """
    if iters < 1:
        raise ConfigError("the stability probe needs iters >= 1")
    rng = rng or np.random.default_rng(config.seed)
    template = path.measures[0]
    mids = template.midpoints()
    seedfn = (
        np.cos(1.1 * mids[:, 0] - 0.7 * mids[:, 1])
        + 0.5 * np.sin(0.6 * mids[:, 1] + 0.3)
        + 0.2 * rng.standard_normal(mids.shape[0])
    ).reshape(template.values.shape)
    vol = template.cell_volume
    nus = [nu.values for nu in path.measures]
    v0 = PerturbationPath(
        path.grid,
        template.halfwidth,
        template.res,
        np.stack([nu * (seedfn - float(np.sum(seedfn * nu)) * vol) for nu in nus]),
    )
    stages = stage_pass(config, path, flow, (v0,))
    flow = curvature_solve(config, path, flow, stages)
    apply, dot, start = _range_map(config, path, flow, stages, v0)
    _, H, history, below, breakdown = _arnoldi(apply, start, dot, min(iters, start.size))
    ritz = np.real_if_close(np.linalg.eigvals(H), tol=1e6)
    top = ritz[np.argmax(abs(ritz))]
    spectrum_margin = float(np.min(abs(1.0 - ritz)))
    spectrum = sorted(float(np.real(r)) for r in ritz)
    return StabilityReport(
        dominant_eig=float(np.real(top)),
        ritz_residual=_ritz_residual(H, below, top),
        ritz=spectrum,
        lambda_max=spectrum[-1],
        margin_from_one=spectrum_margin,
        stable_evidence=bool(spectrum_margin >= margin),
        rayleigh_history=history,
        breakdown=breakdown,
    )


def _range_map(config, path, flow, stages: StagePass, seed: PerturbationPath):
    """The linearized map on v = alpha v0 + E(d), as (apply, dot, start).

    ``stages`` is an order-2 stage pass whose one perturbation is the seed
    v0, and ``flow`` carries the curvature. The map L = E M S takes stage
    drifts (S), runs the tangent and multiplier sweeps on them and forms
    per-node particle coefficients d_k = (beta, gamma), beta = h dx + dv and
    gamma = z dx (M, ``_image_coefficients``), and spreads them on the grid
    (E, as ``eta_from``):

        E(d)_k = -(nu_k / eps) (B_k d_k - c_k(d)),
        B_k d_k = mean_i [b(x_i(t_k), .) beta_i + grad_x b(x_i(t_k), .) gamma_i],

    centred by c_k(d) = int B_k d_k dnu_k, which pairs d_k with the
    control's drift and grad_x at node k; so E(d) has zero node mass by
    construction. Only the nodes 0..nt-2 enter S and the cost, so d is
    (nt - 1, 2n), and a vector is the flat [alpha, d]. The drifts of E(d)
    at stage s of interval k are -(1/eps) (G[k, s] d_k / n - c_k(d) (drift,
    grad_x)[k, s]) for the Gram matrix G[k, s] = A[k, s] nu_k A[k, 0]^T of
    the rows A = [b; grad_x b] at the stage's states. The L^2(1/nu) inner
    product of two images is

        dt / eps^2 sum_k [d_k G[k, 0] e_k / n^2 - c_k(d) c_k(e) (2 - m_k)]

    with m_k the mass of nu_k; against v0 it takes v0's stage drifts at
    the nodes, and <v0, v0> is taken on the grid. (The grid product divides
    by max(nu, LOG_FLOOR), and an image is nu times a bounded function, so
    the cells where the floor binds add less than 1e-300 times that bound
    squared to a product of images; the form above leaves them out.)
    """
    grid, n, eps = path.grid, flow.n, config.epsilon
    dt, vol = grid.dt, seed.cell_volume
    nus = [nu.values for nu in path.measures[:-1]]
    grams = _stage_grams(path, flow, stages)
    control = np.concatenate((stages.drift[..., 0], stages.bx), axis=-1)
    mass = np.array([float(np.sum(nu)) * vol for nu in nus])
    seed_drift = np.concatenate((stages.s_eta[0, :, 0, :, 0], stages.sx_eta[0, :, 0]), axis=-1)
    seed_mass = np.array([float(np.sum(seed.node(k))) * vol for k in range(grid.nt - 1)])
    seed_sq = 0.0
    for k, nu in enumerate(nus):
        seed_sq += float(np.sum(seed.node(k) ** 2 / np.maximum(nu, LOG_FLOOR))) * vol * dt

    def split(u):
        return u[0], u[1:].reshape(grid.nt - 1, 2 * n)

    def centre(d):
        return np.einsum("kj,kj->k", d, control[:, 0]) / n

    def apply(u):
        alpha, d = split(u)
        drifts = np.einsum("ksij,kj->ksi", grams, d) / n - centre(d)[:, None, None] * control
        drifts /= -eps
        linear = replace(
            stages,
            s_eta=alpha * stages.s_eta + drifts[None, ..., :n, None],
            sx_eta=alpha * stages.sx_eta + drifts[None, ..., n:],
        )
        dx = _tangent_dx(linear, dt)[:-1, :, 0]
        dv = _multiplier(config, path, flow, linear).dv[:-1]
        image = np.zeros_like(u)
        image[1:] = np.concatenate(_image_coefficients(flow, dx, dv), axis=1).ravel()
        return image

    def against_seed(d):
        # <v0, E(d)>; v0's node masses vanish up to round-off
        total = float(np.sum(centre(d) * seed_mass)) - float(np.sum(d * seed_drift)) / n
        return total * dt / eps

    def dot(u, w):
        alpha, d = split(u)
        beta, e = split(w)
        gram_term = float(np.sum(d * np.einsum("kij,kj->ki", grams[:, 0], e))) / n**2
        centre_term = float(np.sum(centre(d) * centre(e) * (2.0 - mass)))
        images = (gram_term - centre_term) * dt / eps**2
        return alpha * beta * seed_sq + alpha * against_seed(e) + beta * against_seed(d) + images

    start = np.zeros(1 + (grid.nt - 1) * 2 * n)
    start[0] = 1.0
    return apply, dot, start


def _stage_grams(path, flow, stages: StagePass) -> np.ndarray:
    """G[k, s] = A[k, s] nu_k A[k, 0]^T, (nt - 1, 3, 2n, 2n), for the rows
    A[k, s] = [b; grad_x b] at the states of stage s of interval k: one
    kernel call per node and per midpoint, each keeping its tiers over the
    longest prefix of the node weights only, the cells its rows read."""
    quad, vol = stages.quad, path.measures[0].cell_volume
    weights = [quad.gram_weights(nu.values.ravel(), vol) for nu in path.measures[:-1]]
    cells = max(w.shape[0] for w in weights)
    work = Workspace(kept_cells=cells)

    def rows(x):
        quad.tiers(x, 1, (), work, keep=2)
        return quad.rows(work.kept, cells)

    grams = np.empty((len(weights), 3, 2 * flow.n, 2 * flow.n))
    left = rows(flow.x[0])
    for k, w in enumerate(weights):
        right = rows(flow.x[k + 1])
        grams[k] = quad.gram((left, rows(stages.x_mid[k]), right), left, w)
        left = right
    return grams


# -- empirical Polyak-Lojasiewicz scan ------------------------------------------


def _random_band_potential(mids, rng, waves=3, max_freq=1.5):
    out = np.zeros(mids.shape[0])
    for _ in range(waves):
        kvec = rng.uniform(-max_freq, max_freq, mids.shape[1])
        phase = rng.uniform(0.0, 2.0 * math.pi)
        out += rng.uniform(0.3, 1.0) * np.cos(mids @ kvec + phase)
    return out


def tilt_to_entropy(path, psi_grid, profile, target, max_refine=30):
    """Gibbs-tilt of every node measure, scaled to a prescribed path entropy.

    psi_grid is a bounded potential on the measure grid; profile weights it
    per node. The amplitude is fixed point-iterated using the locally
    quadratic amplitude-entropy relation. The refinement rewrites one
    (nt, cells) array with the arithmetic of ``GridMeasure.from_log_values``
    and ``relative_entropy``; only the accepted tilt becomes measures.
    """
    grid = path.grid
    template = path.measures[0]
    log_nu = np.log(np.maximum([m.values.ravel() for m in path.measures], LOG_FLOOR))
    # a node with a cell at the floor, in the reference or in the candidate,
    # takes relative_entropy's masked sum
    clear_nu = [bool(np.all(m.values > LOG_FLOOR)) for m in path.measures[:-1]]
    psi = np.ravel(psi_grid)
    profile = np.asarray(profile, dtype=float)
    log_cell = template.dprime * math.log(2.0 * template.halfwidth / template.res)
    values = np.empty_like(log_nu)

    def log_tilt(amplitude):
        np.multiply((amplitude * profile)[:, None], psi, out=values)
        np.add(values, log_nu, out=values)

    def tilt(amplitude):
        # in place, to hold no second (nt, cells) array: the log-density is
        # formed again after the shift that gives its normalizer
        log_tilt(amplitude)
        top = np.max(values, axis=1, keepdims=True)
        np.exp(np.subtract(values, top, out=values), out=values)
        log_mass = top + np.log(np.sum(values, axis=1, keepdims=True))
        log_tilt(amplitude)
        np.exp(np.subtract(values, log_mass + log_cell, out=values), out=values)
        if not np.all(np.isfinite(values)):
            raise DegenerateMeasureError("grid density must be finite and >= 0")

    def entropy_of():
        total = 0
        for k in range(grid.nt - 1):
            p = values[k]
            if clear_nu[k] and np.all(p > LOG_FLOOR):
                ent = float(np.sum(p * (np.log(p) - log_nu[k]))) * template.cell_volume
            else:
                node = GridMeasure(template.halfwidth, template.res, p.reshape(template.values.shape))
                ent = relative_entropy(node, path.measures[k])
            total += ent * grid.dt
        return total

    amplitude = 1.0
    tilt(amplitude)
    for _ in range(max_refine):
        ent = entropy_of()
        if ent <= 0.0:
            return None, 0.0
        ratio = target / ent
        if abs(ratio - 1.0) < 1e-6:
            break
        amplitude *= math.sqrt(ratio)
        tilt(amplitude)
    else:
        ent = entropy_of()
    shape = template.values.shape
    measures = [GridMeasure(template.halfwidth, template.res, v.reshape(shape)) for v in values]
    return path.replace_measures(measures), ent


def pl_scan(
    config: ProblemConfig,
    path: ControlPath,
    j_star: float,
    radius: float = 0.1,
    samples: int = 200,
    rng: Optional[np.random.Generator] = None,
    prior=None,
) -> PlScanReport:
    """Empirical dissipation-to-suboptimality ratio inside an entropy ball.

    Draws Gibbs tilts of the converged control with random band-limited
    potentials (constant or single-bump in time), rescaled so the path
    entropy stays within radius^2. The report holds the smallest sampled
    value ``pl_ratio`` of fisher / (cost - optimal cost), NaN when no sample
    has a positive cost gap; one dict in ``rows`` per sample whose tilt
    reached its entropy (``sample``, ``entropy``, ``cost``, ``gap``,
    ``fisher``, and ``ratio`` when the gap exceeds 1e-12); and the
    ``samples`` drawn and the ``radius``.
    """
    rng = rng or np.random.default_rng(config.seed)
    prior = prior or _prior_for(config, path.measures[0])
    template = path.measures[0]
    mids = template.midpoints()
    shape = template.values.shape
    grid = path.grid
    rows = []
    best = math.inf
    for s in range(samples):
        psi = _random_band_potential(mids, rng).reshape(shape)
        if rng.random() < 0.5:
            profile = np.ones(grid.nt)
        else:
            center = rng.uniform(grid.t0, grid.horizon)
            width = rng.uniform(0.1, 0.4) * (grid.horizon - grid.t0)
            profile = np.exp(-(((grid.nodes - center) / width) ** 2))
        target = radius**2 * rng.uniform(0.2, 1.0)
        candidate, ent = tilt_to_entropy(path, psi, profile, target)
        if candidate is None:
            continue
        report = total_cost(config, candidate, with_fisher=True, prior=prior)
        cost, fisher = report.cost, report.fisher
        gap = cost - j_star
        row = {
            "sample": s,
            "entropy": ent,
            "cost": cost,
            "gap": gap,
            "fisher": fisher,
        }
        if gap > 1e-12:
            row["ratio"] = fisher / gap
            best = min(best, fisher / gap)
        rows.append(row)
    ratio = best if math.isfinite(best) else math.nan
    return PlScanReport(pl_ratio=ratio, rows=rows, samples=samples, radius=radius)
