"""Invariant battery behind the check command.

Every check runs at a reduced fixture scale derived from the supplied
problem (small ensemble, short grid, coarse box) so the whole battery stays
in the seconds range. Checks return (ok, detail); the CLI renders the table
and maps failures to exit code 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .measures import (
    ControlPath,
    GridMeasure,
    ParticleMeasure,
    PerturbationPath,
    PriorMeasure,
    fisher_divergence,
    moment,
    normalize,
    path_entropy,
    pinsker_check,
    relative_entropy,
)
from .model import Dataset, ProblemConfig, TimeGrid, rng_for
from .optimizer import fp_descent_step, gibbs_map_with_flow, picard_solve, total_cost
from .trajectories import (
    backward_solve,
    default_test_functions,
    duality_residual,
    forward_solve,
    tangent_solve,
)
from .linearization import linear_map_image


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


FIXTURE_RES = 32
FIXTURE_HALFWIDTH = 4.0


def _fixture(config: ProblemConfig, n=12, nt=9, zero_problem=False):
    rng = rng_for(config.seed, "check-fixture")
    x = np.sort(rng.uniform(-2.0, 2.0, n))[:, None]
    y = x.copy() if zero_problem else x - 0.6 * np.tanh(x)

    return replace(
        config,
        dataset=Dataset(x, y),
        grid=TimeGrid(0.0, 1.0, nt),
    )


def _prior(config):
    return PriorMeasure.build(
        config.potential, FIXTURE_HALFWIDTH, FIXTURE_RES, config.field.dprime
    )


def _prior_path(config):
    prior = _prior(config)
    return ControlPath.constant(config.grid, prior.measure), prior


def _relative_eta(grid, base, fn):
    """The zero-mass perturbation base (g - <g, base>) at every node of
    ``grid``, for g = ``fn`` at the cell midpoints."""
    g = np.asarray(fn(base.midpoints())).reshape(base.values.shape)
    g = g - float(np.sum(g * base.values)) * base.cell_volume
    return PerturbationPath(grid, base.halfwidth, base.res, np.stack([base.values * g] * grid.nt))


def check_field_gradients(config) -> CheckResult:
    rng = rng_for(config.seed, "check-field-gradients")
    field = config.field
    worst = 0.0
    for _ in range(300):
        x = rng.uniform(-2, 2, 1)
        a = rng.uniform(-2, 2, field.dprime)
        gx, ga = field.jacobians(x, a)
        step = 1e-5
        fd = (field.value(x + step, a) - field.value(x - step, a)) / (2 * step)
        worst = max(worst, float(np.max(abs(gx[:, 0] - fd))))
        for j in range(field.dprime):
            e = np.zeros(field.dprime)
            e[j] = step
            fd = (field.value(x, a + e) - field.value(x, a - e)) / (2 * step)
            worst = max(worst, float(np.max(abs(ga[:, j] - fd))))
    return CheckResult(
        "field-gradients-vs-fd", worst < 1e-6, f"max abs deviation {worst:.2e}"
    )


def check_potential_convexity(config) -> CheckResult:
    rng = rng_for(config.seed, "check-potential")
    pot = config.potential
    c = pot.convexity_constant
    worst = math.inf
    for _ in range(300):
        a = rng.uniform(-4, 4, config.field.dprime)
        min_eig = float(np.linalg.eigvalsh(pot.hessian(a))[0])
        worst = min(worst, min_eig / (c * (1.0 + float(a @ a))))
    return CheckResult(
        "potential-hessian-lower-bound",
        worst >= 1.0 - 1e-9,
        f"min eigenvalue ratio {worst:.6f}",
    )


def check_prior_mass(config) -> CheckResult:
    prior = _prior(config)
    mass = prior.measure.mass()
    return CheckResult(
        "prior-normalization", abs(mass - 1.0) < 1e-12, f"mass deviation {mass - 1.0:.2e}"
    )


def check_entropy_properties(config) -> CheckResult:
    prior = _prior(config)
    nu = prior.measure
    self_entropy = relative_entropy(nu, nu)
    res = FIXTURE_RES
    full = GridMeasure(FIXTURE_HALFWIDTH, res, np.full(res, 1.0 / (2 * FIXTURE_HALFWIDTH)))
    half_vals = np.zeros(res)
    half_vals[: res // 2] = 1.0 / FIXTURE_HALFWIDTH
    half = GridMeasure(FIXTURE_HALFWIDTH, res, half_vals)
    log2_err = abs(relative_entropy(half, full) - math.log(2.0))
    ok = self_entropy == 0.0 and log2_err < 1e-12
    return CheckResult(
        "relative-entropy-properties",
        ok,
        f"self-entropy {self_entropy:.1e}, half-box defect {log2_err:.1e}",
    )


def check_fisher_properties(config) -> CheckResult:
    prior = _prior(config)
    nu = prior.measure
    self_div = fisher_divergence(nu, nu)
    rng = rng_for(config.seed, "check-fisher")
    worst = math.inf
    mids = nu.midpoints()
    for _ in range(20):
        beta = rng.uniform(-0.5, 0.5, nu.dprime)
        worst = min(worst, fisher_divergence(nu.tilted(mids @ beta), nu))
    ok = self_div == 0.0 and worst >= 0.0
    return CheckResult(
        "fisher-divergence-properties",
        ok,
        f"self-divergence {self_div:.1e}, min sampled {worst:.2e}",
    )


def check_normalize_idempotent(config) -> CheckResult:
    prior = _prior(config)
    once, _ = normalize(prior.measure)
    twice, log_z = normalize(once)
    dev = float(np.max(abs(twice.values - once.values)))
    return CheckResult(
        "normalize-idempotent",
        dev < 1e-15 and abs(log_z) < 1e-12,
        f"value drift {dev:.1e}, second log-normalizer {log_z:.1e}",
    )


def check_pinsker_bound(config) -> CheckResult:
    rng = rng_for(config.seed, "check-pinsker")
    prior = _prior(config)
    mids = prior.measure.midpoints()
    shape = prior.measure.values.shape
    violations = 0
    for _ in range(100):
        k = int(rng.integers(0, 3))
        b1 = rng.uniform(-0.8, 0.8, prior.measure.dprime)
        b2 = rng.uniform(-0.8, 0.8, prior.measure.dprime)
        mu = GridMeasure.from_log_values(
            prior.measure.halfwidth,
            prior.measure.res,
            (-config.potential.value(mids) - mids @ b1).reshape(shape),
        )
        nu = GridMeasure.from_log_values(
            prior.measure.halfwidth,
            prior.measure.res,
            (-config.potential.value(mids) - mids @ b2).reshape(shape),
        )
        if not pinsker_check(mu, nu, k=k).holds:
            violations += 1
    return CheckResult(
        "pinsker-bound-sampled", violations == 0, f"{violations} violations in 100 pairs"
    )


def check_moment_entropy_comparison(config) -> CheckResult:
    rng = rng_for(config.seed, "check-moments")
    fixture = _fixture(config)
    prior = _prior(config)
    mids = prior.measure.midpoints()
    shape = prior.measure.values.shape
    worst = 0.0
    for _ in range(20):
        beta = rng.uniform(-1.0, 1.0, prior.measure.dprime)
        mu = GridMeasure.from_log_values(
            prior.measure.halfwidth,
            prior.measure.res,
            (-config.potential.value(mids) - mids @ beta).reshape(shape),
        )
        path = ControlPath.constant(fixture.grid, mu)
        ent = path_entropy(path, prior)
        m4 = sum(
            moment(path.measures[k], 4) * fixture.grid.dt
            for k in range(fixture.grid.nt - 1)
        )
        worst = max(worst, m4 / (1.0 + ent))
    return CheckResult(
        "fourth-moment-vs-entropy",
        math.isfinite(worst) and worst < 100.0,
        f"max ratio {worst:.3f}",
    )


def check_forward_exactness(config) -> CheckResult:
    fixture = _fixture(config)
    frozen = ParticleMeasure(np.zeros((1, fixture.field.dprime)))
    path = ControlPath.constant(fixture.grid, frozen)
    flow = forward_solve(fixture, path)
    drift_dev = float(np.max(abs(flow.x[-1] - flow.x[0])))
    a2 = 0.9
    if fixture.field.dprime == 2:
        pt = np.array([[0.0, a2]])
    else:
        pt = np.zeros((1, fixture.field.dprime))
        pt[0, -1] = a2
        pt[0, 0] = 1.0  # outer weight
    path_c = ControlPath.constant(fixture.grid, ParticleMeasure(pt))
    flow_c = forward_solve(fixture, path_c)
    want = flow_c.x[0] + math.tanh(a2) * (fixture.grid.horizon - fixture.grid.t0)
    const_dev = float(np.max(abs(flow_c.x[-1] - want)))
    ok = drift_dev == 0.0 and const_dev < 1e-12
    return CheckResult(
        "forward-solve-exact-cases",
        ok,
        f"zero-drift drift {drift_dev:.1e}, constant-drift defect {const_dev:.1e}",
    )


def check_terminal_adjoint(config) -> CheckResult:
    fixture = _fixture(config)
    path, _ = _prior_path(fixture)
    flow = backward_solve(fixture, path, forward_solve(fixture, path))
    want = fixture.loss.grad_x(flow.x[-1], flow.y)
    exact = np.array_equal(flow.z[-1], want)
    return CheckResult(
        "adjoint-terminal-exactness",
        exact,
        "terminal adjoint equals loss gradient bitwise"
        if exact
        else "terminal adjoint differs from the loss gradient",
    )


def check_tangent_linearity(config) -> CheckResult:
    fixture = _fixture(config)
    path, prior = _prior_path(fixture)
    flow = forward_solve(fixture, path)
    base = path.measures[0]
    e1 = _relative_eta(fixture.grid, base, lambda m: np.cos(m[:, 0]))
    e2 = _relative_eta(fixture.grid, base, lambda m: np.sin(0.7 * m[:, 1]))
    t1 = tangent_solve(fixture, path, flow, e1).dx
    t2 = tangent_solve(fixture, path, flow, e2).dx
    combo = PerturbationPath(
        fixture.grid, base.halfwidth, base.res, 2.0 * e1.values - 0.5 * e2.values
    )
    tc = tangent_solve(fixture, path, flow, combo).dx
    scale = max(float(np.max(abs(tc))), 1e-30)
    dev = float(np.max(abs(tc - (2.0 * t1 - 0.5 * t2)))) / scale
    return CheckResult(
        "tangent-superposition", dev < 1e-10, f"relative defect {dev:.1e}"
    )


def check_duality_residual(config) -> CheckResult:
    probe = default_test_functions()[3]
    residuals = []
    for nt in (9, 17):
        fixture = _fixture(config, nt=nt)
        prior = _prior(config)
        tilted = prior.measure.tilted(-0.8 * prior.measure.midpoints()[:, 0])
        path = ControlPath.constant(fixture.grid, tilted)
        residuals.append(duality_residual(fixture, path, probe))
    ratio = residuals[0] / residuals[1]
    return CheckResult(
        "duality-residual-order",
        ratio > 3.0,
        f"residuals {residuals[0]:.2e} -> {residuals[1]:.2e} (ratio {ratio:.2f})",
    )


def check_fv_mass_conservation(config) -> CheckResult:
    fixture = _fixture(config)
    prior = _prior(config)
    tilted = prior.measure.tilted(0.3 * np.cos(prior.measure.midpoints()[:, 0]))
    path = ControlPath.constant(fixture.grid, tilted)
    step = fp_descent_step(fixture, path, 1e-3, prior=prior)
    worst = max(abs(nu.mass() - 1.0) for nu in step.path.measures)
    return CheckResult(
        "fokker-planck-mass-conservation", worst < 1e-12, f"max mass drift {worst:.1e}"
    )


def check_linearized_map_mass(config) -> CheckResult:
    fixture = _fixture(config)
    path, prior = _prior_path(fixture)
    result = picard_solve(fixture, path, tol=1e-9, max_iters=200)
    base = result.path.measures[0]
    eta = _relative_eta(fixture.grid, base, lambda m: np.cos(1.1 * m[:, 0]))
    image = linear_map_image(fixture, result.path, result.flow, eta)
    vol = image.cell_volume
    worst = max(
        abs(float(np.sum(image.node(k))) * vol) for k in range(fixture.grid.nt)
    )
    return CheckResult(
        "linearized-map-zero-mass", worst < 1e-12, f"max node mass {worst:.1e}"
    )


def check_zero_problem_gibbs(config) -> CheckResult:
    fixture = _fixture(config, zero_problem=True)
    path, prior = _prior_path(fixture)
    snaps, _ = gibbs_map_with_flow(fixture, path)
    worst = max(
        float(np.max(abs(s.gamma.values - prior.measure.values))) for s in snaps
    )
    report = total_cost(fixture, path, prior=prior)
    ok = worst < 1e-12 and abs(report.cost) < 1e-12
    return CheckResult(
        "zero-problem-gibbs-identity",
        ok,
        f"gibbs deviation {worst:.1e}, cost {report.cost:.1e}",
    )


ALL_CHECKS: tuple[Callable[[ProblemConfig], CheckResult], ...] = (
    check_field_gradients,
    check_potential_convexity,
    check_prior_mass,
    check_entropy_properties,
    check_fisher_properties,
    check_normalize_idempotent,
    check_pinsker_bound,
    check_moment_entropy_comparison,
    check_forward_exactness,
    check_terminal_adjoint,
    check_tangent_linearity,
    check_duality_residual,
    check_fv_mass_conservation,
    check_linearized_map_mass,
    check_zero_problem_gibbs,
)


def run_battery(config: ProblemConfig):
    return [check(config) for check in ALL_CHECKS]
