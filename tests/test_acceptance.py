"""Acceptance battery: one test per criterion, each printing a pass/fail
line with its measured runtime against the stated budget.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Desk scale throughout: d1 = d2 = 1, two-dimensional parameters, 64^2 grid,
64 data points, 65 time nodes, epsilon = 0.5 unless a criterion states
otherwise.
"""

import hashlib
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mfoc.cli import main as cli_main
from mfoc.linearization import cross_term_duality, pl_scan, solve_v
from mfoc.measures import (
    ControlPath,
    GridMeasure,
    ParticleMeasure,
    pinsker_check,
    relative_entropy,
)
from mfoc.model import rng_for
from mfoc.optimizer import (
    fp_descent_step,
    gibbs_map_with_flow,
    langevin_descent_step,
    picard_solve,
    sample_prior,
    total_cost,
)
from mfoc.trajectories import (
    backward_solve,
    curvature_solve,
    default_test_functions,
    duality_residual,
    forward_solve,
    tangent_solve,
)
from conftest import (
    grid_tail,
    make_config,
    make_prior,
    prior_path,
    refined,
    relative_eta,
    rho_action,
    scaled,
    second_derivative_check,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _report(num, name, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(
        f"[criterion {num:02d}] {name}: {status} ({detail}; "
        f"{elapsed:.1f}s of {budget:.0f}s budget)"
    )
    assert ok, f"criterion {num} ({name}): {detail}"
    assert elapsed < budget, f"criterion {num} runtime {elapsed:.1f}s over budget"


@pytest.fixture(scope="module")
def desk_flow(desk_solution):
    config, prior, result = desk_solution
    return curvature_solve(config, result.path, result.flow)


def test_criterion_01_gradient_exactness(desk_config):
    t0 = time.monotonic()
    config = desk_config
    rng = rng_for(101, "acceptance-gradients")
    step = 1e-5
    worst = 0.0
    for _ in range(1000):
        x = rng.uniform(-2.5, 2.5, 1)
        a = rng.uniform(-3.0, 3.0, 2)
        y = rng.uniform(-2.5, 2.5, 1)
        gx, ga = config.field.jacobians(x, a)
        fd = (config.field.value(x + step, a) - config.field.value(x - step, a)) / (
            2 * step
        )
        worst = max(worst, float(np.max(np.abs(gx[:, 0] - fd))))
        for j in range(2):
            e = np.zeros(2)
            e[j] = step
            fd = (config.field.value(x, a + e) - config.field.value(x, a - e)) / (
                2 * step
            )
            worst = max(worst, float(np.max(np.abs(ga[:, j] - fd))))
        grad = config.potential.grad(a)
        for j in range(2):
            e = np.zeros(2)
            e[j] = step
            fd = (config.potential.value(a + e) - config.potential.value(a - e)) / (
                2 * step
            )
            worst = max(worst, abs(grad[j] - fd) / max(1.0, abs(fd)))
            fd_grad = (
                config.potential.grad(a + e) - config.potential.grad(a - e)
            ) / (2 * step)
            hess_col = config.potential.hessian(a)[:, j]
            worst = max(
                worst,
                float(np.max(np.abs(hess_col - fd_grad)))
                / max(1.0, float(np.max(np.abs(fd_grad)))),
            )
        gl = config.loss.grad_x(x, y)
        fd = (config.loss.value(x + step, y) - config.loss.value(x - step, y)) / (
            2 * step
        )
        worst = max(worst, float(np.max(np.abs(gl - fd))))
    elapsed = time.monotonic() - t0
    _report(
        1,
        "gradient-exactness",
        worst <= 1e-6,
        f"max relative deviation {worst:.2e} over 1000 samples",
        elapsed,
        5.0,
    )


def test_criterion_02_zero_problem(desk_config):
    t0 = time.monotonic()
    config = make_config(zero_problem=True)
    path, prior = prior_path(config)
    result = picard_solve(config, path, tol=1e-10)
    nu_dev = max(
        float(np.max(np.abs(nu.values - prior.measure.values)))
        for nu in result.path.measures
    )
    ok = (
        result.converged
        and result.iterations <= 1
        and abs(result.report.cost) <= 1e-10
        and result.report.fisher <= 1e-10
        and nu_dev <= 1e-10
    )
    elapsed = time.monotonic() - t0
    _report(
        2,
        "zero-problem-exactness",
        ok,
        f"iters={result.iterations}, J={result.report.cost:.1e}, "
        f"I={result.report.fisher:.1e}, density dev {nu_dev:.1e}",
        elapsed,
        10.0,
    )


def test_criterion_03_first_order_fixed_point(desk_config):
    t0 = time.monotonic()
    config = desk_config
    path, prior = prior_path(config)
    result = picard_solve(config, path, damping=0.5, tol=1e-8, max_iters=500)
    snaps, _ = gibbs_map_with_flow(config, result.path)
    gibbs_res = max(
        relative_entropy(result.path.measures[k], snaps[k].gamma)
        for k in range(config.grid.nt)
    )
    ok = (
        result.converged
        and result.iterations <= 500
        and result.report.picard_residual <= 1e-8
        and result.report.fisher <= 1e-6 * config.epsilon**2
        and gibbs_res <= 1e-8
    )
    elapsed = time.monotonic() - t0
    _report(
        3,
        "first-order-fixed-point",
        ok,
        f"iters={result.iterations}, residual={result.report.picard_residual:.2e}, "
        f"I={result.report.fisher:.2e}, gibbs-form residual {gibbs_res:.2e}",
        elapsed,
        120.0,
    )


def test_criterion_04_descent_identity(desk_solution):
    t0 = time.monotonic()
    config, prior, result = desk_solution
    template = result.path.measures[0]
    mids = template.midpoints()
    psi = (np.cos(mids[:, 0]) - 0.4 * np.sin(0.7 * mids[:, 1])).reshape(
        template.values.shape
    )
    path = result.path.replace_measures(
        GridMeasure.from_log_values(
            template.halfwidth,
            template.res,
            np.log(np.maximum(nu.values, 1e-300)) + 0.3 * psi,
        )
        for nu in result.path.measures
    )
    h = 5e-4
    costs = []
    fishers = []
    for _ in range(100):
        out = fp_descent_step(config, path, h, prior=prior)
        costs.append(out.report.cost)
        fishers.append(out.report.fisher)
        path = out.path
    costs.append(total_cost(config, path, prior=prior).cost)
    costs = np.array(costs)
    fishers = np.array(fishers)
    dj = np.diff(costs) / h
    agreement = np.abs(dj + fishers) <= 0.05 * fishers
    frac = float(np.mean(agreement))
    monotone = bool(np.all(np.diff(costs) <= 1e-12))
    ok = frac >= 0.95 and monotone
    elapsed = time.monotonic() - t0
    _report(
        4,
        "descent-identity",
        ok,
        f"{100 * frac:.0f}% of steps within 5%, monotone={monotone}, "
        f"J {costs[0]:.5f} -> {costs[-1]:.5f}",
        elapsed,
        120.0,
    )


def test_criterion_05_ode_order(desk_solution):
    # the converged control is too gentle to lift the integrator error above
    # the rounding floor, so the order is measured on a strongly tilted path
    # over the same desk grid
    t0 = time.monotonic()
    config, _, result = desk_solution
    template = result.path.measures[0]
    mids = template.midpoints()
    tilted = GridMeasure.from_log_values(
        template.halfwidth,
        template.res,
        (
            -config.potential.value(mids) - mids @ np.array([1.2, -0.6])
        ).reshape(template.values.shape),
    )
    path = ControlPath.constant(config.grid, tilted)
    fine = refined(path, 16)
    oracle_fwd = forward_solve(config, fine)
    oracle = backward_solve(config, fine, oracle_fwd)
    fwd_errs = []
    bwd_errs = []
    for s in (1, 2, 4):
        fine = refined(path, s)
        flow = forward_solve(config, fine)
        fwd_errs.append(float(np.max(np.abs(flow.x[-1] - oracle_fwd.x[-1]))))
        back = backward_solve(config, fine, flow)
        bwd_errs.append(float(np.max(np.abs(back.z[0] - oracle.z[0]))))
    orders = [math.log2(fwd_errs[i] / fwd_errs[i + 1]) for i in range(2)]
    orders += [math.log2(bwd_errs[i] / bwd_errs[i + 1])for i in range(2)]
    ok = min(orders) >= 3.7
    elapsed = time.monotonic() - t0
    _report(
        5,
        "ode-order",
        ok,
        f"observed orders {['%.2f' % o for o in orders]}",
        elapsed,
        60.0,
    )


def test_criterion_06_duality_residual():
    # time-varying path keeps the control generic; the transported-test
    # comparison actually converges at fourth order (the value-gradient pair
    # is exact along any curve, and the chord defect integrates away), which
    # comfortably clears the required ">= 1.8 observed order"
    t0 = time.monotonic()
    probe = default_test_functions()[3]
    residuals = []
    for nt in (17, 33, 65):
        config = make_config(nt=nt)
        prior = make_prior(config)
        mids = prior.measure.midpoints()
        log_prior = np.log(np.maximum(prior.measure.values, 1e-300)).ravel()
        measures = []
        for t in config.grid.nodes:
            w = 2.4 * (1.0 + 0.5 * math.sin(2.0 * t))
            lv = (
                log_prior - w * mids[:, 0] + 0.96 * math.cos(t) * mids[:, 1]
            ).reshape(64, 64)
            measures.append(GridMeasure.from_log_values(4.0, 64, lv))
        path = ControlPath(config.grid, tuple(measures))
        residuals.append(duality_residual(config, path, probe))
    orders = [math.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
    ok = min(orders) >= 1.8
    elapsed = time.monotonic() - t0
    _report(
        6,
        "duality-residual",
        ok,
        f"residuals {['%.2e' % r for r in residuals]}, orders "
        f"{['%.2f' % o for o in orders]}",
        elapsed,
        60.0,
    )


def test_criterion_07_linearization_consistency(desk_solution, desk_flow):
    t0 = time.monotonic()
    config, _, result = desk_solution
    flow = desk_flow
    base = result.path.measures[0]
    eta = relative_eta(
        base,
        config.grid,
        lambda m: np.cos(1.2 * m[:, 0]) + 0.6 * np.sin(0.8 * m[:, 1]),
    )
    tangent = tangent_solve(config, result.path, flow, eta)
    probe = default_test_functions()[3]
    k_last = config.grid.nt - 1
    action = rho_action(tangent, probe, k_last)
    rho_errs = []
    for lam in (1e-2, 1e-3):
        measures = [
            nu.with_values(nu.values + lam * eta.node(j))
            for j, nu in enumerate(result.path.measures)
        ]
        flow_lam = forward_solve(config, result.path.replace_measures(measures))
        fd = (
            float(np.mean(probe.value(flow_lam.x[k_last], flow_lam.y)))
            - float(np.mean(probe.value(flow.x[k_last], flow.y)))
        ) / lam
        rho_errs.append(abs(fd - action))
    rho_ratio = rho_errs[0] / rho_errs[1]

    mult = solve_v(config, result.path, flow, eta)
    k = config.grid.nt // 3
    tail_grid = grid_tail(config.grid, k)
    from mfoc.model import Dataset

    probe_config = replace(
        config, dataset=Dataset(flow.x[k], config.dataset.y), grid=tail_grid
    )
    v_errs = []
    for lam in (1e-2, 1e-3):
        measures = [
            nu.with_values(nu.values + lam * eta.node(j))
            for j, nu in enumerate(result.path.measures)
        ]
        tail_base = ControlPath(tail_grid, result.path.measures[k:])
        tail_lam = ControlPath(tail_grid, tuple(measures[k:]))
        u_base = probe_config.loss.value(
            forward_solve(probe_config, tail_base).x[-1], config.dataset.y
        )
        u_lam = probe_config.loss.value(
            forward_solve(probe_config, tail_lam).x[-1], config.dataset.y
        )
        v_errs.append(float(np.max(np.abs((u_lam - u_base) / lam - mult.v[k]))))
    v_ratio = v_errs[0] / v_errs[1]
    ok = 8.0 <= rho_ratio <= 12.0 and 8.0 <= v_ratio <= 12.0
    elapsed = time.monotonic() - t0
    _report(
        7,
        "linearization-consistency",
        ok,
        f"rho error ratio {rho_ratio:.2f}, multiplier error ratio {v_ratio:.2f}",
        elapsed,
        120.0,
    )


def test_criterion_08_second_order_identity(desk_solution, desk_flow):
    t0 = time.monotonic()
    config, prior, result = desk_solution
    flow = desk_flow
    base = result.path.measures[0]
    rng = np.random.default_rng(808)
    scale = 1.0 + abs(result.report.cost)
    worst_rel = 0.0
    min_form = math.inf
    for _ in range(20):
        w = rng.uniform(-1.0, 1.0, 4)
        k1, k2 = rng.uniform(0.4, 1.6, 2)

        def fn(m, w=w, k1=k1, k2=k2):
            return (
                w[0] * np.cos(k1 * m[:, 0])
                + w[1] * np.sin(k2 * m[:, 1])
                + w[2] * np.cos(k1 * m[:, 0] + k2 * m[:, 1])
                + w[3] * np.sin(0.5 * (m[:, 0] - m[:, 1]))
            )

        eta = scaled(relative_eta(base, config.grid, fn), 0.5)
        report = second_derivative_check(
            config, result.path, flow, eta, lambdas=(1e-2, 1e-3), prior=prior
        )
        rel = abs(report.fd2 - report.jform) / max(abs(report.jform), 1e-8)
        worst_rel = max(worst_rel, rel)
        min_form = min(min_form, report.jform)
    ok = worst_rel <= 0.05 and min_form >= -1e-8 * scale
    elapsed = time.monotonic() - t0
    _report(
        8,
        "second-order-identity",
        ok,
        f"worst |fd2 - form| relative {worst_rel:.3f}, min form {min_form:.3e}",
        elapsed,
        180.0,
    )


def test_criterion_09_cross_term_duality(desk_solution, desk_flow):
    t0 = time.monotonic()
    config, _, result = desk_solution
    flow = desk_flow
    base = result.path.measures[0]
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(10):
        w = rng.uniform(-1.0, 1.0, 4)
        freqs = rng.uniform(0.4, 1.6, 4)

        def fn1(m, w=w, f=freqs):
            return w[0] * np.cos(f[0] * m[:, 0]) + w[1] * np.sin(f[1] * m[:, 1])

        def fn2(m, w=w, f=freqs):
            return w[2] * np.sin(f[2] * m[:, 0] + 0.3) + w[3] * np.cos(f[3] * m[:, 1])

        phase = rng.uniform(0.0, 2.0)
        e1 = relative_eta(
            base, config.grid, fn1, profile=lambda t: math.sin(2 * t + phase) + 1.2
        )
        e2 = relative_eta(base, config.grid, fn2)
        lhs, rhs = cross_term_duality(config, result.path, flow, e1, e2)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-6))
    ok = worst <= 1e-4
    elapsed = time.monotonic() - t0
    _report(
        9,
        "cross-term-duality",
        ok,
        f"worst relative disagreement {worst:.2e} over 10 pairs",
        elapsed,
        120.0,
    )


def test_criterion_10_pl_evidence(desk_solution):
    t0 = time.monotonic()
    config, prior, result = desk_solution
    report = pl_scan(
        config,
        result.path,
        result.report.cost,
        radius=0.1,
        samples=400,
        rng=rng_for(1010, "acceptance-pl"),
        prior=prior,
    )
    rows = report.rows
    ratios = [row["ratio"] for row in rows if "ratio" in row]
    c_400 = min(ratios)
    c_200 = min(r["ratio"] for r in rows[:200] if "ratio" in r)
    stable = abs(c_400 - c_200) <= 0.2 * c_200
    by_construction = all(
        row["fisher"] >= c_400 * row["gap"] - 1e-15 for row in rows if "ratio" in row
    )
    ok = c_200 > 0.0 and c_400 > 0.0 and stable and by_construction
    elapsed = time.monotonic() - t0
    _report(
        10,
        "pl-evidence",
        ok,
        f"c_emp(200)={c_200:.4f}, c_emp(400)={c_400:.4f}, "
        f"bound holds on all {len(ratios)} samples",
        elapsed,
        300.0,
    )


def test_criterion_11_pinsker_property(desk_config):
    t0 = time.monotonic()
    config = desk_config
    prior = make_prior(config)
    mids = prior.measure.midpoints()
    rng = rng_for(1111, "acceptance-pinsker")
    violations = 0
    for _ in range(100):
        k = int(rng.integers(0, 3))
        b1 = rng.uniform(-0.8, 0.8, 2)
        b2 = rng.uniform(-0.8, 0.8, 2)
        c = rng.uniform(0.0, 0.5)
        mu = GridMeasure.from_log_values(
            4.0,
            64,
            (-config.potential.value(mids) - mids @ b1).reshape(64, 64),
        )
        nu = GridMeasure.from_log_values(
            4.0,
            64,
            (
                -config.potential.value(mids)
                - mids @ b2
                - c * np.cos(mids[:, 0])
            ).reshape(64, 64),
        )
        if not pinsker_check(mu, nu, k=k).holds:
            violations += 1
    ok = violations == 0
    elapsed = time.monotonic() - t0
    _report(
        11,
        "pinsker-property",
        ok,
        f"{violations} violations over 100 admissible pairs",
        elapsed,
        30.0,
    )


def test_criterion_12_exponential_sandwich(desk_solution):
    t0 = time.monotonic()
    config, _, result = desk_solution

    def sandwich(path):
        template = path.measures[0]
        ell = config.potential.value(template.midpoints()).reshape(
            template.values.shape
        )
        upper = -math.inf
        lower = -math.inf
        for nu in path.measures:
            log_nu = np.log(np.maximum(nu.values, 1e-300))
            upper = max(upper, float(np.max(log_nu + 0.5 * ell)))
            lower = max(lower, float(np.max(-log_nu - 2.0 * ell)))
        return upper, lower

    s64 = sandwich(result.path)
    fine_path, _ = prior_path(config, res=128)
    fine = picard_solve(config, fine_path, damping=0.5, tol=1e-9, max_iters=500)
    assert fine.converged
    s128 = sandwich(fine.path)
    rel_changes = [
        abs(a - b) / max(abs(a), 1e-8) for a, b in zip(s64, s128)
    ]
    implied = math.exp(max(max(s64), max(s128)))
    ok = (
        all(math.isfinite(v) for v in (*s64, *s128))
        and max(rel_changes) < 0.05
    )
    elapsed = time.monotonic() - t0
    _report(
        12,
        "exponential-sandwich",
        ok,
        f"log bounds 64^2 {tuple(round(v, 4) for v in s64)} vs 128^2 "
        f"{tuple(round(v, 4) for v in s128)}, implied constant {implied:.3f}",
        elapsed,
        120.0,
    )


def test_criterion_13_langevin_grid_agreement(desk_config):
    t0 = time.monotonic()
    config = desk_config
    prior = make_prior(config)
    template = prior.measure
    mids = template.midpoints()
    psi = 0.3 * (np.cos(mids[:, 0]) - 0.4 * np.sin(0.7 * mids[:, 1]))
    start = GridMeasure.from_log_values(
        4.0,
        64,
        (np.log(np.maximum(template.values, 1e-300)).ravel() + psi).reshape(64, 64),
    )
    grid_path = ControlPath.constant(config.grid, start)

    m = 2000
    rng = rng_for(1313, "acceptance-langevin")

    def psi_of(points):
        return 0.3 * (np.cos(points[:, 0]) - 0.4 * np.sin(0.7 * points[:, 1]))

    pts = np.empty((0, 2))
    while pts.shape[0] < m:
        draw = sample_prior(config.potential, 2, 2 * m, rng)
        accept = rng.random(draw.shape[0]) < np.exp(psi_of(draw) - 0.42)
        pts = np.vstack([pts, draw[accept]])
    pts = pts[:m]
    particle_path = ControlPath.constant(config.grid, ParticleMeasure(pts))

    steps, h = 120, 2e-3
    for _ in range(steps):
        grid_path = fp_descent_step(config, grid_path, h, prior=prior).path
        particle_path = langevin_descent_step(config, particle_path, h, rng).path

    worst_mean_z = 0.0
    worst_var_z = 0.0
    for k in range(config.grid.nt):
        nu = grid_path.measures[k]
        w = nu.values.ravel() * nu.cell_volume
        g_mean = mids.T @ w
        g_second = (mids**2).T @ w
        g_var = g_second - g_mean**2
        pm = particle_path.measures[k].points
        p_mean = np.mean(pm, axis=0)
        p_var = np.var(pm, axis=0)
        se_mean = np.std(pm, axis=0) / math.sqrt(m)
        se_var = p_var * math.sqrt(2.0 / (m - 1))
        worst_mean_z = max(
            worst_mean_z, float(np.max(np.abs(p_mean - g_mean) / se_mean))
        )
        worst_var_z = max(
            worst_var_z, float(np.max(np.abs(p_var - g_var) / se_var))
        )
    ok = worst_mean_z <= 3.0 and worst_var_z <= 3.0
    elapsed = time.monotonic() - t0
    _report(
        13,
        "langevin-grid-agreement",
        ok,
        f"max mean z-score {worst_mean_z:.2f}, max variance z-score "
        f"{worst_var_z:.2f} across {config.grid.nt} nodes (M={m})",
        elapsed,
        300.0,
    )


def test_criterion_14_determinism(tmp_path):
    t0 = time.monotonic()
    mini = FIXTURES / "mini.json"
    commands = [
        ("solve", []),
        ("descent", ["--set", "descent.steps=3"]),
        (
            "descent",
            [
                "--set",
                "descent.backend=particle",
                "--set",
                "descent.steps=2",
                "--set",
                "descent.particles=64",
            ],
        ),
        ("stability", ["--set", "stability.iters=3"]),
        ("pl-scan", ["--set", "pl_scan.samples=2"]),
        ("check", []),
    ]
    all_same = True
    for idx, (command, extra) in enumerate(commands):
        digests = []
        for run_id in ("r1", "r2"):
            out = tmp_path / f"{idx}-{run_id}"
            code = cli_main([command, "--config", str(mini), *extra, "--out", str(out)])
            assert code == 0, (command, code)
            payload = {}
            for p in sorted(out.iterdir()):
                if p.name == "manifest.json":
                    continue
                payload[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
            digests.append(payload)
        if digests[0] != digests[1]:
            all_same = False
    elapsed = time.monotonic() - t0
    _report(
        14,
        "determinism",
        all_same,
        "all commands byte-identical across reruns",
        elapsed,
        60.0,
    )
