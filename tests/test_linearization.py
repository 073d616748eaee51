import math

import numpy as np
import pytest

from mfoc.linearization import (
    PerturbationPath,
    _arnoldi,
    _ritz_residual,
    cross_term_duality,
    eta_from,
    linear_map_image,
    pl_scan,
    quadratic_form,
    rho_action,
    second_derivative_check,
    solve_v,
    stability_probe,
    tilt_to_entropy,
)
from mfoc.measures import LOG_FLOOR, GridMeasure, relative_entropy
from mfoc.model import FieldQuadrature, rng_for
from mfoc.optimizer import picard_solve, total_cost
from mfoc.trajectories import (
    curvature_solve,
    default_test_functions,
    forward_solve,
    tangent_solve,
)
from conftest import make_config, prior_path, relative_eta


@pytest.fixture(scope="module")
def solved(desk_solution):
    """Desk solution with a curvature-transporting flow attached."""
    config, prior, result = desk_solution
    flow = forward_solve(config, result.path)
    flow = curvature_solve(config, result.path, flow)
    return config, prior, result, flow


def eta_family(config, base, count, seed):
    rng = np.random.default_rng(seed)
    etas = []
    for _ in range(count):
        w = rng.uniform(-1.0, 1.0, 4)
        k1, k2 = rng.uniform(0.4, 1.6, 2)
        profile_kind = rng.random() < 0.5

        def fn(m, w=w, k1=k1, k2=k2):
            return (
                w[0] * np.cos(k1 * m[:, 0])
                + w[1] * np.sin(k2 * m[:, 1])
                + w[2] * np.cos(k1 * m[:, 0] + k2 * m[:, 1])
                + w[3] * 0.5 * m[:, 0] * np.exp(-0.2 * np.sum(m * m, axis=1))
            )

        profile = None if profile_kind else (lambda t: math.sin(2.0 * t) + 1.2)
        etas.append(relative_eta(base, config.grid, fn, profile=profile))
    return etas


class TestRhoAction:
    def test_zero_perturbation(self, solved):
        config, _, result, flow = solved
        eta = PerturbationPath(
            config.grid, 4.0, 64, np.zeros((config.grid.nt, 64, 64))
        )
        tangent = tangent_solve(config, result.path, flow, eta)
        probe = default_test_functions()[3]
        assert rho_action(tangent, probe, config.grid.nt - 1) == 0.0

    def test_constant_test_function(self, solved):
        config, _, result, flow = solved
        eta = eta_family(config, result.path.measures[0], 1, seed=5)[0]
        tangent = tangent_solve(config, result.path, flow, eta)
        probe = default_test_functions()[0]
        assert rho_action(tangent, probe, config.grid.nt - 1) == 0.0

    def test_matches_push_forward_difference(self, solved):
        config, _, result, flow = solved
        eta = eta_family(config, result.path.measures[0], 1, seed=7)[0]
        tangent = tangent_solve(config, result.path, flow, eta)
        probe = default_test_functions()[3]
        k = config.grid.nt - 1
        action = rho_action(tangent, probe, k)
        errs = []
        for lam in (1e-2, 1e-3):
            measures = [
                nu.with_values(nu.values + lam * eta.node(j))
                for j, nu in enumerate(result.path.measures)
            ]
            flow_lam = forward_solve(config, result.path.replace_measures(measures))
            base = float(np.mean(probe.value(flow.x[k], flow.y)))
            bumped = float(np.mean(probe.value(flow_lam.x[k], flow_lam.y)))
            errs.append(abs((bumped - base) / lam - action))
        assert errs[0] / errs[1] == pytest.approx(10.0, rel=0.3), errs


class TestSolveV:
    def test_zero_perturbation_gives_zero(self, solved):
        config, _, result, flow = solved
        eta = PerturbationPath(
            config.grid, 4.0, 64, np.zeros((config.grid.nt, 64, 64))
        )
        mult = solve_v(config, result.path, flow, eta)
        assert np.max(np.abs(mult.v)) == 0.0
        assert np.max(np.abs(mult.dv)) == 0.0

    def test_terminal_value_vanishes(self, solved):
        config, _, result, flow = solved
        eta = eta_family(config, result.path.measures[0], 1, seed=11)[0]
        mult = solve_v(config, result.path, flow, eta)
        assert np.max(np.abs(mult.v[-1])) == 0.0
        assert np.max(np.abs(mult.dv[-1])) == 0.0

    def test_matches_multiplier_difference_quotient(self, solved):
        # oracle: rerun the backward transport under nu + lambda eta and
        # difference the reconstructed value functions along characteristics
        config, _, result, flow = solved
        eta = eta_family(config, result.path.measures[0], 1, seed=13)[0]
        mult = solve_v(config, result.path, flow, eta)
        k = 20
        errs = []
        for lam in (1e-2, 1e-3):
            measures = [
                nu.with_values(nu.values + lam * eta.node(j))
                for j, nu in enumerate(result.path.measures)
            ]
            path_lam = result.path.replace_measures(measures)
            # u^lambda - u along the base characteristics: evaluate both
            # transported losses from the same states at node k
            from dataclasses import replace as dc_replace

            from mfoc.model import Dataset

            tail_grid = config.grid.tail(k)
            probe_config = dc_replace(
                config,
                dataset=Dataset(flow.x[k], config.dataset.y),
                grid=tail_grid,
            )
            from mfoc.measures import ControlPath

            tail_base = ControlPath(tail_grid, result.path.measures[k:])
            tail_lam = ControlPath(tail_grid, path_lam.measures[k:])
            u_base = probe_config.loss.value(
                forward_solve(probe_config, tail_base).x[-1], config.dataset.y
            )
            u_lam = probe_config.loss.value(
                forward_solve(probe_config, tail_lam).x[-1], config.dataset.y
            )
            errs.append(np.max(np.abs((u_lam - u_base) / lam - mult.v[k])))
        assert errs[0] / errs[1] == pytest.approx(10.0, rel=0.35), errs

    def test_gradient_matches_probe_finite_difference(self, solved):
        config, _, result, flow = solved
        eta = eta_family(config, result.path.measures[0], 1, seed=17)[0]
        mult = solve_v(config, result.path, flow, eta)
        for k in (10, 40):
            fd = mult.grad_probe(k, flow.x[k], config.dataset.y, delta=1e-4)
            assert np.max(np.abs(fd - mult.dv[k])) < 1e-5

    def test_linearity(self, solved):
        config, _, result, flow = solved
        e1, e2 = eta_family(config, result.path.measures[0], 2, seed=19)
        m1 = solve_v(config, result.path, flow, e1)
        m2 = solve_v(config, result.path, flow, e2)
        combo = PerturbationPath(
            config.grid, e1.halfwidth, e1.res, 1.5 * e1.values - 0.7 * e2.values
        )
        mc = solve_v(config, result.path, flow, combo)
        scale = max(np.max(np.abs(mc.v)), 1e-30)
        assert np.max(np.abs(mc.v - (1.5 * m1.v - 0.7 * m2.v))) / scale < 1e-10
        scale = max(np.max(np.abs(mc.dv)), 1e-30)
        assert np.max(np.abs(mc.dv - (1.5 * m1.dv - 0.7 * m2.dv))) / scale < 1e-10


class TestEtaFrom:
    def test_zero_inputs(self, solved):
        config, _, result, flow = solved
        zero = PerturbationPath(
            config.grid, 4.0, 64, np.zeros((config.grid.nt, 64, 64))
        )
        tangent = tangent_solve(config, result.path, flow, zero)
        mult = solve_v(config, result.path, flow, zero)
        out = eta_from(config, result.path, flow, tangent, mult)
        assert np.max(np.abs(out.values)) == 0.0

    def test_node_masses_vanish(self, solved):
        config, _, result, flow = solved
        eta = eta_family(config, result.path.measures[0], 1, seed=23)[0]
        out = linear_map_image(config, result.path, flow, eta)
        vol = out.cell_volume
        for k in range(config.grid.nt):
            assert abs(float(np.sum(out.node(k))) * vol) < 1e-12

    def test_linearity_of_map(self, solved):
        config, _, result, flow = solved
        e1, e2 = eta_family(config, result.path.measures[0], 2, seed=29)
        f1 = linear_map_image(config, result.path, flow, e1)
        f2 = linear_map_image(config, result.path, flow, e2)
        combo = PerturbationPath(
            config.grid, e1.halfwidth, e1.res, 0.8 * e1.values + 2.0 * e2.values
        )
        fc = linear_map_image(config, result.path, flow, combo)
        scale = max(np.max(np.abs(fc.values)), 1e-30)
        assert (
            np.max(np.abs(fc.values - (0.8 * f1.values + 2.0 * f2.values))) / scale
            < 1e-10
        )


class TestQuadraticForm:
    def test_zero_eta(self, solved):
        config, _, result, flow = solved
        zero = PerturbationPath(
            config.grid, 4.0, 64, np.zeros((config.grid.nt, 64, 64))
        )
        assert quadratic_form(config, result.path, flow, zero) == 0.0

    def test_unsupported_eta_is_infinite(self, solved):
        config, _, result, flow = solved
        doctored = [
            nu.with_values(nu.values.copy()) for nu in result.path.measures
        ]
        vals = doctored[0].values.copy()
        vals[0, 0] = 0.0
        doctored[0] = doctored[0].with_values(vals)
        path = result.path.replace_measures(doctored)
        layers = np.zeros((config.grid.nt, 64, 64))
        layers[0, 0, 0] = 1.0
        layers[0, -1, -1] = -1.0
        eta = PerturbationPath(config.grid, 4.0, 64, layers)
        assert math.isinf(quadratic_form(config, path, flow, eta))

    def test_nonnegative_at_minimizer(self, solved):
        config, _, result, flow = solved
        scale = abs(result.report.cost) + 1.0
        worst = math.inf
        for eta in eta_family(config, result.path.measures[0], 50, seed=31):
            j2 = quadratic_form(config, result.path, flow, eta)
            worst = min(worst, j2)
        assert worst >= -1e-8 * scale, worst


class TestSecondDerivative:
    def test_zero_eta(self, solved):
        config, prior, result, flow = solved
        zero = PerturbationPath(
            config.grid, 4.0, 64, np.zeros((config.grid.nt, 64, 64))
        )
        report = second_derivative_check(
            config, result.path, flow, zero, prior=prior
        )
        assert report.jform == 0.0
        assert report.fd2 == pytest.approx(0.0, abs=1e-9)

    def test_matches_quadratic_form(self, solved):
        config, prior, result, flow = solved
        for eta in eta_family(config, result.path.measures[0], 3, seed=37):
            report = second_derivative_check(
                config, result.path, flow, eta.scaled(0.5), prior=prior
            )
            denom = max(abs(report.jform), 1e-8)
            assert abs(report.fd2 - report.jform) / denom <= 0.05, report


class TestCrossTermDuality:
    def test_two_evaluations_agree(self, solved):
        config, _, result, flow = solved
        pairs = zip(
            eta_family(config, result.path.measures[0], 4, seed=41),
            eta_family(config, result.path.measures[0], 4, seed=43),
        )
        for e1, e2 in pairs:
            lhs, rhs = cross_term_duality(config, result.path, flow, e1, e2)
            assert abs(lhs - rhs) <= 1e-4 * max(abs(lhs), abs(rhs), 1e-6), (lhs, rhs)


class TestArnoldi:
    # A = W^-1 S with S symmetric is symmetric in <a, b> = a . W b, as the
    # linearized map is in L^2(1/nu); its eigenvalues are real
    N = 7

    def weighted(self, rank=None):
        rng = np.random.default_rng(5)
        w = rng.uniform(0.5, 2.0, self.N)
        u = rng.standard_normal((self.N, rank or self.N))
        s = u @ u.T if rank else u + u.T
        return (lambda v: (s @ v) / w), (lambda a, b: float(a @ (w * b))), s / w[:, None]

    def test_basis_is_orthonormal_and_ritz_values_are_the_spectrum(self):
        apply, dot, dense = self.weighted()
        v0 = np.linspace(1.0, 2.0, self.N)
        basis, H, rayleigh, _, _ = _arnoldi(apply, v0, dot, self.N)
        assert H.shape == (self.N, self.N) and len(rayleigh) == self.N
        gram = np.array([[dot(a, b) for b in basis] for a in basis])
        assert np.max(np.abs(gram - np.eye(len(basis)))) < 1e-12
        want = np.sort(np.linalg.eigvals(dense).real)
        got = np.sort(np.linalg.eigvals(H).real)
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))
        assert np.allclose(rayleigh, np.diag(H), rtol=0.0, atol=1e-12)

    def test_ritz_residual_is_the_dominant_pairs_residual(self):
        apply, dot, _ = self.weighted()
        v0 = np.linspace(1.0, 2.0, self.N)
        for iters in (1, 3, 5, self.N):
            basis, H, _, below, _ = _arnoldi(apply, v0, dot, iters)
            values, vectors = np.linalg.eig(H)
            top = np.argmax(abs(values))
            # the Ritz vector from the basis, and its residual taken directly
            u = sum(y * q for y, q in zip(vectors[:, top], basis))
            r = apply(u) - values[top] * u
            direct = math.sqrt(dot(r, r))
            got = _ritz_residual(H, below, values[top])
            if iters < self.N:
                assert direct > 1e-6 and abs(got - direct) <= 1e-10 * direct
            else:
                # the Krylov space is the whole space: the pair is exact
                assert got < 1e-12 and direct < 1e-10

    def test_breakdown_below_iters_on_a_low_rank_map(self):
        # the Krylov space of v0 under a rank-2 map has dimension at most 3
        apply, dot, _ = self.weighted(rank=2)
        v0 = np.linspace(1.0, 2.0, self.N)
        basis, H, rayleigh, _, breakdown = _arnoldi(apply, v0, dot, 5)
        assert breakdown
        assert len(rayleigh) == len(basis) == H.shape[0] <= 3
        gram = np.array([[dot(a, b) for b in basis] for a in basis])
        assert np.max(np.abs(gram - np.eye(len(basis)))) < 1e-12


class TestStabilityProbe:
    def test_zero_problem_is_strictly_stable(self):
        # for labels equal to features the adjoint vanishes along the data
        # but the value-function curvature does not: the cross term is
        # strictly positive, the map's spectrum strictly negative, and the
        # minimizer is stable with a wide margin. (A direct expansion of the
        # cost gives d2 J = eps |eta|^2 + (T-t0)^2 mean(b_eta^2).)
        config = make_config(n=16, nt=9, zero_problem=True)
        path, prior = prior_path(config)
        result = picard_solve(config, path, tol=1e-10)
        flow = forward_solve(config, result.path)
        flow = curvature_solve(config, result.path, flow)
        report = stability_probe(
            config, result.path, flow, iters=4, rng=rng_for(0, "probe")
        )
        assert report.dominant_eig < 0.0
        assert report.details["stable_evidence"]

    def test_zero_problem_quadratic_form_closed_form(self):
        # same fixture, checked against the expansion above
        config = make_config(n=16, nt=33, zero_problem=True)
        path, prior = prior_path(config)
        result = picard_solve(config, path, tol=1e-10)
        flow = forward_solve(config, result.path)
        flow = curvature_solve(config, result.path, flow)
        eta = relative_eta(
            result.path.measures[0],
            config.grid,
            lambda m: np.cos(0.9 * m[:, 0] + 0.3 * m[:, 1]),
        )
        got = quadratic_form(config, result.path, flow, eta)
        # closed form: eps int eta^2/nu + mean over data of
        # [(T - t0) b_eta(x_i)]^2 with b_eta the signed mean drift
        vol = eta.cell_volume
        dt = config.grid.dt
        l2 = sum(
            float(np.sum(eta.node(k) ** 2 / result.path.measures[k].values))
            * vol
            * dt
            for k in range(config.grid.nt - 1)
        )
        quad = FieldQuadrature(config.field, result.path.measures[0].midpoints())
        fold = quad.fold(eta.node(0).ravel() * vol)
        b_eta = quad.tiers(config.dataset.x, 0, (fold,))[0][0][:, 0]
        horizon = config.grid.horizon - config.grid.t0
        want = config.epsilon * l2 + horizon**2 * float(np.mean(b_eta**2))
        assert got == pytest.approx(want, rel=2e-2)

    def test_desk_problem_reports_margin(self, solved):
        config, _, result, flow = solved
        report = stability_probe(
            config, result.path, flow, iters=8, rng=rng_for(1, "probe")
        )
        assert math.isfinite(report.dominant_eig)
        assert math.isfinite(report.details["margin_from_one"])
        # diagnostic only; at a strict minimizer the sampled spectrum must
        # stay at or below one (up to discretization noise)
        assert report.dominant_eig <= 1.0 + 1e-6

    def test_contraction_in_large_epsilon(self):
        doms = []
        for eps in (2.0, 8.0, 32.0):
            config = make_config(n=16, nt=17, epsilon=eps)
            path, _ = prior_path(config)
            result = picard_solve(config, path, tol=1e-10)
            flow = forward_solve(config, result.path)
            flow = curvature_solve(config, result.path, flow)
            report = stability_probe(
                config, result.path, flow, iters=5, rng=rng_for(2, "probe")
            )
            doms.append(abs(report.dominant_eig))
        assert doms[0] > doms[1] > doms[2], doms


def reference_tilt_to_entropy(path, psi_grid, profile, target, max_refine=30):
    """The tilt built node by node as measures, each entropy from
    ``relative_entropy``."""
    template = path.measures[0]
    dt = path.grid.dt

    def build(amplitude):
        measures = []
        for k in range(path.grid.nt):
            lv = np.log(np.maximum(path.measures[k].values, LOG_FLOOR)) + (
                amplitude * profile[k]
            ) * psi_grid
            measures.append(GridMeasure.from_log_values(template.halfwidth, template.res, lv))
        return path.replace_measures(measures)

    def entropy_of(candidate):
        return sum(
            relative_entropy(candidate.measures[k], path.measures[k]) * dt
            for k in range(path.grid.nt - 1)
        )

    amplitude = 1.0
    candidate = build(amplitude)
    for _ in range(max_refine):
        ent = entropy_of(candidate)
        if ent <= 0.0:
            return None, 0.0
        ratio = target / ent
        if abs(ratio - 1.0) < 1e-6:
            break
        amplitude *= math.sqrt(ratio)
        candidate = build(amplitude)
    return candidate, entropy_of(candidate)


def _floored_path(config):
    """A prior path at res 16 whose node 2 has empty cells, so both the
    reference and the candidate have cells at the floor there."""
    path, _ = prior_path(config, res=16)
    values = path.measures[2].values.copy()
    values[:3, :] = 0.0
    measures = list(path.measures)
    measures[2] = measures[2].with_values(values)
    return path.replace_measures(measures)


class TestPlScan:
    def test_tilt_hits_entropy_target(self, solved):
        config, _, result, _ = solved
        mids = result.path.measures[0].midpoints()
        psi = np.cos(mids[:, 0]).reshape(64, 64)
        target = 1e-2
        candidate, ent = tilt_to_entropy(
            result.path, psi, np.ones(config.grid.nt), target
        )
        assert ent == pytest.approx(target, rel=1e-4)

    @pytest.mark.parametrize("floored", [False, True])
    def test_tilt_matches_the_per_node_reference(self, floored):
        config = make_config(n=16, nt=9)
        path = _floored_path(config) if floored else prior_path(config, res=16)[0]
        rng = np.random.default_rng(5)
        mids = path.measures[0].midpoints()
        cases = [(np.cos(1.3 * mids[:, 0] - 0.2 * mids[:, 1]), rng.uniform(0.2, 1.0, 9), 1e-2)]
        # a tilt that empties cells of the candidate, and one that never converges
        cases.append((np.where(mids[:, 0] > 3.0, -900.0, np.sin(mids[:, 1])), np.ones(9), 4e-3))
        cases.append((np.cos(mids[:, 0]), np.ones(9), 1e-3))
        for (psi, profile, target), refine in zip(cases, (30, 30, 2)):
            psi = psi.reshape(16, 16)
            new, ent = tilt_to_entropy(path, psi, profile, target, max_refine=refine)
            ref, ref_ent = reference_tilt_to_entropy(path, psi, profile, target, max_refine=refine)
            assert ent == ref_ent and ent > 0.0
            for a, b in zip(new.measures, ref.measures):
                assert a.values.tobytes() == b.values.tobytes()

    def test_single_direction_ratio_stabilizes(self, solved):
        config, prior, result, _ = solved
        mids = result.path.measures[0].midpoints()
        psi = np.cos(1.1 * mids[:, 0] - 0.4 * mids[:, 1]).reshape(64, 64)
        ratios = []
        for target in (1e-2, 2.5e-3, 6.25e-4):
            candidate, _ = tilt_to_entropy(
                result.path, psi, np.ones(config.grid.nt), target
            )
            report = total_cost(config, candidate, with_fisher=True, prior=prior)
            ratios.append(report.fisher / (report.cost - result.report.cost))
        assert ratios[1] == pytest.approx(ratios[2], rel=0.15), ratios

    def test_small_scan_reports_positive_ratio(self, solved):
        config, prior, result, _ = solved
        report = pl_scan(
            config,
            result.path,
            result.report.cost,
            radius=0.1,
            samples=12,
            rng=rng_for(3, "pl"),
            prior=prior,
        )
        assert report.pl_ratio > 0.0
        for row in report.details["rows"]:
            if "ratio" in row:
                assert row["fisher"] >= report.pl_ratio * row["gap"] - 1e-15

    def test_degenerate_scan_is_empty(self, solved):
        config, prior, result, _ = solved
        report = pl_scan(
            config,
            result.path,
            result.report.cost,
            radius=0.0,
            samples=2,
            rng=rng_for(4, "pl"),
            prior=prior,
        )
        assert math.isnan(report.pl_ratio)


class TestFd2Scaling:
    def test_quadratic_in_perturbation(self, solved):
        # central second differences are exact on quadratics: doubling the
        # perturbation must scale both sides by four
        config, prior, result, flow = solved
        eta = relative_eta(
            result.path.measures[0],
            config.grid,
            lambda m: np.cos(0.9 * m[:, 0]) - 0.5 * np.sin(0.6 * m[:, 1]),
        ).scaled(0.3)
        r1 = second_derivative_check(
            config, result.path, flow, eta, lambdas=(1e-3,), prior=prior
        )
        r2 = second_derivative_check(
            config, result.path, flow, eta.scaled(2.0), lambdas=(1e-3,), prior=prior
        )
        assert r2.jform / r1.jform == pytest.approx(4.0, rel=1e-10)
        assert r2.fd2 / r1.fd2 == pytest.approx(4.0, rel=1e-3)


class TestLadderTruncation:
    def test_negative_density_truncates_with_note(self, solved):
        config, prior, result, flow = solved
        # amplitude chosen so lambda = 1e-2 leaves the density cone while
        # lambda = 1e-3 stays inside it
        eta = relative_eta(
            result.path.measures[0],
            config.grid,
            lambda m: np.cos(0.7 * m[:, 0]),
        ).scaled(180.0)
        report = second_derivative_check(
            config, result.path, flow, eta, lambdas=(1e-2, 1e-3), prior=prior
        )
        assert "note" in report.details
        assert set(report.details["per_lambda"]) == {1e-3}
        assert math.isfinite(report.fd2)

    def test_probe_value_vanishes_at_horizon(self, solved):
        config, _, result, flow = solved
        eta = relative_eta(
            result.path.measures[0],
            config.grid,
            lambda m: np.sin(0.5 * m[:, 0] + 0.2 * m[:, 1]),
        )
        mult = solve_v(config, result.path, flow, eta)
        vals = mult.value_probe(config.grid.nt - 1, flow.x[-1], config.dataset.y)
        assert np.max(np.abs(vals)) == 0.0
