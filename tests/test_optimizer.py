import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from mfoc.cli import _initial_grid_path, load_run_document
from mfoc.measures import (
    ControlPath,
    GridMeasure,
    ParticleMeasure,
    moment,
    relative_entropy,
)
from mfoc.model import Dataset, rng_for
from mfoc.optimizer import (
    MAX_SUBSTEPS,
    PositivityError,
    _fitted_rates,
    fokker_planck_flow,
    fp_descent_step,
    gibbs_map_with_flow,
    langevin_descent_step,
    picard_solve,
    sample_prior,
    total_cost,
)
from mfoc.trajectories import forward_solve
from conftest import grid_tail, make_config, make_prior, prior_path, refined

MINI = Path(__file__).resolve().parent.parent / "fixtures" / "mini.json"


def mini_start(*sets):
    """Configuration and prior path of fixtures/mini.json with overrides."""
    config, doc = load_run_document(str(MINI), list(sets))
    return config, _initial_grid_path(config, doc)[0]


def damped_step(config, path, damping):
    """Reference damped Picard step: the geometric mixture
    nu^{1-damping} Gamma[nu]^damping of each node, renormalized."""
    measures = []
    for nu, snap in zip(path.measures, gibbs_map_with_flow(config, path)[0]):
        log_nu = np.log(np.maximum(nu.values, 1e-300))
        log_gamma = np.log(np.maximum(snap.gamma.values, 1e-300))
        mixed = (1.0 - damping) * log_nu + damping * log_gamma
        measures.append(GridMeasure.from_log_values(nu.halfwidth, nu.res, mixed))
    return path.replace_measures(measures)


def tilted_path_from(base_measure, grid, fn, scale=1.0):
    """Gibbs-tilt of a base measure by a bounded potential, per node."""
    mids = base_measure.midpoints()
    shape = base_measure.values.shape
    measures = []
    for _ in range(grid.nt):
        lv = np.log(np.maximum(base_measure.values, 1e-300)) + scale * np.asarray(
            fn(mids)
        ).reshape(shape)
        measures.append(
            GridMeasure.from_log_values(base_measure.halfwidth, base_measure.res, lv)
        )
    return ControlPath(grid, tuple(measures))


class TestGibbsMap:
    def test_zero_problem_returns_prior(self):
        config = make_config(zero_problem=True)
        path, prior = prior_path(config)
        snaps, _ = gibbs_map_with_flow(config, path)
        for k in (0, len(snaps) // 2, len(snaps) - 1):
            assert np.max(np.abs(snaps[k].phi)) < 1e-14
            assert np.max(np.abs(snaps[k].gamma.values - prior.measure.values)) < 1e-12

    def test_huge_epsilon_reduces_to_prior(self):
        config = make_config(n=16, nt=9, epsilon=1e6)
        path, prior = prior_path(config)
        snaps, _ = gibbs_map_with_flow(config, path)
        log_prior = np.log(prior.measure.values)
        for snap in snaps:
            log_gamma = np.log(snap.gamma.values)
            assert np.max(np.abs(log_gamma - log_prior)) < 1e-4

    def test_gibbs_form_identity(self, desk_solution):
        # log gamma + ell + phi/eps + log z = 0 pointwise
        config, prior, result = desk_solution
        snaps, _ = gibbs_map_with_flow(config, result.path)
        template = result.path.measures[0]
        ell = config.potential.value(template.midpoints()).reshape(
            template.values.shape
        )
        for snap in (snaps[0], snaps[-1]):
            resid = (
                np.log(snap.gamma.values)
                + ell
                + snap.phi / config.epsilon
                + snap.log_z
            )
            assert np.max(np.abs(resid)) < 1e-10

    def test_matches_step_refined_recomputation(self, desk_solution):
        # oracle: same grid, 4x finer integrator steps for the flow
        config, _, result = desk_solution
        path = result.path
        from mfoc.measures import _logsumexp
        from mfoc.trajectories import backward_solve

        template = path.measures[0]
        snaps, _ = gibbs_map_with_flow(config, path)
        fine = refined(path, 4)
        flow = forward_solve(config, fine)
        flow = backward_solve(config, fine, flow, bracket_grid=template)
        ell = config.potential.value(template.midpoints())
        for k in (0, config.grid.nt // 2, config.grid.nt - 1):
            log_un = -ell - flow.bracket[4 * k] / config.epsilon
            log_z = _logsumexp(log_un) + 2 * math.log(template.cell_width)
            gamma_fine = np.exp(log_un - log_z).reshape(template.values.shape)
            rel = np.max(np.abs(snaps[k].gamma.values - gamma_fine)) / np.max(
                gamma_fine
            )
            assert rel < 1e-4


class TestTotalCost:
    def test_zero_problem_is_free(self):
        config = make_config(zero_problem=True)
        path, prior = prior_path(config)
        report = total_cost(config, path, prior=prior)
        assert abs(report.cost) < 1e-10

    def test_prior_path_pays_only_data_misfit(self):
        config = make_config()
        path, prior = prior_path(config)
        report = total_cost(config, path, prior=prior)
        want = float(np.mean(config.loss.value(config.dataset.x, config.dataset.y)))
        assert report.terminal == pytest.approx(want, abs=1e-12)
        assert report.entropy == 0.0
        assert report.cost == pytest.approx(want, abs=1e-12)

    def test_perturbations_cost_more_than_minimizer(self, desk_solution):
        config, prior, result = desk_solution
        rng = np.random.default_rng(31)
        base = result.path.measures[0]
        mids = base.midpoints()
        for _ in range(5):
            w = rng.uniform(-1.0, 1.0, 3)

            def tilt(m, w=w):
                return w[0] * np.cos(m[:, 0]) + w[1] * np.sin(m[:, 1]) + w[2] * m[:, 0] / 4.0

            perturbed = ControlPath(
                result.path.grid,
                tuple(
                    GridMeasure.from_log_values(
                        base.halfwidth,
                        base.res,
                        np.log(np.maximum(nu.values, 1e-300))
                        + 0.2 * np.asarray(tilt(mids)).reshape(nu.values.shape),
                    )
                    for nu in result.path.measures
                ),
            )
            report = total_cost(config, perturbed, prior=prior)
            assert report.cost >= result.report.cost - 1e-10


class TestFisherFunctional:
    def test_zero_problem(self):
        config = make_config(zero_problem=True)
        path, _ = prior_path(config)
        assert total_cost(config, path, with_fisher=True).fisher < 1e-12

    def test_vanishes_at_fixed_point(self, desk_solution):
        config, _, result = desk_solution
        assert result.report.fisher < 1e-8 * config.epsilon**2

    def test_small_tilt_scaling(self, desk_solution):
        # nu = nu* e^{beta a1}/z: against the frozen Gibbs image the value
        # would be eps^2 beta^2 (T - t0); the self-consistent image shifts it
        # by an O(1) factor, so the frozen oracle pins the magnitude while the
        # beta^2 scaling is checked sharply
        config, _, result = desk_solution

        def tilt_by(beta):
            return ControlPath(
                result.path.grid,
                tuple(
                    GridMeasure.from_log_values(
                        nu.halfwidth,
                        nu.res,
                        np.log(np.maximum(nu.values, 1e-300))
                        + beta * nu.midpoints()[:, 0].reshape(nu.values.shape),
                    )
                    for nu in result.path.measures
                ),
            )

        horizon = config.grid.horizon - config.grid.t0
        beta = 0.02
        got = total_cost(config, tilt_by(beta), with_fisher=True).fisher
        frozen = config.epsilon**2 * beta**2 * horizon
        frozen_error = abs(got - frozen) / frozen
        assert 1.0 / 3.0 < got / frozen < 3.0, (got, frozen, frozen_error)
        got_half = total_cost(config, tilt_by(beta / 2), with_fisher=True).fisher
        assert got / got_half == pytest.approx(4.0, rel=0.05)


class TestPicardSolve:
    def test_zero_problem_single_iteration(self):
        config = make_config(zero_problem=True)
        path, prior = prior_path(config)
        result = picard_solve(config, path, tol=1e-10)
        assert result.converged
        assert result.iterations <= 1
        assert abs(result.report.cost) < 1e-10
        assert result.report.fisher < 1e-10
        for nu in result.path.measures:
            assert np.max(np.abs(nu.values - prior.measure.values)) < 1e-10

    def test_desk_problem_converges(self, desk_solution):
        _, _, result = desk_solution
        assert result.converged
        assert result.report.picard_residual <= 1e-9
        assert result.iterations <= 500

    def test_init_independence(self, desk_solution):
        config, prior, result = desk_solution
        tilted = tilted_path_from(
            prior.measure,
            config.grid,
            lambda m: np.cos(m[:, 0]) - 0.5 * m[:, 1] / 4.0,
            scale=0.5,
        )
        other = picard_solve(config, tilted, damping=0.5, tol=1e-9, max_iters=500)
        assert other.converged
        assert abs(other.report.cost - result.report.cost) < 1e-6

    def test_restart_consistency_at_interior_node(self, desk_solution):
        # dynamic programming: the tail of the minimizer solves the tail
        # problem started from the reached ensemble
        config, _, result = desk_solution
        k = config.grid.nt // 2
        flow = forward_solve(config, result.path)
        tail_grid = grid_tail(config.grid, k)
        tail_config = replace(
            config,
            dataset=Dataset(flow.x[k], config.dataset.y),
            grid=tail_grid,
        )
        tail_prior = make_prior(tail_config)
        tail_init = ControlPath.constant(tail_grid, tail_prior.measure)
        tail = picard_solve(tail_config, tail_init, tol=1e-10, max_iters=500)
        assert tail.converged
        worst = max(
            relative_entropy(result.path.measures[k + j], tail.path.measures[j])
            for j in range(tail_grid.nt)
        )
        assert worst < 1e-6


class TestAndersonMixing:
    @pytest.mark.parametrize("epsilon", [0.05, 0.02])
    def test_default_solve_converges_at_small_epsilon_on_mini(self, epsilon):
        # damped Picard alone does not converge here: its default 500
        # iterations leave residuals of 0.99 (eps 0.05) and 6.4 (eps 0.02)
        config, path = mini_start(f"epsilon={epsilon}")
        result = picard_solve(config, path)
        assert result.converged
        assert result.report.picard_residual <= 1e-8
        assert result.iterations <= 25

    def test_first_step_is_the_damped_mixture(self):
        config, path = mini_start()
        result = picard_solve(config, path, damping=0.3, max_iters=1)
        assert result.iterations == 1
        expected = damped_step(config, path, 0.3)
        for got, want in zip(result.path.measures, expected.measures):
            np.testing.assert_allclose(got.values, want.values, rtol=1e-12, atol=0.0)

    def test_non_finite_coefficients_clear_the_history(self, monkeypatch):
        config, path = mini_start()
        one = picard_solve(config, path, max_iters=1)
        fresh = picard_solve(config, one.path, max_iters=2)
        fits = []
        lstsq = np.linalg.lstsq

        def first_fit_fails(a, b, rcond=None):
            fits.append(a.shape)
            if len(fits) == 1:
                return (np.full(b.shape, np.nan),)
            return lstsq(a, b, rcond=rcond)

        monkeypatch.setattr(np.linalg, "lstsq", first_fit_fails)
        two = picard_solve(config, path, max_iters=2)
        # the second step found no usable fit: it is the damped step
        expected = damped_step(config, one.path, 0.5)
        for got, want in zip(two.path.measures, expected.measures):
            np.testing.assert_allclose(got.values, want.values, rtol=1e-12, atol=0.0)
        fits.clear()
        three = picard_solve(config, path, max_iters=3)
        # the cleared history holds only the second step when the third is
        # fitted, so the run continues as one restarted from the first iterate
        assert fits == [(1, 1), (1, 1)]
        assert three.residual_history[1:] == fresh.residual_history
        for got, want in zip(three.path.measures, fresh.path.measures):
            assert np.array_equal(got.values, want.values)


class TestFpDescent:
    def test_exact_fixed_point_is_stationary(self):
        # the zero problem makes the prior an exact fixed point: fluxes
        # cancel to rounding
        config = make_config(n=16, nt=9, zero_problem=True)
        path, prior = prior_path(config)
        step = fp_descent_step(config, path, 1e-3, prior=prior)
        for before, after in zip(path.measures, step.path.measures):
            assert np.max(np.abs(after.values - before.values)) <= 1e-12 * np.max(
                before.values
            )

    def test_converged_minimizer_nearly_stationary(self, desk_solution):
        # the solved path is a fixed point only to solver tolerance; the
        # one-step change scales with the root of the entropy residual
        config, _, result = desk_solution
        step = fp_descent_step(config, result.path, 1e-3)
        residual = result.report.picard_residual
        bound = 50.0 * math.sqrt(2.0 * residual)
        for before, after in zip(result.path.measures, step.path.measures):
            rel = np.max(np.abs(after.values - before.values)) / np.max(before.values)
            assert rel <= bound

    def test_descent_identity_single_step(self, desk_solution):
        config, prior, result = desk_solution
        start = tilted_path_from(
            result.path.measures[0],
            config.grid,
            lambda m: 0.3 * np.cos(m[:, 0] - 0.4 * m[:, 1]),
        )
        h = 5e-4
        step = fp_descent_step(config, start, h, prior=prior)
        after = total_cost(config, step.path, prior=prior)
        dj = (after.cost - step.report.cost) / h
        assert step.report.fisher > 0
        assert abs(dj + step.report.fisher) <= 0.05 * step.report.fisher

    def test_mass_conserved(self, desk_solution):
        config, prior, result = desk_solution
        start = tilted_path_from(
            result.path.measures[0],
            config.grid,
            lambda m: 0.4 * np.sin(m[:, 0]) * np.cos(m[:, 1]),
        )
        step = fp_descent_step(config, start, 2e-3, prior=prior)
        for nu in step.path.measures:
            assert abs(nu.mass() - 1.0) < 1e-12

    def test_long_run_monotone(self):
        # smaller fixture so a thousand steps stay cheap
        config = make_config(n=16, nt=17)
        path0, prior = prior_path(config, res=32)
        result = picard_solve(config, path0, tol=1e-9, max_iters=300)
        template = result.path.measures[0]
        mids = template.midpoints()
        psi = (0.4 * np.cos(mids[:, 0] + 0.3 * mids[:, 1])).reshape(
            template.values.shape
        )
        path = result.path.replace_measures(
            GridMeasure.from_log_values(
                template.halfwidth,
                template.res,
                np.log(np.maximum(nu.values, 1e-300)) + psi,
            )
            for nu in result.path.measures
        )
        h = 1e-3
        costs = []
        for _ in range(1000):
            out = fp_descent_step(config, path, h, prior=prior)
            costs.append(out.report.cost)
            path = out.path
        costs.append(total_cost(config, path, prior=prior).cost)
        diffs = np.diff(costs)
        assert np.all(diffs <= 1e-12), f"{np.sum(diffs > 1e-12)} increases"

    def test_step_past_substep_cap_raises(self, desk_solution):
        config, prior, result = desk_solution
        start = tilted_path_from(
            result.path.measures[0],
            config.grid,
            lambda m: 0.3 * np.cos(m[:, 0]),
        )
        with pytest.raises(PositivityError, match="the cap is 1024"):
            fp_descent_step(config, start, 1e6, prior=prior)


@st.composite
def fitted_flow_problems(draw):
    """A smooth potential and a non-negative density per node on a small 2-D
    grid, and a step fraction of the substep cap."""
    nodes = draw(st.integers(1, 3))
    n1, n2 = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    eps = draw(st.floats(0.05, 1.0))
    h = draw(st.floats(0.05, 0.5))
    coeffs = draw(hnp.arrays(float, (nodes, 3, 3), elements=st.floats(-2.0, 2.0)))
    # quadratic polynomials in the cell coordinates scaled to [-1, 1]
    bx = np.vander(np.linspace(-1.0, 1.0, n1), 3, increasing=True).T
    by = np.vander(np.linspace(-1.0, 1.0, n2), 3, increasing=True).T
    v = np.einsum("kij,ia,jb->kab", coeffs, bx, by)
    nu = draw(hnp.arrays(float, (nodes, n1, n2), elements=st.floats(0.0, 1.0)))
    nu[:, 0, 0] += 0.1  # every node carries mass
    fraction = draw(st.floats(0.0, 0.999))
    return v, nu, eps, h, fraction


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(fitted_flow_problems())
def test_fitted_flow_is_nonnegative_conservative_and_gibbs_stationary(problem):
    v, nu, eps, h, fraction = problem
    _, max_exit = _fitted_rates(v, eps, h)
    step = fraction * MAX_SUBSTEPS / (2.0 * max_exit)
    after = fokker_planck_flow(nu, v, eps, h, step)
    assert np.min(after) >= 0.0
    mass = np.sum(nu, axis=(1, 2))
    assert np.all(np.abs(np.sum(after, axis=(1, 2)) - mass) <= 1e-12 * mass)
    gibbs = np.exp(-(v - np.min(v, axis=(1, 2), keepdims=True)) / eps)
    moved = fokker_planck_flow(gibbs, v, eps, h, step) - gibbs
    assert np.max(np.abs(moved)) <= 1e-12 * np.max(gibbs)
    with pytest.raises(PositivityError, match="the cap is 1024"):
        fokker_planck_flow(nu, v, eps, h, 1.001 * MAX_SUBSTEPS / (2.0 * max_exit))


class TestLangevin:
    def test_zero_step_is_identity(self):
        config = make_config(n=4, nt=5)
        rng = rng_for(config.seed, "langevin-test")
        pts = sample_prior(config.potential, 2, 64, rng)
        path = ControlPath.constant(config.grid, ParticleMeasure(pts))
        out = langevin_descent_step(config, path, 0.0, rng)
        # h = 0 applies no drift and sqrt(2 eps h) = 0 noise
        for before, after in zip(path.measures, out.path.measures):
            assert np.array_equal(before.points, after.points)

    def test_sample_prior_moments(self):
        config = make_config(n=4)
        rng = rng_for(7, "prior-sampling")
        pts = sample_prior(config.potential, 2, 40000, rng)
        pm = ParticleMeasure(pts)
        prior = make_prior(config, res=128)
        for k in (2, 4):
            grid_val = moment(prior.measure, k)
            mc_val = moment(pm, k)
            se = np.std(np.sum(pts**2, axis=1) ** (k / 2)) / math.sqrt(pts.shape[0])
            assert abs(mc_val - grid_val) < 4 * se, (k, mc_val, grid_val)

    def test_flat_coupling_reaches_prior_equilibrium(self):
        # labels equal features: the adjoint vanishes and particles follow
        # plain Langevin for the prior
        config = make_config(n=4, nt=5, zero_problem=True)
        rng = rng_for(config.seed, "langevin-equilibrium")
        m = 2000
        pts = sample_prior(config.potential, 2, m, rng)
        path = ControlPath.constant(config.grid, ParticleMeasure(pts))
        h = 0.01
        resampled = 0
        for _ in range(400):
            out = langevin_descent_step(config, path, h, rng)
            path = out.path
            resampled += out.resampled
        assert resampled == 0
        prior = make_prior(config, res=128)
        want = moment(prior.measure, 2)
        pooled = np.concatenate([mm.points for mm in path.measures], axis=0)
        r2 = np.sum(pooled**2, axis=1)
        se = np.std(r2) / math.sqrt(pooled.shape[0])
        assert abs(float(np.mean(r2)) - want) < 3 * se + 0.02 * want

    def test_determinism(self):
        config = make_config(n=4, nt=5)
        pts = sample_prior(config.potential, 2, 32, rng_for(config.seed, "init"))
        path = ControlPath.constant(config.grid, ParticleMeasure(pts))
        outs = []
        for _ in range(2):
            rng = rng_for(config.seed, "langevin-determinism")
            out = langevin_descent_step(config, path, 1e-2, rng)
            outs.append(out.path.measures[0].points)
        assert np.array_equal(outs[0], outs[1])


class TestFixedPointCharacterization:
    def test_fisher_vanishes_with_tolerance(self):
        # residual <= tol forces the dissipation down with it; the measured
        # comparison constant is reported through the assertion bound
        config = make_config(n=32, nt=17)
        path, _ = prior_path(config)
        tols = (1e-4, 1e-5, 1e-6, 1e-7, 1e-8)
        fishers = []
        for tol in tols:
            result = picard_solve(config, path, tol=tol, max_iters=300)
            assert result.converged
            fishers.append(result.report.fisher)
        assert all(f >= 0 for f in fishers)
        # monotone trend (allowing equal values once converged deep)
        assert fishers[-1] <= fishers[0]
        assert fishers[-1] <= 1e-6 * config.epsilon**2
        ratios = [
            f / (config.epsilon**2 * tol) for f, tol in zip(fishers, tols)
        ]
        assert max(ratios) < 1e3, ratios


class TestRidgeOuterWeightFamily:
    """The three-parameter family stays supported end to end."""

    @staticmethod
    def _config(zero_problem=False):
        from mfoc.model import (
            RIDGE_OUTER,
            ActivationField,
            ConfinementPotential,
            ProblemConfig,
            TerminalLoss,
            TimeGrid,
        )
        from conftest import make_dataset

        return ProblemConfig(
            epsilon=0.5,
            field=ActivationField(family=RIDGE_OUTER),
            potential=ConfinementPotential(),
            loss=TerminalLoss(),
            dataset=make_dataset(n=8, seed=3, zero_problem=zero_problem),
            grid=TimeGrid(0.0, 1.0, 9),
            seed=3,
        )

    def test_zero_problem_grid_solve(self):
        from mfoc.measures import PriorMeasure

        config = self._config(zero_problem=True)
        prior = PriorMeasure.build(config.potential, 4.0, 20, 3)
        path = ControlPath.constant(config.grid, prior.measure)
        result = picard_solve(config, path, tol=1e-10)
        assert result.converged and result.iterations <= 1
        assert abs(result.report.cost) < 1e-10

    def test_generic_grid_solve_converges(self):
        from mfoc.measures import PriorMeasure

        config = self._config()
        prior = PriorMeasure.build(config.potential, 4.0, 20, 3)
        path = ControlPath.constant(config.grid, prior.measure)
        result = picard_solve(config, path, tol=1e-8, max_iters=200)
        assert result.converged
        assert result.report.fisher < 1e-6 * config.epsilon**2

    def test_langevin_steps_run_deterministically(self):
        config = self._config()
        rng = rng_for(config.seed, "ridge-langevin")
        pts = sample_prior(config.potential, 3, 200, rng)
        path = ControlPath.constant(config.grid, ParticleMeasure(pts))
        out = langevin_descent_step(config, path, 1e-2, rng)
        assert out.resampled == 0
        for nu in out.path.measures:
            assert np.all(np.isfinite(nu.points))
