import io
import math

import numpy as np
import pytest

from mfoc.measures import (
    AdmissibilityError,
    ControlPath,
    DegenerateMeasureError,
    GridMeasure,
    ParticleMeasure,
    PerturbationPath,
    PriorMeasure,
    fisher_divergence,
    measure_to_csv,
    moment,
    normalize,
    path_entropy,
    pinsker_check,
    prior_tail_mass,
    relative_entropy,
)
from mfoc.model import ConfinementPotential, TimeGrid
from conftest import gaussian_grid, make_config, make_prior, prior_path


POT = ConfinementPotential()


def prior_2d(res=64, halfwidth=4.0):
    return PriorMeasure.build(POT, halfwidth, res, 2)


class TestNormalize:
    def test_mass_one(self):
        m = GridMeasure(4.0, 32, np.abs(np.random.default_rng(1).random((32, 32))))
        out, _ = normalize(m)
        assert abs(out.mass() - 1.0) < 1e-12

    def test_already_normalized_unchanged(self):
        out, _ = normalize(prior_2d().measure)
        again, log_z = normalize(out)
        assert np.max(np.abs(again.values - out.values)) < 1e-15
        assert abs(log_z) < 1e-12

    def test_uniform_rescale(self):
        vol = 8.0**2
        m = GridMeasure(4.0, 16, np.full((16, 16), 2.0 / vol))
        out, log_z = normalize(m)
        assert np.allclose(out.values, 1.0 / vol)
        assert log_z == pytest.approx(math.log(2.0), abs=1e-12)

    def test_log_normalizer_matches_refined_quadrature(self):
        # oracle: z_infinity from a 4x refined grid
        coarse = prior_2d(res=64)
        fine = prior_2d(res=256)
        assert abs(coarse.log_z - fine.log_z) < 1e-8

    def test_zero_mass_rejected(self):
        with pytest.raises(DegenerateMeasureError):
            normalize(GridMeasure(4.0, 8, np.zeros((8, 8))))

    def test_tilt_matches_hand_built_form(self):
        nu = prior_2d(res=16).measure
        values = nu.values.copy()
        values[:3] = 0.0  # floored cells
        nu = nu.with_values(values)
        weight = 0.3 * np.cos(nu.midpoints()[:, 0]) - nu.midpoints() @ [0.2, -0.4]
        hand = (np.log(np.maximum(values, 1e-300)).ravel() + weight).reshape(values.shape)
        want = GridMeasure.from_log_values(nu.halfwidth, nu.res, hand)
        assert np.array_equal(nu.tilted(weight).values, want.values)
        assert np.all(want.values[:3] < 1e-290)


class TestRelativeEntropy:
    def test_self_entropy_zero(self):
        nu = prior_2d().measure
        assert relative_entropy(nu, nu) == 0.0

    def test_half_box_versus_full_box(self):
        res = 64
        full = GridMeasure(4.0, res, np.full(res, 1.0 / 8.0))
        half_vals = np.zeros(res)
        half_vals[: res // 2] = 1.0 / 4.0  # uniform on the left half
        half = GridMeasure(4.0, res, half_vals)
        assert relative_entropy(half, full) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_gaussian_closed_form(self):
        # E(N(m, s^2) | N(0, s^2)) = m^2 / (2 s^2), cross-checked on a
        # refined grid
        for res in (256, 1024):
            mu = gaussian_grid(6.0, res, 0.3, 0.5)
            nu = gaussian_grid(6.0, res, 0.0, 0.5)
            got = relative_entropy(mu, nu)
            assert got == pytest.approx(0.18, abs=1e-6)

    def test_support_violation_is_inf(self):
        res = 32
        full = GridMeasure(4.0, res, np.full(res, 1.0 / 8.0))
        half_vals = np.zeros(res)
        half_vals[: res // 2] = 1.0 / 4.0
        half = GridMeasure(4.0, res, half_vals)
        assert math.isinf(relative_entropy(full, half))

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(2)
        nu = prior_2d(res=32).measure
        for _ in range(20):
            tilt = np.exp(0.3 * rng.standard_normal((32, 32)))
            mu, _ = normalize(nu.with_values(nu.values * tilt))
            e = relative_entropy(mu, nu)
            assert e >= 0.0
            if np.max(np.abs(mu.values - nu.values)) < 1e-12:
                assert e < 1e-12


class TestFisherDivergence:
    def test_self_zero(self):
        nu = prior_2d().measure
        assert fisher_divergence(nu, nu) == 0.0

    def test_gaussian_closed_form(self):
        # |grad log(mu/nu)| = m / s^2 constant, so the value is m^2 / s^4
        m, s = 0.4, 0.8
        for res in (256, 1024):
            mu = gaussian_grid(8.0, res, m, s)
            nu = gaussian_grid(8.0, res, 0.0, s)
            got = fisher_divergence(mu, nu)
            assert got == pytest.approx(m**2 / s**4, rel=1e-6)

    def test_linear_tilt_of_gibbs(self):
        # nu = exp(-ell)/z against exp(-ell - beta . a)/z: the log ratio is
        # linear with slope beta, so the divergence is |beta|^2 up to tail
        # terms; oracle refines the grid
        beta = np.array([0.35, -0.2])
        res = 64
        prior = prior_2d(res=res)
        mids = prior.measure.midpoints()
        tilted = GridMeasure.from_log_values(
            4.0,
            res,
            (-POT.value(mids) - mids @ beta).reshape(res, res),
        )
        got = fisher_divergence(tilted, prior.measure)
        fine_prior = prior_2d(res=256)
        fine_mids = fine_prior.measure.midpoints()
        fine_tilt = GridMeasure.from_log_values(
            4.0,
            256,
            (-POT.value(fine_mids) - fine_mids @ beta).reshape(256, 256),
        )
        fine = fisher_divergence(fine_tilt, fine_prior.measure)
        assert got == pytest.approx(float(beta @ beta), rel=1e-3)
        assert got == pytest.approx(fine, rel=1e-4)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        nu = prior_2d(res=32).measure
        for _ in range(20):
            tilt = np.exp(0.2 * rng.standard_normal((32, 32)))
            mu, _ = normalize(nu.with_values(nu.values * tilt))
            assert fisher_divergence(mu, nu) >= 0.0


class TestPathEntropy:
    def test_prior_path_zero(self):
        config = make_config(n=4, nt=9)
        path, prior = prior_path(config, res=32)
        assert path_entropy(path, prior) == 0.0

    def test_constant_path_linearity(self):
        config = make_config(n=4, nt=9)
        prior = make_prior(config, res=32)
        mu = gaussian_grid(4.0, 32, 0.2, 0.7)
        mu2d, _ = normalize(
            GridMeasure(4.0, 32, np.outer(mu.values, mu.values))
        )
        path = ControlPath.constant(config.grid, mu2d)
        e = relative_entropy(mu2d, prior.measure)
        horizon = config.grid.horizon - config.grid.t0
        assert path_entropy(path, prior) == pytest.approx(horizon * e, rel=1e-12)

    def test_time_refinement_consistency(self):
        # halved-dt oracle: left-endpoint sums of a smoothly varying path
        # agree to O(dt)
        def build(nt):
            grid = TimeGrid(0.0, 1.0, nt)
            prior = prior_2d(res=32)
            measures = []
            for t in grid.nodes:
                mids = prior.measure.midpoints()
                lv = (-POT.value(mids) - 0.4 * math.sin(2 * t) * mids[:, 0]).reshape(
                    32, 32
                )
                measures.append(GridMeasure.from_log_values(4.0, 32, lv))
            return ControlPath(grid, tuple(measures)), prior

        coarse, prior = build(17)
        fine, _ = build(33)
        e_coarse = path_entropy(coarse, prior)
        e_fine = path_entropy(fine, prior)
        assert abs(e_coarse - e_fine) < 0.6 / 16  # O(dt)


class TestMoments:
    def test_point_mass_at_origin(self):
        pm = ParticleMeasure(np.zeros((1, 2)))
        assert moment(pm, 1) == 0.0

    def test_first_absolute_moment_positive_for_symmetric(self):
        nu = prior_2d(res=128).measure
        m1 = moment(nu, 1)
        fine = moment(prior_2d(res=512).measure, 1)
        assert m1 > 0.5  # |a| is even, no cancellation
        assert m1 == pytest.approx(fine, rel=1e-4)

    def test_fourth_moment_matches_refined_quadrature(self):
        coarse = moment(prior_2d(res=64).measure, 4)
        fine = moment(prior_2d(res=512).measure, 4)
        assert math.isfinite(coarse)
        assert coarse == pytest.approx(fine, rel=1e-6)

    def test_moment_entropy_comparison(self):
        # fourth-moment path integral stays controlled by 1 + path entropy
        config = make_config(n=4, nt=9)
        prior = make_prior(config, res=48)
        rng = np.random.default_rng(7)
        ratios = []
        for _ in range(25):
            beta = rng.uniform(-1.0, 1.0, 2)
            mids = prior.measure.midpoints()
            lv = (-POT.value(mids) - mids @ beta).reshape(48, 48)
            mu = GridMeasure.from_log_values(4.0, 48, lv)
            path = ControlPath.constant(config.grid, mu)
            ent = path_entropy(path, prior)
            horizon = config.grid.horizon - config.grid.t0
            m4 = sum(
                moment(path.measures[k], 4) * config.grid.dt
                for k in range(config.grid.nt - 1)
            )
            ratios.append(m4 / (1.0 + ent))
        assert np.all(np.isfinite(ratios))
        assert max(ratios) < 50.0


class TestPinsker:
    def test_equal_measures(self):
        nu = prior_2d(res=32).measure
        report = pinsker_check(nu, nu, k=0)
        assert report.lhs == 0.0
        assert report.holds

    def test_classical_pinsker_shape(self):
        mu = gaussian_grid(6.0, 256, 0.5, 0.7)
        nu = gaussian_grid(6.0, 256, 0.0, 0.7)
        mu, _ = normalize(mu)
        nu, _ = normalize(nu)
        report = pinsker_check(mu, nu, k=0, scale=0.25)
        # lhs = half the L1 distance; classical Pinsker gives sqrt(2 E)
        ent = relative_entropy(mu, nu)
        assert report.lhs <= 0.5 * math.sqrt(2.0 * ent) + 1e-12
        assert report.holds

    def test_random_gibbs_pairs_hold(self):
        rng = np.random.default_rng(13)
        prior = prior_2d(res=48)
        mids = prior.measure.midpoints()
        for _ in range(100):
            k = int(rng.integers(0, 3))
            b1 = rng.uniform(-0.8, 0.8, 2)
            b2 = rng.uniform(-0.8, 0.8, 2)
            c1 = rng.uniform(0.0, 0.5)
            mu = GridMeasure.from_log_values(
                4.0, 48, (-POT.value(mids) - mids @ b1).reshape(48, 48)
            )
            nu = GridMeasure.from_log_values(
                4.0,
                48,
                (-POT.value(mids) - mids @ b2 - c1 * np.cos(mids[:, 0])).reshape(
                    48, 48
                ),
            )
            report = pinsker_check(mu, nu, k=k)
            assert report.holds, (k, b1, b2, c1)


class TestPerturbationPath:
    def test_zero_mass_enforced(self):
        grid = TimeGrid(0.0, 1.0, 3)
        values = np.ones((3, 8, 8))
        with pytest.raises(AdmissibilityError):
            PerturbationPath(grid, 4.0, 8, values)

    def test_balanced_ok(self):
        grid = TimeGrid(0.0, 1.0, 3)
        values = np.zeros((3, 8, 8))
        values[:, 0, 0] = 1.0
        values[:, -1, -1] = -1.0
        eta = PerturbationPath(grid, 4.0, 8, values)
        assert eta.dprime == 2


class TestPriorMeasure:
    def test_tail_mass_below_threshold(self):
        assert prior_tail_mass(POT, 4.0, 2) < 1e-10

    def test_too_small_box_rejected(self):
        from mfoc.model import ConfigError

        with pytest.raises(ConfigError):
            PriorMeasure.build(POT, 1.0, 16, 2)

    def test_proportionality_exact_at_midpoints(self):
        prior = prior_2d(res=32)
        mids = prior.measure.midpoints()
        log_density = np.log(prior.measure.values.ravel())
        residual = log_density + POT.value(mids) + prior.log_z
        assert np.max(np.abs(residual)) < 1e-10
        assert abs(prior.measure.mass() - 1.0) < 1e-12


def reference_measure_csv(coords, last, header):
    """Row-by-row CSV that ``measure_to_csv`` must reproduce byte for byte."""
    lines = [header]
    for row, v in zip(coords, last):
        lines.append(",".join(format(float(x), ".17g") for x in (*row, v)))
    return "\n".join(lines) + "\n"


class TestCsvExport:
    def test_grid_rows(self):
        nu = prior_2d(res=4).measure
        buf = io.StringIO()
        measure_to_csv(nu, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "a0,a1,value"
        assert len(lines) == 1 + 16

    def test_particle_rows(self):
        pm = ParticleMeasure(np.arange(6.0).reshape(3, 2))
        buf = io.StringIO()
        measure_to_csv(pm, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "a0,a1,weight"
        assert len(lines) == 4

    def test_desk_node_matches_reference(self, desk_solution):
        _, _, result = desk_solution
        nu = result.path.measures[32]
        assert nu.values.shape == (64, 64) and nu.values.min() < 1e-100
        buf = io.StringIO()
        measure_to_csv(nu, buf)
        assert buf.getvalue() == reference_measure_csv(
            nu.midpoints(), nu.values.ravel(), "a0,a1,value"
        )

    def test_particles_match_reference(self):
        points = np.random.default_rng(5).normal(scale=3.0, size=(7, 3))
        points[0] = [-0.0, -1e-5, -12345.678]
        pm = ParticleMeasure(points)
        buf = io.StringIO()
        measure_to_csv(pm, buf)
        text = buf.getvalue()
        assert text == reference_measure_csv(points, [1.0 / 7] * 7, "a0,a1,a2,weight")
        assert "\n-0,-1.0000000000000001e-05,-12345.678,0.14285714285714285\n" in text


class TestEntropyReformulation:
    def test_splits_into_confinement_and_lebesgue_parts(self):
        # E(mu | prior) = int log(mu) dmu + int ell dmu + log z, with z the
        # prior normalizer; checked on random tilts of the prior
        prior = prior_2d(res=64)
        mids = prior.measure.midpoints()
        vol = prior.measure.cell_volume
        rng = np.random.default_rng(61)
        for _ in range(10):
            beta = rng.uniform(-0.6, 0.6, 2)
            mu = GridMeasure.from_log_values(
                4.0, 64, (-POT.value(mids) - mids @ beta).reshape(64, 64)
            )
            direct = relative_entropy(mu, prior.measure)
            vals = mu.values.ravel()
            log_mu = np.log(np.maximum(vals, 1e-300))
            split = (
                float(np.sum(vals * log_mu)) * vol
                + float(np.sum(vals * POT.value(mids))) * vol
                + prior.log_z
            )
            assert direct == pytest.approx(split, abs=1e-10)
