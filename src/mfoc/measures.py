"""Probability measures on the parameter space with two backends.

``GridMeasure`` samples a density at the midpoints of a uniform tensor grid
over a centered box; ``ParticleMeasure`` is a uniform empirical measure.
Relative entropies, Fisher divergences and the weighted Pinsker bound are
grid-only; moments and CSV export work on both backends.

Densities are floored at 1e-300 inside logarithms so near-zero tails never
produce -inf; all reductions are plain numpy sums (fixed, deterministic
order).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import csvtext
from .model import ConfigError, ConfinementPotential, TimeGrid

LOG_FLOOR = 1e-300
PRIOR_TAIL_TOL = 1e-10


class DegenerateMeasureError(ValueError):
    """Raised when a grid density has zero or non-finite total mass."""


class AdmissibilityError(ValueError):
    """Raised when a signed perturbation fails the zero-mass requirement."""


def _logsumexp(values: np.ndarray) -> float:
    m = np.max(values)
    if not np.isfinite(m):
        return float(m)
    return float(m + np.log(np.sum(np.exp(values - m))))


@dataclass(frozen=True)
class GridMeasure:
    """Nonnegative density sampled at cell midpoints of [-halfwidth, halfwidth]^dprime."""

    halfwidth: float
    res: int
    values: np.ndarray  # shape (res,) * dprime

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim < 1 or any(s != self.res for s in v.shape):
            raise ConfigError("grid values must have shape (res,) * dprime")
        if np.any(v < 0.0) or not np.all(np.isfinite(v)):
            raise DegenerateMeasureError("grid density must be finite and >= 0")
        object.__setattr__(self, "values", v)

    @property
    def dprime(self) -> int:
        return self.values.ndim

    @property
    def cell_width(self) -> float:
        return 2.0 * self.halfwidth / self.res

    @property
    def cell_volume(self) -> float:
        return self.cell_width**self.dprime

    @property
    def axis(self) -> np.ndarray:
        h = self.cell_width
        return -self.halfwidth + h * (np.arange(self.res) + 0.5)

    def midpoints(self) -> np.ndarray:
        """All cell midpoints, shape (res**dprime, dprime)."""
        grids = np.meshgrid(*([self.axis] * self.dprime), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    def mass(self) -> float:
        return float(np.sum(self.values)) * self.cell_volume

    def with_values(self, values: np.ndarray) -> "GridMeasure":
        return GridMeasure(self.halfwidth, self.res, values)

    def same_geometry(self, other) -> bool:
        """Whether ``other``, a grid measure or a perturbation path, lives on
        this box at this resolution and dimension."""
        return (
            self.res == other.res
            and self.dprime == other.dprime
            and math.isclose(self.halfwidth, other.halfwidth, rel_tol=1e-12)
        )

    @classmethod
    def from_log_values(cls, halfwidth, res, log_values) -> "GridMeasure":
        """Normalized measure from unnormalized log-density samples."""
        lv = np.asarray(log_values, dtype=float)
        dprime = lv.ndim
        log_mass = _logsumexp(lv.ravel()) + dprime * math.log(2.0 * halfwidth / res)
        return cls(halfwidth, res, np.exp(lv - log_mass))

    def tilted(self, log_weight) -> "GridMeasure":
        """The normalized measure of density proportional to this one's,
        floored at ``LOG_FLOOR``, times ``exp(log_weight)``; one weight per
        cell, in the order of ``midpoints``."""
        log_values = np.log(np.maximum(self.values, LOG_FLOOR))
        return GridMeasure.from_log_values(
            self.halfwidth, self.res, log_values + np.reshape(log_weight, self.values.shape)
        )


@dataclass(frozen=True)
class ParticleMeasure:
    """Uniformly weighted empirical measure on parameter space."""

    points: np.ndarray  # (M, dprime)

    def __post_init__(self):
        p = np.atleast_2d(np.asarray(self.points, dtype=float))
        if p.shape[0] < 1:
            raise ConfigError("particle measure needs at least one point")
        if not np.all(np.isfinite(p)):
            raise ConfigError("particle positions must be finite")
        object.__setattr__(self, "points", p)

    @property
    def m(self) -> int:
        return self.points.shape[0]

    @property
    def dprime(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class ControlPath:
    """Time-indexed family of measures, one per node of the time grid.

    The time convention is piecewise-constant on [tau_k, tau_{k+1}) using the
    left node, and every time integral in the package uses the matching
    left-endpoint rule.
    """

    grid: TimeGrid
    measures: tuple

    def __post_init__(self):
        ms = tuple(self.measures)
        if len(ms) != self.grid.nt:
            raise ConfigError("need exactly one measure per time node")
        first = ms[0]
        if isinstance(first, GridMeasure):
            if not all(
                isinstance(m, GridMeasure) and first.same_geometry(m) for m in ms
            ):
                raise ConfigError("grid path requires a shared box and resolution")
        elif isinstance(first, ParticleMeasure):
            if not all(isinstance(m, ParticleMeasure) for m in ms):
                raise ConfigError("path measures must share a backend")
        else:
            raise ConfigError(f"unsupported measure type {type(first).__name__}")
        object.__setattr__(self, "measures", ms)

    @property
    def is_grid(self) -> bool:
        return isinstance(self.measures[0], GridMeasure)

    def replace_measures(self, measures: Iterable) -> "ControlPath":
        return ControlPath(self.grid, tuple(measures))

    @classmethod
    def constant(cls, grid: TimeGrid, measure) -> "ControlPath":
        return cls(grid, (measure,) * grid.nt)


@dataclass(frozen=True)
class PerturbationPath:
    """Signed grid perturbation with zero mass at every node.

    ``values`` has shape (nt,) + (res,) * dprime; node masses must vanish to
    1e-10 relative to the total variation (exactly zero-mass directions in
    the linearized problem).
    """

    grid: TimeGrid
    halfwidth: float
    res: int
    values: np.ndarray

    MASS_TOL = 1e-10

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape[0] != self.grid.nt:
            raise ConfigError("need one signed layer per time node")
        cell_vol = (2.0 * self.halfwidth / self.res) ** (v.ndim - 1)
        masses = np.sum(abs(v).reshape(self.grid.nt, -1), axis=1) * cell_vol
        net = np.sum(v.reshape(self.grid.nt, -1), axis=1) * cell_vol
        scale = max(float(np.max(masses)), 1.0)
        if np.any(abs(net) > self.MASS_TOL * scale):
            raise AdmissibilityError(
                f"perturbation node mass {np.max(abs(net)):.3e} exceeds tolerance"
            )
        object.__setattr__(self, "values", v)

    @property
    def dprime(self) -> int:
        return self.values.ndim - 1

    @property
    def cell_volume(self) -> float:
        return (2.0 * self.halfwidth / self.res) ** self.dprime

    def node(self, k: int) -> np.ndarray:
        return self.values[k]

    def scaled(self, factor: float) -> "PerturbationPath":
        return PerturbationPath(
            self.grid, self.halfwidth, self.res, factor * self.values
        )


@dataclass(frozen=True)
class PriorMeasure:
    """Gibbs prior with density proportional to exp(-ell) on the grid box."""

    measure: GridMeasure
    log_z: float
    potential: ConfinementPotential

    @classmethod
    def build(cls, potential, halfwidth, res, dprime):
        check_prior_box(potential, halfwidth, dprime)
        probe = GridMeasure(halfwidth, res, np.zeros((res,) * dprime))
        log_unnorm = -potential.value(probe.midpoints()).reshape((res,) * dprime)
        measure = GridMeasure.from_log_values(halfwidth, res, log_unnorm)
        log_z = _logsumexp(log_unnorm.ravel()) + dprime * math.log(probe.cell_width)
        return cls(measure, log_z, potential)


def check_prior_box(potential, halfwidth, dprime):
    """Raise ``ConfigError`` unless the box of the given halfwidth leaves at
    most ``PRIOR_TAIL_TOL`` of the prior's mass outside."""
    tail = prior_tail_mass(potential, halfwidth, dprime)
    if not tail <= PRIOR_TAIL_TOL:
        raise ConfigError(
            f"box halfwidth {halfwidth} leaves prior tail mass {tail:.2e} "
            f"above {PRIOR_TAIL_TOL:.0e}; enlarge the box"
        )


@functools.lru_cache(maxsize=8)
@np.errstate(over="ignore")  # exp(-inf) = 0 is the tail of a huge coefficient
def prior_tail_mass(potential, halfwidth, dprime, radial_points=20000) -> float:
    """Relative mass of exp(-ell) outside the box, via the radial tail.

    The box contains the ball of radius `halfwidth`, so a radial quadrature
    of the quartic tail bounds the truncated mass from above. Memoized: a
    run checks its box on loading and builds its priors on the same box.
    """
    surface = 2.0 * math.pi ** (dprime / 2.0) / math.gamma(dprime / 2.0)
    r_out = np.linspace(halfwidth, halfwidth + 8.0, radial_points)
    dens_out = r_out ** (dprime - 1) * np.exp(
        -potential.c1 * r_out**4 - potential.c2 * r_out**2
    )
    tail = surface * np.trapezoid(dens_out, r_out)
    r_all = np.linspace(0.0, halfwidth + 8.0, 4 * radial_points)
    dens_all = r_all ** (dprime - 1) * np.exp(
        -potential.c1 * r_all**4 - potential.c2 * r_all**2
    )
    total = surface * np.trapezoid(dens_all, r_all)
    if not total > 0.0:
        raise ConfigError("the potential leaves the prior exp(-ell) no mass in double precision")
    return float(tail / total)


# -- operations ----------------------------------------------------------------


def normalize(m: GridMeasure):
    """Scale to unit mass; returns (measure, log-normalizer)."""
    log_vals = np.log(np.maximum(m.values, LOG_FLOOR))
    log_mass = _logsumexp(log_vals.ravel()) + m.dprime * math.log(m.cell_width)
    if not np.isfinite(log_mass) or m.mass() <= 0.0:
        raise DegenerateMeasureError("cannot normalize zero or non-finite mass")
    return m.with_values(m.values * math.exp(-log_mass)), log_mass


def relative_entropy(mu: GridMeasure, nu: GridMeasure) -> float:
    """E(mu | nu) = sum mu log(mu/nu) dv; +inf when support fails."""
    if not mu.same_geometry(nu):
        raise ConfigError("relative entropy requires a shared grid")
    p = mu.values
    q = nu.values
    active = p > LOG_FLOOR
    if np.any(active & (q <= LOG_FLOOR)):
        return math.inf
    logp = np.log(np.maximum(p, LOG_FLOOR))
    logq = np.log(np.maximum(q, LOG_FLOOR))
    return float(np.sum(p[active] * (logp[active] - logq[active]))) * mu.cell_volume


def _log_ratio_gradient(mu: GridMeasure, nu: GridMeasure):
    log_ratio = np.log(np.maximum(mu.values, LOG_FLOOR)) - np.log(
        np.maximum(nu.values, LOG_FLOOR)
    )
    if mu.dprime == 1:
        return [np.gradient(log_ratio, mu.cell_width)]
    return np.gradient(log_ratio, mu.cell_width)


def fisher_divergence(mu: GridMeasure, nu: GridMeasure) -> float:
    """int |grad log(mu/nu)|^2 dmu, central differences, one-sided at faces."""
    if not mu.same_geometry(nu):
        raise ConfigError("fisher divergence requires a shared grid")
    active = mu.values > LOG_FLOOR
    if np.any(active & (nu.values <= LOG_FLOOR)):
        return math.inf
    grads = _log_ratio_gradient(mu, nu)
    sq = np.zeros_like(mu.values)
    for g in grads:
        sq += g * g
    return float(np.sum(sq * mu.values)) * mu.cell_volume


def path_entropy(path: ControlPath, prior: PriorMeasure) -> float:
    """Left-endpoint time sum of E(nu_t | prior) over the path."""
    if not path.is_grid:
        raise ConfigError("path entropy requires the grid backend")
    dt = path.grid.dt
    total = 0.0
    for k in range(path.grid.nt - 1):
        e = relative_entropy(path.measures[k], prior.measure)
        if math.isinf(e):
            return math.inf
        total += e * dt
    return total


def moment(m, k: int) -> float:
    """int |a|^k dm for k in {1, 2, 3, 4}, either backend."""
    if k not in (1, 2, 3, 4):
        raise ConfigError("moment order must be in {1, 2, 3, 4}")
    if isinstance(m, GridMeasure):
        r = np.sqrt(np.sum(m.midpoints() ** 2, axis=1))
        return float(np.sum(r**k * m.values.ravel())) * m.cell_volume
    if isinstance(m, ParticleMeasure):
        r = np.sqrt(np.sum(m.points**2, axis=1))
        return float(np.mean(r**k))
    raise ConfigError(f"unsupported measure type {type(m).__name__}")


@dataclass(frozen=True)
class PinskerReport:
    lhs: float
    rhs: float
    holds: bool
    vacuous: bool


def pinsker_check(
    mu: GridMeasure, nu: GridMeasure, k: int = 0, scale: float = 0.25
) -> PinskerReport:
    """Weighted total-variation bound through the relative entropy.

    lhs = || phi (mu - nu) ||_TV with phi(a) = scale (1 + |a|^k); the bound is
    (3/2 + log int e^{2 phi} dnu) (sqrt(E) + E/2) with E = E(mu | nu).
    """
    if k not in (0, 1, 2):
        raise ConfigError("weight exponent must be in {0, 1, 2}")
    if not mu.same_geometry(nu):
        raise ConfigError("pinsker check requires a shared grid")
    r = np.sqrt(np.sum(mu.midpoints() ** 2, axis=1))
    phi = scale * (1.0 + r**k)
    lhs = float(np.sum(phi * abs(mu.values - nu.values).ravel())) * mu.cell_volume
    ent = relative_entropy(mu, nu)
    log_expint = _logsumexp(
        2.0 * phi + np.log(np.maximum(nu.values.ravel(), LOG_FLOOR))
    ) + mu.dprime * math.log(mu.cell_width)
    vacuous = not np.isfinite(log_expint)
    if math.isinf(ent) or vacuous:
        return PinskerReport(lhs, math.inf, True, True)
    rhs = (1.5 + log_expint) * (math.sqrt(ent) + 0.5 * ent)
    return PinskerReport(lhs, rhs, lhs <= rhs * (1.0 + 1e-9), False)


# -- CSV export ----------------------------------------------------------------


def measure_to_csv(m, stream) -> None:
    """One row per cell midpoint / particle: coordinates then value / weight."""
    if isinstance(m, GridMeasure):
        name, coords, last = "value", m.midpoints(), m.values.ravel()
    elif isinstance(m, ParticleMeasure):
        name, coords, last = "weight", m.points, np.full(m.m, 1.0 / m.m)
    else:
        raise ConfigError(f"unsupported measure type {type(m).__name__}")
    stream.write(",".join(f"a{i}" for i in range(m.dprime)) + f",{name}\n")
    table = csvtext.rows([csvtext.fields(c) for c in (*coords.T, last)])
    stream.write(csvtext.compact(table).decode("ascii"))
