"""Problem primitives: activation field, confinement potential, terminal loss,
dataset, time grid, the global problem configuration and the keys of the run
document that describes it.

Conventions used throughout the package:

* feature points ``x`` and labels ``y`` are scalars (d1 = d2 = 1); a batch
  of n features or labels is an (n, 1) array,
* network parameters ``a`` live in R^{dprime} (3 or 2, by field family),
* ``b(x, a)`` is the parameterized velocity field, linear-in-``a`` growth,
* ``ell(a) = c1|a|^4 + c2|a|^2`` is the confinement potential of the prior.

All types are immutable after construction and their evaluation methods are
pure, so they are safe to share across threads.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

RIDGE_OUTER = "ridge-with-outer-weight"
COMPONENTWISE = "componentwise-ridge"


class ConfigError(ValueError):
    """Raised for inconsistent or malformed problem configuration."""


def _tanh_tiers(t, s1=None, s2=None):
    """tanh and its first two derivatives, written in place: ``t`` holds the
    pre-activation on entry; s1 and s2 are filled when given, each over the
    leading columns it holds (no more than the tier before it)."""
    np.tanh(t, out=t)
    if s1 is not None:
        t1 = t[..., : s1.shape[-1]]
        np.multiply(t1, t1, out=s1)
        np.subtract(1.0, s1, out=s1)
    if s2 is not None:
        p = s2.shape[-1]
        np.multiply(t[..., :p], -2.0, out=s2)
        s2 *= s1[..., :p]


def _logistic_tiers(t, s1=None, s2=None):
    """Logistic sigmoid and its derivatives, in place like ``_tanh_tiers``."""
    np.negative(t, out=t)
    np.exp(t, out=t)
    t += 1.0
    np.divide(1.0, t, out=t)
    if s1 is not None:
        t1 = t[..., : s1.shape[-1]]
        np.subtract(1.0, t1, out=s1)
        s1 *= t1
    if s2 is not None:
        p = s2.shape[-1]
        np.multiply(t[..., :p], 2.0, out=s2)
        np.subtract(1.0, s2, out=s2)
        s2 *= s1[..., :p]


_SIGMAS = {"tanh": _tanh_tiers, "logistic": _logistic_tiers}


@dataclass(frozen=True)
class ActivationField:
    """Velocity field b(x, a) on scalar features, built from a bounded activation.

    Two families are supported:

    * ``ridge-with-outer-weight``: b(x, a) = sigma(a1 x + a2) a0 with
      a = (a0, a1, a2), dprime = 3;
    * ``componentwise-ridge``: b(x, a) = sigma(a1 x + a2) with a = (a1, a2),
      dprime = 2.

    Both satisfy b(x, 0) = 0; for the componentwise family this forces
    sigma(0) = 0, so only ``tanh`` is accepted there.
    """

    family: str = COMPONENTWISE
    sigma: str = "tanh"

    def __post_init__(self):
        if self.family not in (RIDGE_OUTER, COMPONENTWISE):
            raise ConfigError(f"unknown field family {self.family!r}")
        if self.sigma not in _SIGMAS:
            raise ConfigError(f"unknown activation {self.sigma!r}")
        if self.family == COMPONENTWISE and self.sigma != "tanh":
            # sigma(0) != 0 would break b(x, 0) = 0 for this family.
            raise ConfigError(
                "componentwise-ridge requires an odd activation (tanh); "
                f"got {self.sigma!r}"
            )

    @property
    def dprime(self) -> int:
        return 3 if self.family == RIDGE_OUTER else 2

    # -- pointwise evaluation ------------------------------------------------

    def _at(self, x, a):
        """x, the outer weight (None for the componentwise family), a1, and
        sigma, sigma' at one pair, all as 1-vectors."""
        x = np.asarray(x, dtype=float).reshape(1)
        a = np.asarray(a, dtype=float).reshape(self.dprime)
        a0 = a[0:1] if self.family == RIDGE_OUTER else None
        a1, a2 = a[-2:-1], a[-1:]
        s, s1 = a1 * x + a2, np.empty(1)
        _SIGMAS[self.sigma](s, s1)
        return x, a0, a1, s, s1

    def value(self, x, a):
        _, a0, _, s, _ = self._at(x, a)
        return s if a0 is None else s * a0

    def jacobians(self, x, a):
        """Return (grad_x b, grad_a b) with shapes (1, 1) and (1, dprime)."""
        x, a0, a1, s, s1 = self._at(x, a)
        if a0 is None:
            gx, ga = s1 * a1, (s1 * x, s1)
        else:
            gx, ga = s1 * (a0 * a1), (s, s1 * (a0 * x), s1 * a0)
        return gx.reshape(1, 1), np.concatenate(ga).reshape(1, self.dprime)

    # -- batched evaluation (the Langevin step) -------------------------------

    def grad_a_batch(self, X, A, tiers, weights):
        """sum_n weights_n grad_a b(X_n, a) at every row a of A, shape (m, dprime).

        X and weights are (n, 1), A is (m, dprime) and ``tiers`` are sigma and
        sigma' (n, m) at the pairs (X_n, a), as a ``FieldQuadrature.tiers``
        call keeps them. Each parameter column is one (n, m) array summed
        against the weights, written over the tiers: no (n, m) array is
        allocated, and the tiers are spent.
        """
        s, s1 = tiers
        head = ()
        if self.family == RIDGE_OUTER:
            head = (_contract_columns((s,), weights),)
            s1 *= A[None, :, 0]  # sigma' a0
        # sigma is spent: its array takes s1 x
        tail = _contract_columns((np.multiply(s1, X, out=s), s1), weights)
        return np.hstack(head + (tail,))


def _preactivation(x1, a12, out):
    """a1 x + a2 of the states [x, 1] (n, 2) at the cells [a1; a2] (2, p),
    written into out (n, p) by one dgemm, with the bits of an outer product
    and an add (see ``FieldQuadrature``). numpy hands a product with one row
    or one column to gemv, which rounds x a1 + a2 once; such a product runs
    with that row or column twice."""
    n, p = out.shape
    if n > 1 and p > 1:
        np.matmul(x1, a12, out=out)
        return
    x1 = x1 if n > 1 else np.repeat(x1, 2, axis=0)
    a12 = a12 if p > 1 else np.repeat(a12, 2, axis=1)
    out[...] = np.matmul(x1, a12)[:n, :p]


def _contract_columns(columns, weights):
    """Columns (n, m) of grad_a b, each summed against the (n, 1) weights."""
    return np.stack([np.einsum("nm,n->m", c, weights[:, 0]) for c in columns], axis=1)


# rows per block of a fused kernel call: 512 KiB of float64 per tier buffer
_BLOCK_CELLS = 65536
# cells per block of a Gram product (``FieldQuadrature.gram``): OpenBLAS's
# dgemm rounds a longer inner dimension differently at different thread
# counts, and blocks of this many, summed in order, round alike at all
_GRAM_CELLS = 256
# a fold-tier on a mirrored support ends after its last weight above
# _PREFIX_TOL ||w||_1 / h; the tiers are at most 1 in size, so the terms it
# drops sum to at most _PREFIX_TOL ||w||_1
_PREFIX_TOL = 2.0**-60


class Workspace:
    """Scratch buffers of one sweep and the plans of its kernel calls.

    A sweep creates one and drops it when it returns, so its buffers and
    plans live exactly as long as the sweep. Each buffer is flat and handed
    out as a (rows, cols) view of its head, so calls whose cell counts
    differ share it without reallocating. ``plans`` maps a call's layout
    (its count h of evaluated cells, state count, order, keep, first tier
    and the prefix of each fold-tier) to what the layout decides: the
    operand [x, 1], the row blocks, their buffer views and the output
    (``FieldQuadrature.tiers``). Every call of the layout reuses it, such as
    the four RK4 stages of a forward interval, or the calls of a particle
    path's nodes, whose supports differ but whose layouts agree. A plan
    holds no quadrature and no fold, so a sweep that drops a node frees its
    support, and a buffer that grows drops the plans, whose views are of the
    buffer it replaces.
    ``kept`` holds the tiers, over all states of the call and, in visiting
    order, the first ``kept_cells`` evaluated cells (all h when None, and
    never fewer than the call's prefix), of the latest call that asked to
    keep them: sigma and sigma' of a particle node call, which the Langevin
    step contracts into its parameter gradient.
    """

    def __init__(self, kept_cells: Optional[int] = None):
        self._buffers = {}
        self.kept = None
        self.kept_cells = kept_cells
        self.plans = {}

    def buffer(self, name, rows: int, cols: int) -> np.ndarray:
        size = rows * cols
        buf = self._buffers.get(name)
        if buf is None or buf.shape[0] < size:
            buf = self._buffers[name] = np.empty(size)
            self.plans.clear()  # they hold views of the buffer it replaces
        return buf[:size].reshape(rows, cols)


class FieldQuadrature:
    """Field-times-measure reductions over a fixed support point set.

    ``tiers`` evaluates the activation tiers (the activation and its first
    two derivatives at every state-support pair) at one batch of states. A
    sweep passes the weight folds (``fold``) its stage position needs and
    gets back their per-particle contractions: the states go through the
    kernel in row blocks written into the sweep's ``Workspace``, so no
    (n, m) tier array is allocated per call or held across positions, and
    what a call's layout decides is formed once per sweep. Only
    the reductions over particles (``bracket``, ``bracket_pair``), the
    field rows of Gram matrices (``rows``, ``gram``) and the Langevin
    gradient (``grad_a``, from sigma and sigma' of a backward node call)
    need a tier in full; a call writes it into the workspace on request.
    The folds carry the parameter columns in their weights, so every
    contraction is one (n, p) by (p,) product. The pre-activation a1 x + a2
    of a row block is one rank-2 product [x, 1] (rows, 2) by [a1; a2]
    (2, p), written by BLAS straight into the tier buffer
    (``_preactivation``). OpenBLAS's
    dgemm forms each entry as round(round(x a1) + 1 a2), so its bits are
    those of the outer product x a1 followed by the sum with a2. The one
    exception is the sign of an exact zero: x a1 = -0 with a2 = -0 gives +0
    where the two passes give -0, and no grid midpoint is -0. dgemm never
    splits the inner dimension 2 across threads, so the bits do not depend
    on the BLAS thread count.

    A tanh support that is its own mirror image (``support[::-1] ==
    -support`` exactly, as on a grid over a centred box whose midpoints are
    exact) is mirrored: tanh is odd, so the pre-activation, sigma and sigma''
    change sign and sigma' is unchanged between a cell and its partner. The
    kernel then evaluates only the first h = ceil(M / 2) cells, the folds
    fold their weights onto them and the particle reductions extend their h
    samples by parity. It visits those cells in order of |a|, ties by index,
    and each fold-tier keeps only the prefix of that order that carries its
    weight (see ``WeightFold``): a Gibbs density decays like exp(-ell(a)),
    so on a box sized for the prior's tail the far cells weigh nothing. A
    call evaluates each tier over the longest prefix among its fold-tiers,
    and a tier it keeps over the workspace's kept cells (all h for a
    particle reduction), and contracts each fold-tier over its own prefix,
    so a fold's contraction is bitwise the same in every call that holds
    it. Any other support has h = M, support order, no fold and no cut.
    """

    def __init__(self, field: ActivationField, support: np.ndarray):
        self.field = field
        self.support = np.atleast_2d(np.asarray(support, dtype=float))
        # the componentwise family has no outer weight a0
        ridge = field.family == RIDGE_OUTER
        self._a0 = self.support[:, 0] if ridge else None
        self._a1 = self.support[:, -2]
        m = self.support.shape[0]
        mirrored = field.sigma == "tanh" and np.array_equal(self.support[::-1], -self.support)
        # support cells the kernel evaluates; the last M - h mirror the first
        self.h = (m + 1) // 2 if mirrored else m
        # the evaluated cells in visiting order, and their columns [a1; a2]
        # (2, h), the right operand of the pre-activation product
        self._visit = None
        a12 = self.support[:, -2:].T
        if mirrored:
            head = self.support[: self.h]
            self._visit = np.argsort(np.einsum("ij,ij->i", head, head), kind="stable")
            a12 = a12[:, self._visit]
        self._a12v = np.ascontiguousarray(a12)
        # the outer weight a0 on the evaluated cells in visiting order
        self._a0v = None
        if ridge:
            self._a0v = self._a0 if self._visit is None else self._a0[: self.h][self._visit]

    def tiers(
        self,
        X,
        order: int,
        folds,
        work: Optional[Workspace] = None,
        keep: int = 0,
        drift: bool = True,
    ):
        """Fold contractions of the activation tiers at states X (n, 1).

        ``order`` is in {0, 1, 2}. Returns a tuple of order + 1 lists holding
        each fold's drift (n, 1), grad_x (n,) and, at order 2, grad_xx (n,),
        evaluated in row blocks through the buffers of ``work``. A call with
        ``drift=False`` contracts no drift, and its drift list is empty; sigma
        is still evaluated, over the cells its derivatives need. The first
        ``keep`` tiers are also written over all n states and the cells of
        ``work.kept_cells``, in visiting order, and left in ``work.kept``.
        The call writes the states into its layout's plan in ``work.plans``,
        formed by the first call of the layout, and runs the arithmetic: per
        row block the rank-2 product, the tier ufuncs and one contraction
        per fold-tier.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        work = work if work is not None else Workspace()
        first = 0 if drift else 1
        names = ("_w_drift", "_w_gx", "_w_gxx")[first : order + 1]
        weights = [getattr(f, name) for f in folds for name in names]
        key = (self.h, X.shape[0], order, keep, first, *map(len, weights))
        plan = work.plans.get(key)
        if plan is None:
            plan = work.plans[key] = self._plan(X.shape[0], order, first, key[5:], work, keep)
        x, m, blocks, out, kept = plan
        x[...] = X
        a12 = self._a12v[:, :m]
        sigma = _SIGMAS[self.field.sigma]
        for x1, tiers, terms in blocks:
            _preactivation(x1, a12, tiers[0])
            sigma(*tiers)
            for (tier, dst), w in zip(terms, weights):
                np.einsum("nm,m->n", tier, w, out=dst)
        if keep:
            work.kept = kept
        contractions = [list(c) for c in out.copy().transpose(1, 0, 2)]
        drifts = [d[:, None] for d in contractions.pop(0)] if drift else []
        return (drifts, *contractions)

    def _plan(self, n: int, order: int, first: int, prefixes, work: Workspace, keep: int):
        """What a call's layout decides: the state column of the operand
        [x, 1] (n, 2), the width of its widest tier, the row blocks, the
        output (folds, order + 1 - first, n) and the kept tiers. A block
        holds its rows of the operand, its tier buffers and one (tier,
        output) pair per fold-tier from tier ``first`` up, the tier cut to
        the fold-tier's prefix. The columns [a1; a2] come from the calling
        quadrature, so calls on supports of equal h share the plan."""
        # a kept tier serves a reduction over its cells; the others only
        # the longest prefix
        prefix = max(prefixes, default=0)
        m = max(prefix, self.h if work.kept_cells is None else work.kept_cells) if keep else prefix
        # blocks of two rows at least: a one-row block runs its product
        # doubled and einsum sums its contractions in another order, so a
        # lone last row joins the block before it
        rows = max(2, _BLOCK_CELLS // max(m, 1))
        full = [work.buffer(("full", j), n, m) for j in range(keep)]
        block = [
            work.buffer(("block", j), min(rows + 1, n), prefix) for j in range(keep, order + 1)
        ]
        x1, out, blocks, r0 = np.empty((n, 2)), np.empty((len(prefixes), n)), [], 0
        x1[:, 1] = 1.0
        for r1 in [*range(rows, n - 1, rows), n]:
            tiers = [t[r0:r1] for t in full] + [t[: r1 - r0] for t in block]
            terms = [
                (tiers[first + i % (order + 1 - first)][:, :p], out[i, r0:r1])
                for i, p in enumerate(prefixes)
            ]
            blocks.append((x1[r0:r1], tiers, terms))
            r0 = r1
        return x1[:, :1], m, blocks, out.reshape(-1, order + 1 - first, n), tuple(full)

    def _fold(self, w, odd: bool) -> np.ndarray:
        """Weights (M,) of one tier folded onto the h evaluated cells, in
        visiting order and cut to the tier's prefix; the tier at a mirror cell
        is minus (odd) or equal to (even) its partner's. A centre cell (odd M)
        keeps its weight."""
        r = self.support.shape[0] - self.h
        if not r:
            return w  # no copy: a particle path holds one fold per node
        mirror = w[::-1][:r]
        head = w[:r] - mirror if odd else w[:r] + mirror
        w = np.concatenate((head, w[r : self.h]))[self._visit]
        size = np.abs(w)
        tol = float(size.sum()) * (_PREFIX_TOL / self.h)
        if not math.isfinite(tol):
            return w  # non-finite weights reach every contraction
        heavy = (size > tol).nonzero()[0]
        # a copy: a map holds its folds from the forward sweep to the backward
        return w[: heavy[-1] + 1 if heavy.size else 0].copy()

    def _unfold(self, v, odd: bool) -> np.ndarray:
        """Samples (M,) of a particle reduction from its (h,) samples in
        visiting order; the negation is exact, so they equal the reduction
        over all M cells."""
        if self._visit is not None:
            ordered = np.empty_like(v)
            ordered[self._visit] = v
            v = ordered
        mirror = v[: self.support.shape[0] - self.h][::-1]
        return np.concatenate((v, -mirror if odd else mirror))

    def fold(self, values: np.ndarray, scale: float = 1.0) -> "WeightFold":
        return WeightFold(self, np.asarray(values, dtype=float), scale)

    def bracket(self, tiers, z_ens: np.ndarray) -> np.ndarray:
        """Support samples of mean_i b(x_i, .) z_i from kept tiers."""
        out = self._unfold(np.einsum("nm,n->m", tiers[0], z_ens[:, 0]), odd=True)
        out /= z_ens.shape[0]
        return out if self._a0 is None else out * self._a0

    def grad_a(self, X, tiers, weights: np.ndarray) -> np.ndarray:
        """Support samples (M, dprime) of sum_n weights_n grad_a b(X_n, .)
        from the tiers (sigma, sigma') a call at the states X kept over all
        h cells, which ``ActivationField.grad_a_batch`` spends. On a mirrored
        support each column is even (componentwise family) or odd (ridge
        family) between a cell and its partner, and extends by parity."""
        if self._visit is None:
            return self.field.grad_a_batch(X, self.support, tiers, weights)
        cells = self.support[: self.h][self._visit]
        half = self.field.grad_a_batch(X, cells, tiers, weights)
        odd = self._a0 is not None
        return np.stack([self._unfold(c, odd) for c in half.T], axis=1)

    def bracket_pair(self, tiers, vec_dx: np.ndarray, vec_b: np.ndarray) -> np.ndarray:
        """Support samples of mean_i [grad_x b vec_dx_i + b vec_b_i] from kept
        tiers; used to assemble the linearized bracket on the measure grid."""
        n = vec_b.shape[0]
        term_b = self._unfold(np.einsum("nm,n->m", tiers[0], vec_b), odd=True)
        term_dx = self._unfold(np.einsum("nm,n->m", tiers[1], vec_dx), odd=False)
        if self._a0 is not None:
            return (term_b * self._a0 + term_dx * self._a0 * self._a1) / n
        return (term_b + term_dx * self._a1) / n

    def rows(self, kept, cells: int) -> np.ndarray:
        """The field rows [b; grad_x b] (2n, cells) at the n states of a call
        that kept its tiers at order 1, on the first ``cells`` evaluated
        cells in visiting order."""
        n = kept[0].shape[0]
        rows = np.empty((2 * n, cells))
        rows[:n] = kept[0][:, :cells]
        np.multiply(kept[1][:, :cells], self._a12v[0, :cells], out=rows[n:])
        if self._a0v is not None:
            rows *= self._a0v[:cells]
        return rows

    def gram_weights(self, values: np.ndarray, scale: float = 1.0) -> np.ndarray:
        """The weights values scale (M,) of a product of two field rows,
        folded onto the evaluated cells and cut at their prefix, as a
        fold-tier's weights are (see ``WeightFold``). Rows are both odd
        (componentwise family) or both even (ridge family) under the
        mirror, so their product is even and the weights fold evenly."""
        return self._fold(np.asarray(values, dtype=float) * scale, odd=False)

    def gram(self, lefts, right, w: np.ndarray) -> np.ndarray:
        """Gram matrices sum_a l(a) w(a) r(a)^T, (len(lefts), rows, rows), of
        field rows (``rows``) against weights from ``gram_weights``, over
        their prefix. Each matrix sums BLAS products over blocks of the
        inner dimension in order, so its bits do not depend on the BLAS
        thread count."""
        p = w.shape[0]
        weighted = (right[:, :p] * w).T
        out = np.zeros((len(lefts), lefts[0].shape[0], right.shape[0]))
        for j in range(0, p, _GRAM_CELLS):
            cells = slice(j, min(j + _GRAM_CELLS, p))
            for g, left in zip(out, lefts):
                g += left[:, cells] @ weighted[cells]
        return out


class WeightFold:
    """One weight vector over a FieldQuadrature's support: the samples ``w``
    (M,), such as a grid node's density, times ``scale``, such as its cell
    volume. The fold holds the samples as given, not a scaled copy.

    The weights are multiplied into the parameter columns of each tier on
    first use and kept for the fold's lifetime, so a sweep that never asks
    for grad_x or grad_xx never forms their weights. On a mirrored support
    (see ``FieldQuadrature``) they are folded onto the h evaluated cells by
    the parity of their tier (sigma and sigma'' are odd, sigma' is even),
    put in visiting order and cut after the last weight above
    2^-60 ||w||_1 / h: the length of each tier's weights is its prefix. For
    the componentwise family a density that is its own mirror image, such as
    the prior, folds to zero weights, so its prefix is 0.
    """

    def __init__(self, quad: FieldQuadrature, values: np.ndarray, scale: float = 1.0):
        self.quad = quad
        self.w = values
        self.scale = scale

    def _weights(self, j: int) -> np.ndarray:
        """Unfolded weights (M,) of tier j: (w scale) a0 a1^j."""
        w = self.w if self.scale == 1.0 else self.w * self.scale
        if self.quad._a0 is not None:
            w = w * self.quad._a0
        for _ in range(j):
            w = w * self.quad._a1
        return w

    @cached_property
    def _w_drift(self) -> np.ndarray:
        return self.quad._fold(self._weights(0), odd=True)

    @cached_property
    def _w_gx(self) -> np.ndarray:
        return self.quad._fold(self._weights(1), odd=False)

    @cached_property
    def _w_gxx(self) -> np.ndarray:
        return self.quad._fold(self._weights(2), odd=True)


@dataclass(frozen=True)
class ConfinementPotential:
    """ell(a) = c1 |a|^4 + c2 |a|^2, strongly convex with quartic growth."""

    c1: float = 0.25
    c2: float = 0.5

    def __post_init__(self):
        if not (0 < self.c1 < math.inf and 0 < self.c2 < math.inf):
            raise ConfigError("potential coefficients must be positive and finite")

    def value(self, a):
        a = np.asarray(a, dtype=float)
        r2 = np.sum(a * a, axis=-1)
        return self.c1 * r2 * r2 + self.c2 * r2

    def grad(self, a):
        a = np.asarray(a, dtype=float)
        r2 = np.sum(a * a, axis=-1, keepdims=True)
        return (4.0 * self.c1 * r2 + 2.0 * self.c2) * a

    def hessian(self, a):
        a = np.asarray(a, dtype=float).reshape(-1)
        d = a.size
        r2 = float(a @ a)
        return (4.0 * self.c1 * r2 + 2.0 * self.c2) * np.eye(d) + (
            8.0 * self.c1
        ) * np.outer(a, a)

    @property
    def convexity_constant(self) -> float:
        """c with hess(ell)(a) >= c (1 + |a|^2) Id for all a."""
        return min(4.0 * self.c1, 2.0 * self.c2)


@dataclass(frozen=True)
class TerminalLoss:
    """Quadratic regression loss L(x, y) = (x - y)^2 / 2."""

    kind: str = "quadratic"

    def __post_init__(self):
        if self.kind != "quadratic":
            raise ConfigError(f"unsupported loss kind {self.kind!r}")

    def value(self, x, y):
        diff = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
        return 0.5 * np.sum(diff * diff, axis=-1)

    def grad_x(self, x, y):
        return np.asarray(x, dtype=float) - np.asarray(y, dtype=float)


@dataclass(frozen=True)
class Dataset:
    """Finite sample of (feature, label) pairs with uniform weights 1/N."""

    x: np.ndarray  # (N, 1)
    y: np.ndarray  # (N, 1)

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        y = np.atleast_2d(np.asarray(self.y, dtype=float))
        if x.shape[0] != y.shape[0]:
            raise ConfigError("feature/label counts differ")
        if x.shape[0] < 1:
            raise ConfigError("dataset must contain at least one point")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ConfigError("dataset contains non-finite entries")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @classmethod
    def from_pairs(cls, points):
        try:
            pts = [np.asarray(p, dtype=float).ravel() for p in points]
        except (TypeError, ValueError):
            raise ConfigError("dataset points must be lists of numbers") from None
        if not pts:
            raise ConfigError("dataset must contain at least one point")
        if any(p.size != 2 for p in pts):
            raise ConfigError("configuration key 'dataset.points' expects [x, y] pairs")
        arr = np.vstack(pts)
        return cls(arr[:, :1], arr[:, 1:])


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition t0 = tau_0 < ... < tau_{nt-1} = T."""

    t0: float = 0.0
    horizon: float = 1.0
    nt: int = 65

    def __post_init__(self):
        if not (0.0 <= self.t0 < self.horizon < math.inf):
            raise ConfigError("need 0 <= t0 < T with T finite")
        if self.nt < 2:
            raise ConfigError("need at least two time nodes")

    @property
    def dt(self) -> float:
        return (self.horizon - self.t0) / (self.nt - 1)

    @property
    def nodes(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.nt)


@dataclass(frozen=True)
class ProblemConfig:
    epsilon: float
    field: ActivationField
    potential: ConfinementPotential
    loss: TerminalLoss
    dataset: Dataset
    grid: TimeGrid
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise ConfigError("epsilon must be positive and finite")
        if self.dataset.x.shape[1] != 1 or self.dataset.y.shape[1] != 1:
            raise ConfigError("dataset features and labels must be scalars")
        if not -(2**63) <= int(self.seed) < 2**64:
            raise ConfigError("seed must fit in 64 bits")


# -- configuration document ---------------------------------------------------

# np.gradient, behind the finite-volume gradients, needs two cells per axis
MIN_RES = 2
# the default of a key the document must give
REQUIRED = object()
# a dimension key: features and labels are scalars throughout the package
_UNIT = (lambda v: v == 1, "1")

# every key of the run document, top-level or ``section.key``: its default,
# whose type a given value takes (a required key's value is read as given),
# and its admissible range as a test and the rule it states. The problem's
# dataclasses check their own values; a tool setting is checked by the
# command that reads it, and the descent command checks the backend itself.
DOCUMENT_KEYS = {
    "epsilon": (REQUIRED, None, None),
    "seed": (0, None, None),
    "field.family": (COMPONENTWISE, None, None),
    "field.sigma": ("tanh", None, None),
    "field.d1": (1, *_UNIT),
    "potential.c1": (0.25, None, None),
    "potential.c2": (0.5, None, None),
    "loss.kind": ("quadratic", None, None),
    "loss.d1": (1, *_UNIT),
    "loss.d2": (1, *_UNIT),
    "dataset.points": (REQUIRED, None, None),
    "grid.t0": (0.0, None, None),
    "grid.T": (1.0, None, None),
    "grid.nt": (65, None, None),
    "measure.res": (64, lambda v: v >= MIN_RES, f">= {MIN_RES}"),
    "measure.box_halfwidth": (4.0, lambda v: math.isfinite(v) and v > 0.0, "finite and > 0"),
    "solve.damping": (0.5, lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
    "solve.tol": (1e-8, lambda v: v > 0.0, "> 0"),
    "solve.max_iters": (500, lambda v: v >= 0, ">= 0"),
    "descent.backend": ("grid", None, None),
    "descent.steps": (100, lambda v: v >= 0, ">= 0"),
    "descent.step_size": (1e-3, lambda v: math.isfinite(v) and v > 0.0, "finite and > 0"),
    "descent.particles": (2000, lambda v: v >= 1, ">= 1"),
    "descent.init_tilt": (0.3, math.isfinite, "finite"),
    "stability.iters": (10, lambda v: v >= 1, ">= 1"),
    "stability.margin": (0.1, lambda v: math.isfinite(v) and v >= 0.0, "finite and >= 0"),
    # 0 is the degenerate scan; the scan's entropy targets take radius^2
    "pl_scan.radius": (0.1, lambda v: math.isfinite(v * v) and v >= 0.0, ">= 0, finite squared"),
    "pl_scan.samples": (200, lambda v: v >= 1, ">= 1"),
}


def _check_keys(doc: dict) -> None:
    """Fail on a document or section that is not an object, on a key that
    ``DOCUMENT_KEYS`` does not declare and on a missing part of the problem."""
    if not isinstance(doc, dict):
        raise ConfigError("configuration document must be a JSON object")
    for name, section in doc.items():
        if name in DOCUMENT_KEYS and "." not in name:
            continue
        if not any(dotted.startswith(name + ".") for dotted in DOCUMENT_KEYS):
            raise ConfigError(f"unknown configuration key {name!r}")
        if not isinstance(section, dict):
            raise ConfigError(f"configuration key {name!r} must be a JSON object")
        for key in section:
            if f"{name}.{key}" not in DOCUMENT_KEYS:
                raise ConfigError(f"unknown configuration key '{name}.{key}'")
    for name in ("epsilon", "dataset", "grid"):
        if name not in doc:
            raise ConfigError(f"missing configuration key {name!r}")


def setting(doc: dict, dotted: str):
    """The key ``dotted`` of ``DOCUMENT_KEYS`` in a document that passed
    ``_check_keys``: its default when absent, else its value converted to
    the type of the default and checked against its range."""
    default, admissible, rule = DOCUMENT_KEYS[dotted]
    *section, key = dotted.split(".")
    node = doc.get(section[0], {}) if section else doc
    if key not in node:
        if default is REQUIRED:
            raise ConfigError(f"missing configuration key {dotted!r}")
        return default
    value = node[key] if default is REQUIRED else config_value(type(default), node[key], dotted)
    if admissible is not None and not admissible(value):
        raise ConfigError(f"configuration key '{dotted}' must be {rule}, got {value}")
    return value


def config_value(kind, value, key: str):
    """``kind(value)``, or a ConfigError naming the dotted key. A number key
    takes no boolean, and an integer key no number with a fractional part."""
    try:
        if kind in (int, float) and isinstance(value, bool):
            raise TypeError
        converted = kind(value)
        if kind is int and isinstance(value, float) and converted != value:
            raise ValueError
        return converted
    except (TypeError, ValueError, OverflowError):
        message = f"configuration key {key!r} expects {kind.__name__}, got {value!r}"
        raise ConfigError(message) from None


def load_problem_config(doc: dict) -> ProblemConfig:
    """Build a ProblemConfig from a parsed JSON document; its keys are
    checked, the tool settings are left to the commands that read them."""
    _check_keys(doc)
    for dotted in ("field.d1", "loss.d1", "loss.d2"):
        setting(doc, dotted)  # checked, not kept: every dimension is 1
    return ProblemConfig(
        field=ActivationField(setting(doc, "field.family"), setting(doc, "field.sigma")),
        potential=ConfinementPotential(setting(doc, "potential.c1"), setting(doc, "potential.c2")),
        loss=TerminalLoss(setting(doc, "loss.kind")),
        dataset=Dataset.from_pairs(setting(doc, "dataset.points")),
        grid=TimeGrid(setting(doc, "grid.t0"), setting(doc, "grid.T"), setting(doc, "grid.nt")),
        epsilon=config_value(float, setting(doc, "epsilon"), "epsilon"),
        seed=setting(doc, "seed"),
    )


def rng_for(seed: int, label: str) -> np.random.Generator:
    """Counter-based generator for a named random stream.

    Every stream is derived from the single 64-bit problem seed plus a stable
    hash of its purpose label, so runs are reproducible and independent
    streams never overlap.
    """
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    key = int.from_bytes(digest[:8], "little")
    ss = np.random.SeedSequence(entropy=[int(seed) & (2**64 - 1), key])
    return np.random.Generator(np.random.Philox(ss))
