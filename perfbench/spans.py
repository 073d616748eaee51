"""Layer spans for mfoc, recorded from outside the package.

``instrument`` replaces the public functions of each mfoc layer with timed
wrappers. A name bound by ``from .x import y`` is a separate reference in
every importing module, so each wrapper is rebound wherever the original
object is found; a reference left behind would drop its spans silently.

Spans nest on one stack (mfoc runs on one thread). A span's self time is
its duration minus the time covered by its child spans. Spans are folded
into per-name totals as they close, so memory stays constant however many
kernel calls a command makes.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

TIERS = "model.tiers"


class Tracer:
    def __init__(self):
        self.stack = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        # kernel calls made inside each span, children included
        self.tiers_calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.root_s = 0.0

    def wrap(self, name, fn, count=None):
        clock = time.perf_counter
        stack = self.stack

        def traced(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            tiers_before = self.calls[TIERS]
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += span
                else:
                    self.root_s += span
                self.calls[name] += 1
                self.self_s[name] += span - child[0]
                self.tiers_calls[name] += self.calls[TIERS] - tiers_before
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def summary(self) -> dict:
        return {
            "spans": {
                name: {
                    "calls": self.calls[name],
                    "self_s": self.self_s[name],
                    "tiers_calls": self.tiers_calls[name],
                }
                for name in self.calls
            },
            "counts": dict(self.counts),
            "root_s": self.root_s,
        }


def _count_tiers(counts, args, result):
    quad, X = args[0], args[1]
    rows = X.shape[0] if getattr(X, "ndim", 0) >= 2 else 1
    cells = rows * quad.support.shape[0]
    counts["model.tiers.cells"] += cells
    counts["model.tiers.mbytes_computed"] += cells * 8 * len(result) / 1e6


def _count_picard(counts, args, result):
    counts["optimizer.picard_solve.iterations"] += result.iterations


def _count_langevin(counts, args, result):
    counts["optimizer.langevin.resampled"] += result.resampled


def _count_pl_scan(counts, args, result):
    details = result.details
    counts["linearization.pl_scan.kept"] += sum("ratio" in r for r in details["rows"])
    counts["linearization.pl_scan.drawn"] += details["samples"]


def _count_krylov(counts, args, result):
    steps = len(result.details["rayleigh_history"])
    counts["linearization.stability_probe.krylov_steps"] += steps


def _count_bytes(counts, args, result):
    writer, name = args[0], args[1]
    counts["cli.write_text.bytes"] += (writer.out_dir / name).stat().st_size


# (span name, module, attribute, counter)
TARGETS = (
    (TIERS, "mfoc.model", "FieldQuadrature.tiers", _count_tiers),
    ("model.grad_a_batch", "mfoc.model", "ActivationField.grad_a_batch", None),
    ("measures.relative_entropy", "mfoc.measures", "relative_entropy", None),
    ("measures.fisher_divergence", "mfoc.measures", "fisher_divergence", None),
    ("measures.path_entropy", "mfoc.measures", "path_entropy", None),
    ("trajectories.forward_solve", "mfoc.trajectories", "forward_solve", None),
    ("trajectories.backward_solve", "mfoc.trajectories", "backward_solve", None),
    ("trajectories.tangent_solve", "mfoc.trajectories", "tangent_solve", None),
    ("optimizer.gibbs_map", "mfoc.optimizer", "gibbs_map_with_flow", None),
    ("optimizer.picard_solve", "mfoc.optimizer", "picard_solve", _count_picard),
    (
        "optimizer.langevin_descent_step",
        "mfoc.optimizer",
        "langevin_descent_step",
        _count_langevin,
    ),
    ("linearization.linear_map_image", "mfoc.linearization", "linear_map_image", None),
    ("linearization.solve_v", "mfoc.linearization", "solve_v", None),
    ("linearization.tilt_to_entropy", "mfoc.linearization", "tilt_to_entropy", None),
    ("linearization.pl_scan", "mfoc.linearization", "pl_scan", _count_pl_scan),
    (
        "linearization.stability_probe",
        "mfoc.linearization",
        "stability_probe",
        _count_krylov,
    ),
    ("cli.path_to_csv", "mfoc.cli", "_path_to_csv", None),
    ("cli.write_text", "mfoc.cli", "RunWriter.write_text", _count_bytes),
)


def instrument(tracer: Tracer) -> None:
    """Wrap every target; mfoc.cli must already be imported."""
    modules = [
        m for n, m in list(sys.modules.items()) if n == "mfoc" or n.startswith("mfoc.")
    ]
    for name, module, attr, count in TARGETS:
        owner = sys.modules[module]
        cls_name, _, fn_name = attr.rpartition(".")
        if cls_name:
            cls = getattr(owner, cls_name)
            setattr(cls, fn_name, tracer.wrap(name, cls.__dict__[fn_name], count))
            continue
        original = getattr(owner, fn_name)
        wrapped = tracer.wrap(name, original, count)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)
