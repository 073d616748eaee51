"""Checks of the benchmark harness itself.

    python3 -m pytest -q perfbench/check_harness.py

The file name keeps these checks out of pytest's default discovery: they
spawn desk-scale commands and belong to the benchmark, not to the test
suite, even when pytest is pointed at the whole checkout. The kernel-call invariants hold for fixtures/desk.json at the commit that
defined the benchmark. They catch a span that goes missing because a name
bound by ``from .x import y`` was not rebound. A change that alters the
kernel work per sweep on purpose updates them here.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def traced(tmp_path, workload, *extra):
    rec = run.launch(workload, "desk", 1, "trace", tmp_path / workload, extra)
    assert rec["errors"] == []
    return rec["trace"]


def tiers_per_call(trace, span):
    s = trace["spans"][span]
    assert s["calls"] > 0
    return s["tiers_calls"] / s["calls"]


def test_solve_desk_invariants(tmp_path):
    trace = traced(tmp_path, "solve-desk")
    assert tiers_per_call(trace, "trajectories.forward_solve") == 256
    assert tiers_per_call(trace, "optimizer.gibbs_map") == 385
    assert trace["counts"]["optimizer.picard_solve.iterations"] == 8
    assert trace["spans"]["optimizer.gibbs_map"]["calls"] == 9
    # every kernel call runs inside some layer span
    assert trace["spans"]["model.tiers"]["calls"] == sum(
        trace["spans"][name]["tiers_calls"]
        for name in ("optimizer.picard_solve", "cli.path_to_csv", "cli.write_text")
    )


def test_linear_map_image_invariant(tmp_path):
    trace = traced(tmp_path, "stability-desk", "--set", "stability.iters=1")
    assert tiers_per_call(trace, "linearization.linear_map_image") == 323
    assert trace["counts"]["linearization.stability_probe.krylov_steps"] == 1


def test_langevin_step_invariant(tmp_path):
    trace = traced(tmp_path, "langevin-desk", "--set", "descent.steps=2")
    assert tiers_per_call(trace, "optimizer.langevin_descent_step") == 448
    assert trace["spans"]["model.grad_a_batch"]["calls"] == 2 * 65


def test_smoke_emits_every_metric():
    assert run.smoke() == 0
