"""Command-line front end.

Commands: solve | descent | stability | pl-scan | check. A single JSON
configuration document describes the problem and the per-command tool
sections; ``--set key=value`` overrides entries by dotted path. Every run
writes plot-ready CSV plus a machine-readable summary and a manifest listing
each emitted file with its content digest.

Numbers in CSV files are written with 17 significant digits, exactly as
``format(x, ".17g")`` prints them (``csvtext``), with comma separators, a
header row and LF line endings, so reruns with identical configuration are
byte-identical. Wall-clock time lives in the manifest only, which is the one
deliberately non-reproducible artifact.

Every key of the document is declared once, in ``model.DOCUMENT_KEYS``, with
its default and its range. A command reads a tool setting with
``model.setting`` where it needs it, so a setting is checked only by the
commands that use it. Every table a command writes row by row goes through
``RunWriter.write_csv``, which formats an integer cell with ``str``, None
as an empty field and any other number as ``csvtext.fmt``.

A run file is written as it is formatted: ``RunWriter.write_text`` takes a
string or an iterable of text or bytes chunks and writes and hashes each
chunk as it arrives, and path files (``nu_star.csv``, ``final_state.csv``)
come one node per chunk, formatted in bulk. A run's peak memory is
therefore set by its working set, not by the size of its largest file. A
run directory that cannot be created or written is an output error (exit 1,
no traceback).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import __version__, csvtext
from .checks import run_battery
from .linearization import pl_scan, stability_probe
from .measures import (
    AdmissibilityError,
    ControlPath,
    DegenerateMeasureError,
    ParticleMeasure,
    PriorMeasure,
    check_prior_box,
    measure_to_csv,
    moment,
)
from .model import ConfigError, load_problem_config, rng_for, setting
from .optimizer import (
    PositivityError,
    fp_descent_step,
    gibbs_image,
    langevin_descent_step,
    picard_solve,
    sample_prior,
    total_cost,
)
from .trajectories import DivergenceError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NO_CONVERGENCE = 2
EXIT_INVARIANT = 3

# resolution of the coarse level of a solve on a grid of at least twice it
COARSE_RES = 16

def _apply_override(doc: dict, dotted: str, raw: str):
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = doc
    parts = dotted.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot descend into configuration key {part!r}")
    node[parts[-1]] = value


def load_run_document(path: str, overrides, seed=None):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError("configuration document must be a JSON object")
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        _apply_override(doc, dotted, raw)
    if seed is not None:
        doc["seed"] = int(seed)
    config = load_problem_config(doc)
    # the prior's box is checked before a run directory exists
    check_prior_box(config.potential, setting(doc, "measure.box_halfwidth"), config.field.dprime)
    return config, doc


class OutputError(Exception):
    """The run directory or one of its files could not be created or written."""


class RunWriter:
    """Collects emitted files and finalizes the run manifest."""

    def __init__(self, out_dir: Path, command: str, doc: dict):
        self.out_dir = out_dir
        self.command = command
        self.doc = doc
        self.started = time.monotonic()
        self.files = []
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise OutputError(exc) from exc

    def write_text(self, name: str, content: str | Iterable[str | bytes]):
        """Write a run file from a string or an iterable of chunks; each chunk
        is encoded unless it is bytes already, written and hashed as it
        arrives."""
        chunks = (content,) if isinstance(content, str) else content
        digest = hashlib.sha256()
        try:
            with open(self.out_dir / name, "wb") as fh:
                for chunk in chunks:
                    data = chunk if isinstance(chunk, bytes) else chunk.encode("utf-8")
                    digest.update(data)
                    fh.write(data)
        except OSError as exc:
            raise OutputError(exc) from exc
        self.files.append({"name": name, "sha256": digest.hexdigest()})

    def write_csv(self, name: str, header: Iterable[str], rows: Iterable[Iterable]):
        """Write a CSV run file: the header, then one line per row."""
        lines = [",".join(header), *(",".join(map(_csv_cell, row)) for row in rows)]
        self.write_text(name, "\n".join(lines) + "\n")

    def write_json(self, name: str, payload: dict):
        self.write_text(name, json.dumps(payload, indent=2, sort_keys=True) + "\n")

    def finalize(self):
        manifest = {
            "command": self.command,
            "config": self.doc,
            "seed": setting(self.doc, "seed"),
            "version": __version__,
            "wall_clock_s": time.monotonic() - self.started,
            "files": self.files,
        }
        try:
            with open(self.out_dir / "manifest.json", "w", encoding="utf-8") as fh:
                json.dump(manifest, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            raise OutputError(exc) from exc


def _csv_cell(x) -> str:
    """A CSV field: an integer as ``str`` prints it, None as empty, any other
    number as ``csvtext.fmt`` prints it."""
    if x is None:
        return ""
    return str(x) if isinstance(x, (int, np.integer)) else csvtext.fmt(x)


def _initial_grid_path(config, doc):
    res = setting(doc, "measure.res")
    halfwidth = setting(doc, "measure.box_halfwidth")
    return _prior_path(config, halfwidth, res)


def _prior_path(config, halfwidth, res):
    """The constant path at the prior on the given grid, and the prior."""
    prior = PriorMeasure.build(config.potential, halfwidth, res, config.field.dprime)
    return ControlPath.constant(config.grid, prior.measure), prior


def _path_to_csv(path: ControlPath) -> Iterator[bytes]:
    """CSV bytes of a grid path: the header, then one chunk per node."""
    template = path.measures[0]
    # a cell's coordinates read the same at every node: format them once,
    # without the columns none of them fills
    coords = [csvtext.trim(csvtext.fields(c)) for c in template.midpoints().T]
    yield ("node," + ",".join(f"a{i}" for i in range(template.dprime)) + ",value\n").encode()
    for k, nu in enumerate(path.measures):
        table = csvtext.rows([csvtext.text(str(k)), *coords, csvtext.fields(nu.values)])
        yield csvtext.compact(table)


def _json_float(x):
    """``x`` as a JSON number, or None where it is not finite."""
    return x if math.isfinite(x) else None


def _solved_state(config, doc):
    """Picard solution on the measure grid, its prior and the iterations of
    its coarse level.

    On a grid of res 32 or more the solve takes two levels: Picard first runs
    on a res-16 grid over the same box, from its prior and with the same
    settings, and the fine Picard starts from the ``gibbs_image`` of the
    coarse result on the fine grid, or from the prior when the coarse
    residual is not finite. The fine solve alone decides convergence and
    counts the result's iterations.
    """
    path, prior = _initial_grid_path(config, doc)
    settings = {
        "damping": setting(doc, "solve.damping"),
        "tol": setting(doc, "solve.tol"),
        "max_iters": setting(doc, "solve.max_iters"),
    }
    template = path.measures[0]
    coarse_iterations = 0
    if template.res >= 2 * COARSE_RES:
        coarse_path, _ = _prior_path(config, template.halfwidth, COARSE_RES)
        coarse = picard_solve(config, coarse_path, **settings)
        coarse_iterations = coarse.iterations
        if math.isfinite(coarse.report.picard_residual):
            path = coarse.path.replace_measures(
                snap.gamma for snap in gibbs_image(config, coarse.path, coarse.flow, template)[0]
            )
    return picard_solve(config, path, **settings), prior, coarse_iterations


def _not_converged(result) -> dict:
    """Status and reason of a solve that did not converge, also printed to
    stderr; empty when it converged."""
    if result.converged:
        return {}
    residual, node = result.report.picard_residual, result.support_node
    # +inf: a Gibbs image at the floor where the iterate is not (never NaN)
    reason = "max-iters" if math.isfinite(residual) else "non-finite"
    reason = "support" if residual == math.inf else reason
    where = "" if node is None else f": node {node}'s Gibbs image is 0 where the iterate is not"
    print(f"not converged: {reason} after {result.iterations} iterations{where}", file=sys.stderr)
    return {"status": "not-converged", "reason": reason}


def cmd_solve(config, doc, writer) -> int:
    result, _, coarse_iterations = _solved_state(config, doc)
    failure = _not_converged(result)
    writer.write_csv("residuals.csv", ["iteration", "residual"], enumerate(result.residual_history))
    writer.write_text("nu_star.csv", _path_to_csv(result.path))
    report = result.report
    summary = {
        "converged": result.converged,
        "iterations": result.iterations,
        "coarse_iterations": coarse_iterations,
        "residual": _json_float(report.picard_residual),
        "cost": report.cost,
        "terminal": report.terminal,
        "entropy": report.entropy,
        "fisher": _json_float(report.fisher),
    }
    writer.write_json("summary.json", {**summary, **failure})
    return EXIT_NO_CONVERGENCE if failure else EXIT_OK


def _tilted_start(path, amplitude):
    """Deterministic perturbed start for descent runs."""
    mids = path.measures[0].midpoints()
    psi = np.cos(mids[:, 0]) - 0.4 * np.sin(0.7 * mids[:, 1])
    return path.replace_measures(nu.tilted(amplitude * psi) for nu in path.measures)


def cmd_descent(config, doc, writer) -> int:
    backend = setting(doc, "descent.backend")
    steps = setting(doc, "descent.steps")
    h = setting(doc, "descent.step_size")
    tilt = setting(doc, "descent.init_tilt")
    if backend == "grid":
        return _descent_grid(config, doc, writer, steps, h, tilt)
    if backend == "particle":
        return _descent_particle(config, doc, writer, steps, h, tilt)
    raise ConfigError(f"unknown descent backend {backend!r}")


def _descent_grid(config, doc, writer, steps, h, tilt) -> int:
    base, prior = _initial_grid_path(config, doc)
    path = _tilted_start(base, tilt)
    rows = []
    # row k holds the cost at the start of step k; the last, the final cost
    for k in range(steps + 1):
        if k < steps:
            out = fp_descent_step(config, path, h, prior=prior)
            report, path = out.report, out.path
        else:
            report = total_cost(config, path, with_fisher=True, prior=prior)
        dj = None if k == 0 else (report.cost - prev_cost) / h
        rows.append((k, report.cost, report.terminal, report.entropy, report.fisher, dj))
        prev_cost = report.cost
    header = ["step", "cost", "terminal", "entropy", "fisher", "dj_over_h"]
    writer.write_csv("series.csv", header, rows)
    writer.write_text("final_state.csv", _path_to_csv(path))
    writer.write_json(
        "summary.json",
        {
            "backend": "grid",
            "steps": steps,
            "step_size": h,
            "final_cost": report.cost,
            "final_fisher": report.fisher,
        },
    )
    return EXIT_OK


def _descent_particle(config, doc, writer, steps, h, tilt) -> int:
    m = setting(doc, "descent.particles")
    rng = rng_for(config.seed, "descent-particle")
    dprime = config.field.dprime
    points = sample_prior(config.potential, dprime, m, rng)
    path = ControlPath.constant(config.grid, ParticleMeasure(points))
    rows = []

    def emit(step, resampled):
        for k, nu in enumerate(path.measures):
            means = np.mean(nu.points, axis=0)
            variances = np.var(nu.points, axis=0)
            rows.append((step, k, *means, *variances, resampled))

    emit(0, 0)
    for s in range(steps):
        out = langevin_descent_step(config, path, h, rng)
        path = out.path
        emit(s + 1, out.resampled)
    columns = [f"{stat}_a{i}" for stat in ("mean", "var") for i in range(dprime)]
    writer.write_csv("series.csv", ["step", "node", *columns, "resampled"], rows)
    buf = io.StringIO()
    measure_to_csv(path.measures[-1], buf)
    writer.write_text("final_particles.csv", buf.getvalue())
    writer.write_json(
        "summary.json",
        {
            "backend": "particle",
            "steps": steps,
            "step_size": h,
            "particles": m,
            "final_second_moment": moment(path.measures[-1], 2),
        },
    )
    return EXIT_OK


def cmd_stability(config, doc, writer) -> int:
    # the probe's settings are checked before the solve they follow
    iters = setting(doc, "stability.iters")
    margin = setting(doc, "stability.margin")
    result, _, _ = _solved_state(config, doc)
    failure = _not_converged(result)
    if failure:
        writer.write_json("summary.json", failure)
        return EXIT_NO_CONVERGENCE
    report = stability_probe(
        config,
        result.path,
        result.flow,
        iters=iters,
        margin=margin,
        rng=rng_for(config.seed, "stability-probe"),
    )
    writer.write_csv("ritz.csv", ["index", "ritz_value"], enumerate(report.details["ritz"]))
    writer.write_json(
        "summary.json",
        {
            "dominant_eig": report.dominant_eig,
            "lambda_max": report.details["lambda_max"],
            "ritz_residual": report.ritz_residual,
            "margin_from_one": report.details["margin_from_one"],
            "stable_evidence": report.details["stable_evidence"],
            "cost": result.report.cost,
        },
    )
    return EXIT_OK


def cmd_pl_scan(config, doc, writer) -> int:
    # the scan's settings are checked before the solve they follow
    radius = setting(doc, "pl_scan.radius")
    samples = setting(doc, "pl_scan.samples")
    result, prior, _ = _solved_state(config, doc)
    failure = _not_converged(result)
    if failure:
        writer.write_json("summary.json", failure)
        return EXIT_NO_CONVERGENCE
    report = pl_scan(
        config,
        result.path,
        result.report.cost,
        radius=radius,
        samples=samples,
        rng=rng_for(config.seed, "pl-scan"),
        prior=prior,
    )
    columns = ["sample", "entropy", "cost", "gap", "fisher", "ratio"]
    rows = [[row.get(column) for column in columns] for row in report.details["rows"]]
    writer.write_csv("samples.csv", columns, rows)
    ratio = report.pl_ratio
    writer.write_json(
        "summary.json",
        {
            "pl_ratio": None if (ratio is None or math.isnan(ratio)) else ratio,
            "samples": report.details["samples"],
            "radius": report.details["radius"],
            "optimal_cost": result.report.cost,
        },
    )
    return EXIT_OK


def cmd_check(config, doc, writer) -> int:
    results = run_battery(config)
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "pass" if r.ok else "FAIL"
        lines.append(f"{r.name:<{width}}  {status}  {r.detail}")
        print(lines[-1])
    writer.write_text("check_table.txt", "\n".join(lines) + "\n")
    writer.write_json(
        "summary.json",
        {
            "passed": sum(r.ok for r in results),
            "failed": sum(not r.ok for r in results),
            "results": [
                {"name": r.name, "ok": r.ok, "detail": r.detail} for r in results
            ],
        },
    )
    failures = [r.name for r in results if not r.ok]
    if failures:
        print(f"failing invariants: {', '.join(failures)}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


COMMANDS = {
    "solve": cmd_solve,
    "descent": cmd_descent,
    "stability": cmd_stability,
    "pl-scan": cmd_pl_scan,
    "check": cmd_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfoc",
        description=(
            "Solve, descend and probe entropically regularized mean-field "
            "control problems for continuous-depth networks."
        ),
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON configuration document")
    parser.add_argument(
        "--out",
        default=None,
        help="output directory (falls back to $OUTPUT_DIR, then ./out)",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the seed")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="K=V",
        help="override a configuration entry by dotted path (repeatable)",
    )
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage and the error, or the help (code 0)
        return EXIT_CONFIG if exc.code else EXIT_OK
    out_dir = Path(args.out or os.environ.get("OUTPUT_DIR", "out"))
    try:
        config, doc = load_run_document(args.config, args.set, args.seed)
    except (ConfigError, OSError, json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        writer = RunWriter(out_dir, args.command, doc)
        return _run(COMMANDS[args.command], config, doc, writer)
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def _run(command, config, doc, writer) -> int:
    """Exit code of one command; the manifest is written however it ends."""
    try:
        return command(config, doc, writer)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DivergenceError, DegenerateMeasureError, PositivityError, AdmissibilityError) as exc:
        reason = f"{type(exc).__name__}: {exc}"
        print(f"numerical failure: {reason}", file=sys.stderr)
        writer.write_json("summary.json", {"status": "numerical-failure", "reason": reason})
        return EXIT_NO_CONVERGENCE
    finally:
        writer.finalize()


if __name__ == "__main__":
    sys.exit(main())
