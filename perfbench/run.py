#!/usr/bin/env python3
"""Benchmark harness for the mfoc command-line laboratory.

Each run executes one workload (perfbench/workloads.json) as a closed loop
of real ``mfoc`` commands on fixtures/desk.json: one command at a time, each
in a fresh process, the next started when the previous one exits. The loop
stops before a command that, at the pace so far, would end after
``--seconds`` (at least one command runs). Every process's outputs are
checked; it fails on a non-zero exit, a traceback or a failed check.

  --trace 0  end-to-end metrics, tracing off: wall_s, cpu_s and peak_rss_mb
             per command, and setup_s of processes that stop at the set-up
             mark, a few before every command and after the last. Each is
             a median.
  --trace 1  per-layer metrics: commands alternate untraced and traced; the
             traced ones wrap each layer's public functions (spans.py).

The last stdout line is the JSON result; the line before it is the run
record (environment, per-command samples, sample counts, fail rate).

BLAS and OpenMP pools are pinned to one thread. Only the standard library
is used here; the commands import mfoc from src/.

usage:
  python3 perfbench/run.py --workload solve-desk --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --smoke     # all workloads on fixtures/mini.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
GOLDEN = ROOT / "tests" / "golden" / "desk_solve.sha256"
WORKLOADS = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 3
# A command still running after this is killed and counted as failed, so a
# hung command cannot keep a run past its deadline.
CHILD_LIMIT_S = 150.0


class HarnessError(Exception):
    """The checkout cannot be benchmarked (missing sources or spec)."""


def _median(values):
    return statistics.median(values) if values else math.nan


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise HarnessError(f"{path} is missing")
    return json.loads(path.read_text(encoding="utf-8"))


def _require_sources(fixture: str):
    needed = [ROOT / "src" / "mfoc" / "cli.py", ROOT / "fixtures" / f"{fixture}.json"]
    if fixture == "desk":
        needed.append(GOLDEN)
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise HarnessError("cannot benchmark, missing: " + ", ".join(missing))


def source_digest(fixture: str) -> str:
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py"))
    files.append(ROOT / "fixtures" / f"{fixture}.json")
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# -- one process -------------------------------------------------------------


def launch(workload: str, fixture: str, seed: int, mode: str, slot: Path, extra=()):
    """Run one child process in ``mode`` (run | trace | setup); return its record."""
    out = slot / "out"
    shutil.rmtree(slot, ignore_errors=True)
    slot.mkdir(parents=True)
    report_path = slot / "report.json"
    argv = [
        sys.executable,
        str(HERE / "child.py"),
        mode,
        str(report_path),
        "--",
        *WORKLOADS[workload]["args"],
        "--config",
        str(ROOT / "fixtures" / f"{fixture}.json"),
        "--seed",
        str(seed),
        "--out",
        str(out),
        *extra,
    ]
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    with open(slot / "stdout.txt", "wb") as so, open(slot / "stderr.txt", "wb") as se:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=so, stderr=se)
        timer = threading.Timer(CHILD_LIMIT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = (slot / "stderr.txt").read_text(encoding="utf-8", errors="replace")
    rec = {
        "mode": mode,
        "exit": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "errors": [],
    }
    if wall >= CHILD_LIMIT_S:
        rec["errors"].append(f"killed after {CHILD_LIMIT_S:.0f} s")
    elif proc.returncode != 0:
        rec["errors"].append(f"exit code {proc.returncode}: {stderr.strip()[-400:]}")
    elif "Traceback" in stderr:
        rec["errors"].append("traceback on stderr")
    try:
        report = json.loads(report_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        report = {}
        rec["errors"].append("child wrote no report")
    rec["numpy"] = report.get("numpy")
    if report.get("setup_mark") is None:
        rec["errors"].append("set-up mark not reached")
    else:
        rec["setup_s"] = report["setup_mark"] - start
    if "trace" in report:
        rec["trace"] = report["trace"]
    if mode != "setup" and not rec["errors"]:
        rec["digests"] = {
            p.name: _sha256(p)
            for p in sorted(out.iterdir())
            if p.is_file() and p.name != "manifest.json"
        }
        rec["errors"] += check_outputs(WORKLOADS[workload]["args"][0], out, fixture, rec["digests"])
    return rec


def check_outputs(command: str, out: Path, fixture: str, digests: dict) -> list:
    """Sanity checks on one command's summary and, for desk solve, golden digests."""
    try:
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        if command == "solve":
            errors = [] if summary["converged"] is True else ["solve did not converge"]
            if fixture == "desk":
                for line in GOLDEN.read_text(encoding="utf-8").split("\n"):
                    if line.strip():
                        name, digest = line.split()
                        if digests.get(name) != digest:
                            errors.append(f"{name} does not match the golden digest")
            return errors
        if command == "pl-scan":
            r = summary["pl_ratio"]
            ok = isinstance(r, (int, float)) and math.isfinite(r) and r > 0
            return [] if ok else [f"pl_ratio {r!r} is not finite and positive"]
        if command == "stability":
            e = summary["dominant_eig"]
            ok = isinstance(e, (int, float)) and math.isfinite(e)
            return [] if ok else [f"dominant_eig {e!r} is not finite"]
        if command == "descent":
            errors = []
            if not math.isfinite(summary["final_second_moment"]):
                errors.append("final_second_moment is not finite")
            rows = (out / "series.csv").read_text(encoding="utf-8").split("\n")[1:]
            if any(row.rsplit(",", 1)[-1] != "0" for row in rows if row):
                errors.append("particles were resampled")
            return errors
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"output check failed: {exc!r}"]
    return [f"no output check for command {command!r}"]


def check_identical(records: list, key: str):
    """Mark records whose outputs differ from the first, or from earlier runs."""
    done = [r for r in records if "digests" in r]
    if not done:
        return
    for rec in done[1:]:
        if rec["digests"] != done[0]["digests"]:
            rec["errors"].append("outputs differ from the first command of this run")
    state_path = WORK / "digests.json"
    try:
        state = json.loads(state_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        state = {}
    known = state.setdefault(key, done[0]["digests"])
    if known != done[0]["digests"]:
        for rec in done:
            rec["errors"].append("outputs differ from an earlier run with this seed")
    state_path.write_text(json.dumps(state, indent=1, sort_keys=True), encoding="utf-8")


# -- one run -----------------------------------------------------------------


def layer_metrics(rec: dict) -> dict:
    """Per-layer values of one traced command."""
    trace = rec["trace"]
    metrics = {}
    for name, span in trace["spans"].items():
        metrics[f"{name}.calls"] = span["calls"]
        metrics[f"{name}.self_s"] = span["self_s"]
    counts = trace["counts"]
    metrics.update(counts)
    drawn = counts.get("linearization.pl_scan.drawn", 0)
    kept = counts.get("linearization.pl_scan.kept", 0)
    metrics["linearization.pl_scan.kept_ratio"] = kept / drawn if drawn else 0.0
    metrics["trace.unattributed_s"] = rec["wall_s"] - trace["root_s"]
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, fixture: str = "desk"):
    """Measure one workload; return (result line, run record)."""
    _require_sources(fixture)
    spec = _spec()
    WORK.mkdir(exist_ok=True)
    slots = WORK / "runs"
    shutil.rmtree(slots, ignore_errors=True)
    modes = ("run", "trace") if trace else ("run",)
    probes, commands = [], []

    def probe():
        # The machine runs in fast and slow phases lasting seconds, longer
        # than one set-up; probes before every command and after the last
        # sample every part of the run, not one phase.
        for _ in range(0 if trace else SETUP_PROBES):
            probes.append(launch(workload, fixture, seed, "setup", slots / f"setup{len(probes)}"))

    start = time.monotonic()
    while True:
        probe()
        for mode in modes:
            slot = slots / f"{mode}{len(commands)}"
            commands.append(launch(workload, fixture, seed, mode, slot))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(commands) * len(modes) > seconds:
            break
    probe()
    shutil.rmtree(slots, ignore_errors=True)
    args = " ".join(WORKLOADS[workload]["args"])
    check_identical(commands, f"{source_digest(fixture)}:{args}:{fixture}:{seed}")

    processes = probes + commands
    failed = sum(bool(r["errors"]) for r in processes)
    untraced = [r for r in commands if r["mode"] == "run"]
    if trace:
        traced = [r for r in commands if r["mode"] == "trace"]
        per_command = [layer_metrics(r) for r in traced]
        values = {
            m["name"]: _median([pc.get(m["name"], 0) for pc in per_command])
            for m in spec["per_layer"]
        }
        values["trace.overhead_s"] = _median([r["wall_s"] for r in traced]) - _median(
            [r["wall_s"] for r in untraced]
        )
        listed = spec["per_layer"]
    else:
        values = {
            key: _median([r[key] for r in untraced])
            for key in ("wall_s", "cpu_s", "peak_rss_mb")
        }
        values["setup_s"] = _median([r["setup_s"] for r in probes if "setup_s" in r])
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    result = {
        "correct": failed == 0 and all(math.isfinite(v["value"]) for v in metrics.values()),
        "attempted": len(processes),
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": workload,
        "fixture": fixture,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(next((r["numpy"] for r in processes if r["numpy"]), None)),
        "fail_rate": failed / len(processes),
        "samples": {
            "run": len(untraced),
            "trace": len(commands) - len(untraced),
            "setup": sum("setup_s" in r for r in probes),
        },
        "processes": [
            {k: v for k, v in r.items() if k not in ("trace", "digests")} for r in processes
        ],
    }
    return result, record


def _git(*args):
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(numpy_version) -> dict:
    sha = None
    if _git("rev-parse", "--show-toplevel") == str(ROOT):
        sha = _git("rev-parse", "HEAD")
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu
            )
    except OSError:
        pass
    return {
        "git_sha": sha,
        "git_dirty": bool(_git("status", "--porcelain", "--untracked-files=no")) if sha else None,
        "source_sha256": source_digest("desk") if (ROOT / "fixtures/desk.json").is_file() else None,
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "thread_env": THREAD_ENV,
    }


# -- smoke -------------------------------------------------------------------


def smoke() -> int:
    """Every workload on mini, untraced and traced; every metric with its unit."""
    spec = _spec()
    per_layer = {m["name"] for m in spec["per_layer"]}
    names = [w["name"] for w in spec["workloads"]]
    problems = []
    if sorted(names) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json and workloads.json list different workloads")
    for name in names:
        for metric in WORKLOADS.get(name, {}).get("moves", ()):
            if metric not in per_layer:
                problems.append(f"{name} moves unknown metric {metric}")
        for trace, listed in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result, _ = run(name, seed=1, seconds=0, trace=trace, fixture="mini")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in listed}
            if got != want:
                problems.append(f"{name} trace={int(trace)}: metrics {got} != {want}")
            if not result["correct"]:
                problems.append(f"{name} trace={int(trace)}: {result}")
            print(f"smoke {name} trace={int(trace)}: {'ok' if result['correct'] else 'FAIL'}")
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        seconds = _spec()["run_seconds"] if args.seconds is None else args.seconds
        result, record = run(args.workload, args.seed, seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
