"""Run the pinned output set and compare it with its golden digests.

Each case of ``CASES`` is one ``mfoc`` run on a fixture; its pin file in this
directory lists ``<file> <sha256>`` for every file the run writes except
``manifest.json``, and a line ``exit <code>``. ``tests/test_golden.py`` runs
the same cases in process.

    python3 tests/golden/regenerate.py [--old CHECKOUT] [--write]

runs every case on this tree's ``src/`` in fresh processes and prints, per
file, the pinned and the new digest. With ``--old`` it runs each case on
``CHECKOUT/src`` too and adds the largest absolute difference between the
numbers of the old and the new file, read in order; ``shape`` means the two
files hold different counts of numbers. ``--write`` rewrites the pin files
from the new run. Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
ROOT = GOLDEN.parent.parent

# (case, command line after ``mfoc``); the fixture is the case's suffix
CASES = (
    ("solve_mini", ["solve"]),
    ("solve_mini_zero", ["solve"]),
    ("solve_desk", ["solve"]),
    ("stability_mini", ["stability"]),
    ("stability_mini_zero", ["stability"]),
    ("stability_desk", ["stability"]),
    ("pl-scan_mini", ["pl-scan", "--set", "pl_scan.samples=2"]),
    ("pl-scan_mini_zero", ["pl-scan", "--set", "pl_scan.samples=2"]),
    ("pl-scan_desk", ["pl-scan", "--set", "pl_scan.samples=2"]),
    ("descent_mini", ["descent"]),
    ("descent_desk", ["descent", "--set", "descent.steps=3"]),
    ("descent-particle_mini", ["descent", "--set", "descent.backend=particle"]),
    (
        "descent-particle_desk",
        ["descent", "--set", "descent.backend=particle", "--set", "descent.steps=2"],
    ),
    ("check_mini", ["check"]),
    ("check_desk", ["check"]),
)

# the desk solve's pin predates the set and keeps its name
PIN_NAMES = {"solve_desk": "desk_solve"}

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)\b")


def fixture_of(case: str) -> Path:
    return ROOT / "fixtures" / (case.split("_", 1)[1] + ".json")


def pin_path(case: str) -> Path:
    return GOLDEN / (PIN_NAMES.get(case, case) + ".sha256")


def read_pin(case: str) -> dict:
    """The pinned ``{file: digest}`` of a case, with ``exit`` as a key; a pin
    without an ``exit`` line expects exit 0."""
    pins = dict(line.split() for line in pin_path(case).read_text().strip().split("\n"))
    pins.setdefault("exit", "0")
    return pins


def digests(out: Path, code: int) -> dict:
    """``{file: digest}`` of a run directory, without the manifest, and the
    exit code under ``exit``."""
    found = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.name != "manifest.json"
    }
    return {**found, "exit": str(code)}


def _run(src: Path, case: str, out: Path) -> int:
    args = dict(CASES)[case]
    env = {**os.environ, "PYTHONPATH": str(src)}
    cmd = [sys.executable, "-m", "mfoc.cli", *args, "--config", str(fixture_of(case))]
    done = subprocess.run(cmd + ["--out", str(out)], env=env, capture_output=True)
    return done.returncode


def max_deviation(old: Path, new: Path) -> str:
    """Largest absolute difference of the numbers of two text files, in order."""
    a = _NUMBER.findall(old.read_text())
    b = _NUMBER.findall(new.read_text())
    if len(a) != len(b):
        return "shape"
    worst = 0.0
    for x, y in zip(map(float, a), map(float, b)):
        if x != y and not (math.isnan(x) and math.isnan(y)):
            worst = max(worst, abs(x - y))
    return f"{worst:.3g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--old", type=Path, help="a checkout whose src/ gives the old files")
    parser.add_argument("--write", action="store_true", help="rewrite the pin files")
    args = parser.parse_args(argv)
    changed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for case, _ in CASES:
            new_dir, old_dir = Path(tmp) / case / "new", Path(tmp) / case / "old"
            new = digests(new_dir, _run(ROOT / "src", case, new_dir))
            old_code = _run(args.old.resolve() / "src", case, old_dir) if args.old else None
            pinned = read_pin(case) if pin_path(case).exists() else {}
            for name in sorted(set(new) | set(pinned)):
                before, after = pinned.get(name, "-"), new.get(name, "-")
                if name == "exit":
                    deviation = "" if old_code is None else f"old exit {old_code}"
                elif args.old and (old_dir / name).exists() and (new_dir / name).exists():
                    deviation = max_deviation(old_dir / name, new_dir / name)
                else:
                    deviation = ""
                mark = "same" if before == after else "DIFF"
                changed += before != after
                print(f"{case:22} {name:20} {mark} {before:64} {after:64} {deviation}")
            if args.write:
                lines = [f"{name} {new[name]}" for name in new if name != "exit"]
                pin_path(case).write_text("\n".join(lines + [f"exit {new['exit']}"]) + "\n")
    print(f"{changed} pinned entries differ")
    return 0


if __name__ == "__main__":
    sys.exit(main())
