"""The benchmark's tracer binds package names by string: every span target
in ``perfbench/spans.py`` and every function ``perfbench/child.py`` wraps
must exist, or ``perfbench/run.py --trace 1`` breaks."""

import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mfoc.cli import main
from mfoc.model import ActivationField

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, module, attr", [t[:3] for t in _spans().TARGETS])
def test_span_target_resolves(name, module, attr):
    owner = importlib.import_module(module)
    cls_name, _, fn_name = attr.rpartition(".")
    if cls_name:
        # instrument() rebinds the method found in the class's own namespace
        owner = getattr(owner, cls_name).__dict__
        assert callable(owner.get(fn_name)), name
    else:
        assert callable(getattr(owner, fn_name, None)), name


def test_child_marks_resolve():
    cli = importlib.import_module("mfoc.cli")
    wrapped = re.findall(r"^\s*cli\.(\w+) = mark\(", (PERFBENCH / "child.py").read_text(), re.M)
    assert sorted(wrapped) == ["_initial_grid_path", "sample_prior"]
    for attr in wrapped:
        assert callable(getattr(cli, attr, None)), attr


@pytest.mark.parametrize("settings", [[], ["--set", "descent.backend=particle"]])
def test_child_reaches_the_setup_mark(tmp_path, settings):
    # a command that stops calling a marked name would leave setup_s unmeasured
    report = tmp_path / "report.json"
    command = "descent" if settings else "solve"
    args = [command, "--config", str(ROOT / "fixtures" / "mini.json"), *settings]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    child = [sys.executable, str(PERFBENCH / "child.py"), "setup", str(report), "--"]
    out = str(tmp_path / "out")
    subprocess.run([*child, *args, "--out", out], env=env, check=True, timeout=300)
    assert json.loads(report.read_text())["setup_mark"] is not None


@pytest.mark.parametrize("command", [["solve"], ["descent", "--set", "descent.backend=particle"]])
def test_traced_kernel_calls_are_the_calls_of_the_command(tmp_path, kernel_calls, monkeypatch, command):
    # the tracer counts model.tiers through spans._count_tiers, which reads
    # the kernel's arguments; a drift of the kernel's API would lose calls.
    # A particle descent also contracts the kept tiers in grad_a_batch
    gradients, original = [], ActivationField.grad_a_batch

    def counting(self, *args):
        gradients.append(args[1].shape[0])
        return original(self, *args)

    monkeypatch.setattr(ActivationField, "grad_a_batch", counting)
    report = tmp_path / "report.json"
    args = [command[0], "--config", str(ROOT / "fixtures" / "mini.json"), *command[1:]]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    child = [sys.executable, str(PERFBENCH / "child.py"), "trace", str(report), "--"]
    traced_out = str(tmp_path / "traced")
    subprocess.run([*child, *args, "--out", traced_out], env=env, check=True, timeout=300)
    spans = json.loads(report.read_text())["trace"]["spans"]
    assert main([*args, "--out", str(tmp_path / "direct")]) == 0
    assert spans["model.tiers"]["calls"] == len(kernel_calls) > 0
    traced = spans.get("model.grad_a_batch", {"calls": 0})["calls"]
    assert traced == len(gradients) and (traced > 0) == (command[0] == "descent")
