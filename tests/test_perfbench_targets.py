"""The benchmark's tracer binds package names by string: every span target
in ``perfbench/spans.py`` and every function ``perfbench/child.py`` wraps
must exist, or ``perfbench/run.py --trace 1`` breaks."""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
