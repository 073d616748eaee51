"""Every configuration document ends in a documented exit.

A property test mutates a tiny copy of fixtures/mini.json and runs each
command in process through ``cli.main``: whatever the mutation, the command
returns 0, 1, 2 or 3 and raises nothing. A run that gets past loading its
document leaves a manifest; one that does not exits 1 with a one-line
configuration error. Size settings stay tiny so that the test stays cheap.
"""

import copy
import json
import math
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from mfoc.cli import main

MINI = Path(__file__).resolve().parent.parent / "fixtures" / "mini.json"

# the base document: mini at a size where every command takes milliseconds
TINY = {
    "measure.res": 4,
    "grid.nt": 3,
    "solve.max_iters": 20,
    "descent.steps": 1,
    "descent.particles": 16,
    "pl_scan.samples": 1,
    "stability.iters": 2,
}

# settings that size the work: mutated only within a tiny range
SIZE_KEYS = sorted(TINY)

# every other setting, mutated to any value
FREE_KEYS = [
    "epsilon",
    "seed",
    "field.family",
    "field.sigma",
    "field.d1",
    "potential.c1",
    "potential.c2",
    "loss.kind",
    "loss.d1",
    "loss.d2",
    "grid.t0",
    "grid.T",
    "measure.box_halfwidth",
    "solve.damping",
    "solve.tol",
    "descent.backend",
    "descent.step_size",
    "descent.init_tilt",
    "stability.margin",
    "pl_scan.radius",
]
SECTIONS = ["field", "potential", "loss", "dataset", "grid", "measure", "solve"]
SECTIONS += ["descent", "stability", "pl_scan"]

ODD = st.sampled_from([None, True, "x", "", [], {}, [1.0], math.nan, math.inf, -math.inf])
WORDS = st.sampled_from(
    ["grid", "particle", "tanh", "logistic", "quadratic", "componentwise-ridge"]
    + ["ridge-with-outer-weight", "bogus"]
)
SIZES = st.one_of(st.integers(-2, 6), st.floats(-2.0, 6.0), ODD)
VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-1000, 1000),
    st.floats(-4.0, 4.0),
    WORDS,
    ODD,
)
POINTS = st.lists(
    st.one_of(st.lists(st.one_of(st.floats(-3.0, 3.0), ODD), max_size=3), ODD), max_size=4
)

MUTATIONS = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(SIZE_KEYS), SIZES),
    st.tuples(st.just("set"), st.just("measure.res"), st.sampled_from([2, 3])),
    st.tuples(st.just("set"), st.sampled_from(FREE_KEYS), VALUES),
    st.tuples(st.just("set"), st.just("dataset.points"), POINTS),
    st.tuples(st.just("set"), st.sampled_from(SECTIONS), ODD),
    st.tuples(st.just("set"), st.sampled_from(["unknown", "measure.unknown"]), VALUES),
    st.tuples(st.just("delete"), st.sampled_from(SIZE_KEYS + FREE_KEYS + SECTIONS), st.none()),
)


def _set(doc, dotted, value):
    *parents, last = dotted.split(".")
    node = doc
    for part in parents:
        if not isinstance(node.get(part), dict):
            node[part] = {}
        node = node[part]
    node[last] = value


def _delete(doc, dotted):
    *parents, last = dotted.split(".")
    node = doc
    for part in parents:
        node = node.get(part)
        if not isinstance(node, dict):
            return
    node.pop(last, None)


def mutated_document(mutations):
    doc = json.loads(MINI.read_text())
    for dotted, value in TINY.items():
        _set(doc, dotted, value)
    for action, dotted, value in mutations:
        if action == "set":
            # a copy: the strategies share their list and dict examples
            _set(doc, dotted, copy.deepcopy(value))
        else:
            _delete(doc, dotted)
    return doc


@settings(
    max_examples=60,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    command=st.sampled_from(["solve", "descent", "stability", "pl-scan", "check"]),
    mutations=st.lists(MUTATIONS, min_size=1, max_size=3),
)
def test_every_mutation_ends_in_a_documented_exit(tmp_path_factory, capsys, command, mutations):
    root = tmp_path_factory.mktemp("run")
    config = root / "config.json"
    # allow_nan: NaN and Infinity are what a hand-edited document may carry
    config.write_text(json.dumps(mutated_document(mutations), allow_nan=True))
    out = root / "out"
    capsys.readouterr()
    # overflowing settings may warn; the exit is what this test reads
    with np.errstate(all="ignore"):
        code = main([command, "--config", str(config), "--out", str(out)])
    err = capsys.readouterr().err
    event(f"{command} exit {code}")
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if (out / "manifest.json").exists():
        json.loads((out / "manifest.json").read_text())
    else:
        # only a document that fails to load leaves no run directory behind
        assert code == 1 and err.startswith("configuration error: ")
        assert err.count("\n") == 1


def test_base_document_runs_every_command(tmp_path):
    for command in ("solve", "descent", "stability", "pl-scan"):
        config = tmp_path / f"{command}.json"
        config.write_text(json.dumps(mutated_document([])))
        out = tmp_path / command
        assert main([command, "--config", str(config), "--out", str(out)]) == 0
        assert (out / "manifest.json").exists()
