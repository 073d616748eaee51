"""Every command's output bytes, pinned: each case of the golden set runs in
process and must reproduce its pin in ``tests/golden`` (every file but
``manifest.json``, and the exit code). ``tests/golden/regenerate.py`` runs
the same set and rewrites the pins after an intentional numerical change."""

import importlib.util
from pathlib import Path

import pytest

from mfoc.cli import main

_spec = importlib.util.spec_from_file_location(
    "golden_regenerate", Path(__file__).resolve().parent / "golden" / "regenerate.py"
)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


@pytest.mark.parametrize("case, args", golden.CASES, ids=[case for case, _ in golden.CASES])
def test_outputs_match_their_pins(tmp_path, case, args):
    out = tmp_path / "out"
    code = main([*args, "--config", str(golden.fixture_of(case)), "--out", str(out)])
    assert golden.digests(out, code) == golden.read_pin(case)
