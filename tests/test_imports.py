"""Every name a package or test module imports is used there or
re-exported through its ``__all__``: a dead import is the trace of a removed
code path. The check reads the source with the standard-library ``ast``
module only."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "mfoc"
# the package and the tests; perfbench/ changes only with the benchmark
MODULES = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by the module's imports that no expression reads and that
    its ``__all__`` does not list, in order of appearance."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("module", MODULES, ids=lambda path: path.name)
def test_module_uses_every_import(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def test_guard_catches_a_dead_import():
    source = (
        "from .optimizer import cost_report, total_cost\n"
        "import numpy as np\n"
        "__all__ = ['pl_scan']\n"
        "def pl_scan():\n"
        "    return total_cost(np.zeros(1))\n"
    )
    assert unused_imports(source) == ["cost_report"]
