"""Source rules that hold for every module of the package."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1]
                  / "src" / "vibroimpact").glob("*.py"))


def _names(node):
    """The exception names an ``except`` clause lists (dotted names by
    their last part)."""
    for n in node.elts if isinstance(node, ast.Tuple) else [node]:
        yield n.attr if isinstance(n, ast.Attribute) else getattr(n, "id", "")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_catch_all_handler(path):
    """Failures stay typed: no bare ``except:``, and no handler that names
    ``Exception`` or ``BaseException``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ExceptHandler):
            where = f"{path.name}:{node.lineno}"
            assert node.type is not None, f"{where}: bare except"
            caught = set(_names(node.type))
            assert not caught & {"Exception", "BaseException"}, \
                f"{where}: except {', '.join(sorted(caught))}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_scipy_optimize(path):
    """Root finding is the package's own (``lockstep.brentq1`` and
    ``lockstep.brentq``): nothing imports ``scipy.optimize``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{a.name}"
                                     for a in node.names]
        else:
            continue
        for name in names:
            assert not (name + ".").startswith("scipy.optimize."), \
                f"{path.name}:{node.lineno} imports {name}"
