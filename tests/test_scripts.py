"""The scripts under scripts/ call the package by name; a rename or a
dropped parameter must fail here, not in a user's run."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_api_resolves(path):
    """Every name a script imports from ``vibroimpact`` exists, and every
    keyword it passes to one of them is a parameter of that callable."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "vibroimpact":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), \
                    f"{node.module}.{alias.name} is gone"
                imported[alias.asname or alias.name] = getattr(module,
                                                               alias.name)
    assert imported
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in imported):
            continue
        params = inspect.signature(imported[node.func.id]).parameters
        if any(q.kind is q.VAR_KEYWORD for q in params.values()):
            continue
        for kw in node.keywords:
            if kw.arg is not None:
                assert kw.arg in params, \
                    f"{path.name}:{node.lineno}: {node.func.id}({kw.arg}=...)"
