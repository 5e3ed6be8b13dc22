"""The package's modules form one-way layers, read from their import statements.

groups -> forms -> {symbols, group_ring, syntax} -> engine -> verify -> cli

A module may import only modules on a lower layer.  The two decision engines
stay independent: group_ring imports neither engine nor symbols, so their
agreement in verify.check_ring_iso is a real cross-check.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wittcurve"

LAYER = {
    "groups": 0,
    "forms": 1,
    "symbols": 2,
    "group_ring": 2,
    "syntax": 2,
    "engine": 3,
    "verify": 4,
    "cli": 5,
    "__main__": 6,
    "__init__": 6,
}

MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def _package_imports(module: str) -> set[str]:
    """Names of the package's own modules that a module imports."""
    found = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.split(".")[0] == "wittcurve":
                parts = node.module.split(".")
                found.add(parts[1] if len(parts) > 1 else "__init__")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "wittcurve":
                    found.add(parts[1] if len(parts) > 1 else "__init__")
    return found


def test_every_module_has_a_layer():
    assert set(MODULES) == set(LAYER)


@pytest.mark.parametrize("module", MODULES)
def test_imports_point_down(module):
    upward = {
        imported
        for imported in _package_imports(module)
        if LAYER[imported] >= LAYER[module]
    }
    assert not upward, f"{module} imports {sorted(upward)} from its own layer or above"


def test_engines_stay_independent():
    assert not _package_imports("group_ring") & {"engine", "symbols"}


@pytest.mark.parametrize("module", MODULES)
def test_no_import_inside_a_function(module):
    for node in ast.walk(_tree(module)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = [
                child.lineno
                for child in ast.walk(node)
                if isinstance(child, (ast.Import, ast.ImportFrom))
            ]
            assert not inner, f"{module}.{node.name} imports at lines {inner}"
