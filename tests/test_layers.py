"""The package's modules form one-way layers, read from their import statements.

groups -> forms -> {engine, group_ring, syntax} -> verify -> cli

A module may import only modules on a lower layer.  The two decision engines,
engine (the invariants) and group_ring (the group-ring model), stay
independent: neither imports the other, and group_ring never reads a form's
summary, so their agreement in verify.check_ring_iso is a real cross-check.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wittcurve"

LAYER = {
    "groups": 0,
    "forms": 1,
    "engine": 2,
    "group_ring": 2,
    "syntax": 2,
    "verify": 3,
    "cli": 4,
    "__main__": 5,
    "__init__": 5,
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


# What the invariant engine decides with: the additive form summary.
SUMMARY_NAMES = {"Summary", "summarize", "summary", "_summary"}


def test_engines_stay_independent():
    assert "engine" not in _package_imports("group_ring")
    assert "group_ring" not in _package_imports("engine")
    # Of the layer below, only the form type: group_ring computes its own
    # sign twist and scans the entries itself.
    from_forms = {
        alias.name
        for node in ast.walk(_tree("group_ring"))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "forms"
        for alias in node.names
    }
    assert from_forms == {"DiagonalForm"}
    # group_ring scans the packed entries itself; reading the summary would
    # make the cross-check in verify.check_ring_iso compare the engine with
    # itself.
    read = set()
    for node in ast.walk(_tree("group_ring")):
        if isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            read.update(alias.asname or alias.name for alias in node.names)
    assert not read & SUMMARY_NAMES, f"group_ring reads {sorted(read & SUMMARY_NAMES)}"


def _imported_modules(module: str) -> set[str]:
    """Top-level names of the outside modules a module imports."""
    found = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
    return found


# Each of these costs milliseconds at every start of the command line tool,
# and the package needs none: dataclasses alone pulls in inspect, ast, dis and
# tokenize.
SLOW_IMPORTS = {"dataclasses", "inspect", "pathlib", "typing"}


@pytest.mark.parametrize("module", MODULES)
def test_no_slow_standard_module(module):
    slow = _imported_modules(module) & SLOW_IMPORTS
    assert not slow, f"{module} imports {sorted(slow)}"


# What only some commands use; the others must not load it.
LAZY_MODULES = {"wittcurve.engine", "wittcurve.group_ring", "wittcurve.verify", "json", "csv"}


def _modules_in_child(statements: str, watched: set[str]) -> list[str]:
    """Run statements in a `python -S` child (no site hook, which here
    pre-loads pathlib and typing itself) with the package's source on the path,
    and return which of the watched modules it then has loaded."""
    code = (
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); {statements}; "
        f"print(sorted(sys.modules.keys() & {sorted(watched)!r}))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert result.returncode in (0, 1), result.stderr
    return ast.literal_eval(result.stdout.splitlines()[-1])


def test_cli_import_loads_no_slow_standard_module():
    for module in ("wittcurve", "wittcurve.cli"):
        loaded = _modules_in_child(f"import {module}", SLOW_IMPORTS | LAZY_MODULES)
        assert loaded == [], f"import {module} loads {loaded}"
    # A library user does not load the command line.
    loaded = _modules_in_child("import wittcurve", {"wittcurve.cli", "argparse"})
    assert loaded == [], f"import wittcurve loads {loaded}"


@pytest.mark.parametrize(
    "argv, expected",
    [
        pytest.param(["reduce", "<1,s*L1,pi>"], ["wittcurve.group_ring"], id="reduce"),
        pytest.param(["equal", "<1,-1>", "<>"], ["wittcurve.engine"], id="equal"),
        pytest.param(["invariants", "<1,s*L1,pi>"], ["wittcurve.engine"], id="invariants"),
        pytest.param(["enumerate"], ["wittcurve.group_ring"], id="enumerate"),
        pytest.param(
            ["invariants", "<1,pi>", "--format", "json"],
            ["json", "wittcurve.engine"],
            id="invariants-json",
        ),
        pytest.param(
            ["enumerate", "--format", "csv"], ["csv", "wittcurve.group_ring"], id="enumerate-csv"
        ),
        pytest.param(
            ["verify", "--picard-rank", "0"],
            ["wittcurve.engine", "wittcurve.group_ring", "wittcurve.verify"],
            id="verify",
        ),
    ],
)
def test_a_command_loads_only_what_it_uses(argv, expected):
    statements = f"from wittcurve.cli import run_command; run_command({argv!r})"
    assert _modules_in_child(statements, LAZY_MODULES) == expected


# The only imports inside a function, each at the boundary where a module is
# first needed: the commands or the format that use it, or the first read of a
# package name, which the package's __getattr__ then binds so that it runs
# once per name.  A function-level relative import costs 1.4-1.9 us per call
# (timeit): nothing once per command, which is how often cli runs each of these.
FUNCTION_LEVEL_IMPORTS = {
    # Only --format json writes JSON, and only --format csv writes CSV.
    ("cli", "_render"): {"csv", "json"},
    # reduce and enumerate decide in the group-ring model alone, and equal and
    # invariants on the invariants alone: a command loads one engine.
    ("cli", "_cmd_reduce"): {"group_ring"},
    ("cli", "_cmd_enumerate"): {"group_ring"},
    ("cli", "_cmd_equal"): {"engine"},
    ("cli", "_cmd_invariants"): {"engine"},
    # Only `wittcurve verify` runs the suites, which load both engines, and
    # verify is the largest module to compile.
    ("cli", "_cmd_verify"): {"verify"},
    # Every exported name and submodule of the package, loaded on first use
    # (PEP 562) through the __import__ builtin, which takes the submodule's
    # name as a string: `import wittcurve` compiles no submodule, and a caller
    # loads only the modules whose names it reads.
    ("__init__", "__getattr__"): {"__import__"},
}


def _function_level_imports(module: str) -> dict[tuple[str, str], set[str]]:
    """Per (module, function), the modules imported inside the function; a
    call of the __import__ builtin counts as an import of "__import__"."""
    found: dict[tuple[str, str], set[str]] = {}
    for node in ast.walk(_tree(module)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for child in ast.walk(node):
            if isinstance(child, ast.Import):
                names = {alias.name for alias in child.names}
            elif isinstance(child, ast.ImportFrom):
                names = {child.module} if child.module else {a.name for a in child.names}
            elif (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "__import__"
            ):
                names = {"__import__"}
            else:
                continue
            found.setdefault((module, node.name), set()).update(names)
    return found


@pytest.mark.parametrize("module", MODULES)
def test_no_import_inside_a_function(module):
    """No function imports, except the ones FUNCTION_LEVEL_IMPORTS lists: a new
    one fails, and so does a listed one that is gone."""
    listed = {key: names for key, names in FUNCTION_LEVEL_IMPORTS.items() if key[0] == module}
    assert _function_level_imports(module) == listed


def _module_names(tree: ast.Module) -> set[str]:
    """Names a module binds at its top level: imports, functions, classes and
    assignments."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(
                name.id
                for target in targets
                for name in ast.walk(target)
                if isinstance(name, ast.Name)
            )
    return names


@pytest.mark.parametrize("module", MODULES)
def test_no_local_name_shadows_a_module_name(module):
    # A local that takes the name of, say, an imported itertools.product hides
    # it for the rest of the function, and a later edit that means the import
    # gets the local.
    tree = _tree(module)
    module_names = _module_names(tree)
    shadowing = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for child in ast.walk(node):
                if isinstance(child, ast.arg):
                    name = child.arg
                elif isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store):
                    name = child.id
                else:
                    continue
                if name in module_names:
                    shadowing.add(f"{module}.{getattr(node, 'name', '<lambda>')}: {name}")
    assert not shadowing, f"locals shadow module names: {sorted(shadowing)}"
