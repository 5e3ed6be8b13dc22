"""The package namespace: every exported name and every submodule resolves,
each loaded on first use, and behaves like an eagerly imported one; a bare
`import wittcurve` loads no submodule."""

import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import wittcurve
import wittcurve.cli
import wittcurve.verify
from wittcurve import CurveConfig

SRC = Path(__file__).resolve().parent.parent / "src"
SUBMODULES = sorted(
    p.stem for p in (SRC / "wittcurve").glob("*.py") if p.stem not in ("__init__", "__main__")
)

VERIFY_NAMES = [
    "QuaternionDistinctnessReport",
    "RankOneStructureReport",
    "RelationSuiteReport",
    "RingIsoReport",
    "check_ring_iso",
    "rank_one_group_structure",
    "verify_generator_relations",
    "verify_quaternion_distinctness",
]


def test_every_exported_name_resolves():
    missing = [name for name in wittcurve.__all__ if not hasattr(wittcurve, name)]
    assert not missing


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from wittcurve import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(wittcurve.__all__)


def test_all_is_the_table_of_exported_names():
    assert wittcurve.__all__ == sorted(wittcurve._MODULE_OF)
    assert sorted(set(wittcurve._MODULE_OF.values())) == SUBMODULES


def _check_bound_on_first_use(name, monkeypatch):
    """With its binding removed, a name reads as the very object its module
    defines, and the read binds it in the package."""
    monkeypatch.delitem(vars(wittcurve), name, raising=False)
    value = getattr(wittcurve, name)
    assert value.__module__ == f"wittcurve.{wittcurve._MODULE_OF[name]}"
    assert value is vars(sys.modules[value.__module__])[name]
    assert vars(wittcurve)[name] is value


# The verify names and run_command keep their own tests below.
@pytest.mark.parametrize(
    "name", [n for n in wittcurve.__all__ if n not in VERIFY_NAMES and n != "run_command"]
)
def test_an_exported_name_is_bound_on_first_use(name, monkeypatch):
    _check_bound_on_first_use(name, monkeypatch)


@pytest.mark.parametrize("name", VERIFY_NAMES)
def test_a_verify_name_is_bound_on_first_use(name, monkeypatch):
    _check_bound_on_first_use(name, monkeypatch)


def test_run_command_is_bound_on_first_use(monkeypatch):
    _check_bound_on_first_use("run_command", monkeypatch)


def _run_in_child(statements: str) -> str:
    """The last line a `python -S` child prints after running statements with
    the package's source on the path; without the site hook, the child starts
    with no module of the package loaded."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); {statements}"
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1]


@pytest.mark.parametrize(
    "statements, loaded",
    [
        pytest.param("import wittcurve", [], id="import"),
        pytest.param(
            "import wittcurve; wittcurve.make_config", ["wittcurve.groups"], id="make_config"
        ),
        pytest.param(
            "from wittcurve import parse_form",
            ["wittcurve.forms", "wittcurve.groups", "wittcurve.syntax"],
            id="parse_form",
        ),
        # Each decision engine loads without the other.
        *(
            pytest.param(
                f"from wittcurve import {name}",
                ["wittcurve.engine", "wittcurve.forms", "wittcurve.groups"],
                id=name,
            )
            for name in ("equals", "invariant_profile", "hasse_invariant")
        ),
        *(
            pytest.param(
                f"from wittcurve import {name}",
                ["wittcurve.forms", "wittcurve.group_ring", "wittcurve.groups"],
                id=name,
            )
            for name in ("canonical_form", "enumerate_classes", "to_group_ring")
        ),
    ],
)
def test_a_read_loads_only_the_modules_it_uses(statements, loaded):
    printed = _run_in_child(
        f"{statements}; print(sorted(m for m in sys.modules if m.startswith('wittcurve.')))"
    )
    assert printed == repr(loaded)


def test_every_submodule_resolves_after_a_bare_import():
    statements = (
        f"import wittcurve; print([getattr(wittcurve, m) is sys.modules['wittcurve.' + m] "
        f"for m in {SUBMODULES!r}])"
    )
    assert _run_in_child(statements) == repr([True] * len(SUBMODULES))


def test_run_command_loads_cli_on_first_use():
    statements = (
        "import wittcurve; before = 'wittcurve.cli' in sys.modules; "
        "code = wittcurve.run_command(['equal', '<1,-1>', '<>']); "
        "print(before, 'wittcurve.cli' in sys.modules, code)"
    )
    assert _run_in_child(statements) == "False True 0"


def test_dir_lists_every_exported_name():
    assert set(wittcurve.__all__) <= set(dir(wittcurve))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'wittcurve' has no attribute 'nope'$"):
        wittcurve.nope


@pytest.mark.parametrize("suite", [name for name in VERIFY_NAMES if name.islower()])
def test_verify_report_pickles_load_in_a_fresh_interpreter(suite):
    report = getattr(wittcurve, suite)(CurveConfig(3, 1))
    data = pickle.dumps(report)
    assert pickle.loads(data) == report
    # A fresh interpreter has not loaded wittcurve.verify; unpickling must.
    code = (
        f"import pickle, sys; sys.path.insert(0, {str(SRC)!r}); "
        "print(repr(pickle.loads(sys.stdin.buffer.read())))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], input=data, capture_output=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.decode() == repr(report) + "\n"
