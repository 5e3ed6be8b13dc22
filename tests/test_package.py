"""The package namespace: every exported name resolves, and the names of
wittcurve.verify and run_command, loaded on first use, behave like eagerly
imported ones."""

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


@pytest.mark.parametrize("name", VERIFY_NAMES)
def test_a_verify_name_is_bound_on_first_use(name, monkeypatch):
    monkeypatch.delitem(vars(wittcurve), name, raising=False)
    assert getattr(wittcurve, name) is getattr(wittcurve.verify, name)
    assert vars(wittcurve)[name] is getattr(wittcurve.verify, name)


def test_run_command_is_bound_on_first_use(monkeypatch):
    monkeypatch.delitem(vars(wittcurve), "run_command", raising=False)
    assert wittcurve.run_command is wittcurve.cli.run_command
    assert vars(wittcurve)["run_command"] is wittcurve.cli.run_command


def test_run_command_loads_cli_on_first_use():
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import wittcurve; "
        "before = 'wittcurve.cli' in sys.modules; "
        "code = wittcurve.run_command(['equal', '<1,-1>', '<>']); "
        "print(before, 'wittcurve.cli' in sys.modules, code)"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False True 0"


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
