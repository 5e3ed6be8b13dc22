"""Golden output: the exact text the command line and the enumerations print,
under this interpreter and under each other supported one on PATH or
installed beside it.

The corpus and how to rebuild it are in golden_corpus.py.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from golden_corpus import CASES, GOLDEN, cli_transcript, enumeration_listing

SRC = Path(__file__).parents[1] / "src"

# pyproject.toml claims requires-python >=3.10: the corpus is replayed under
# each of these that runs.
OTHER_PYTHONS = ("python3.10", "python3.12", "python3.13")


@pytest.mark.parametrize("q, fmt", CASES, ids=lambda v: str(v))
def test_cli_output_is_golden(q, fmt):
    expected = (GOLDEN / f"cli-q{q}-{fmt}.txt").read_text(encoding="utf-8")
    assert cli_transcript(q, fmt) == expected


@pytest.mark.parametrize("q", (1, 3))
def test_enumeration_strings_are_golden(q):
    expected = (GOLDEN / f"enumerations-q{q}.txt").read_text(encoding="utf-8")
    assert enumeration_listing(q) == expected


def _exit_code(path) -> int:
    return subprocess.run([path, "-c", "pass"], capture_output=True, timeout=60).returncode


def _interpreter(name: str) -> str:
    """The path of a python on PATH that runs, else of the same-named one
    installed beside the running interpreter, or a skip."""
    if name == "this":
        return sys.executable
    path = shutil.which(name)
    # A version manager's shim can be on PATH for a version it will not run.
    code = None if path is None else _exit_code(path)
    if code == 0:
        return path
    # Version managers install each version in a sibling of this one's
    # prefix, such as versions/3.10.13/bin/python3.10.
    version = name.removeprefix("python")
    for beside in sorted(Path(sys.base_prefix).parent.glob(f"{version}*/bin/{name}")):
        if _exit_code(beside) == 0:
            return str(beside)
    pytest.skip(f"{name} is not on PATH" if path is None else f"{name} on PATH exits {code}")


@pytest.mark.parametrize("name", ("this",) + OTHER_PYTHONS)
def test_corpus_is_golden_under_each_python(name, tmp_path):
    # The running interpreter checks the child replay itself, so the test
    # runs where no other interpreter is installed.
    python = _interpreter(name)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(
        [python, str(Path(__file__).with_name("golden_corpus.py")), str(tmp_path)],
        env=env,
        check=True,
        timeout=120,
    )
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == sorted(path.name for path in GOLDEN.iterdir())
    for file in written:
        assert (tmp_path / file).read_bytes() == (GOLDEN / file).read_bytes(), file
