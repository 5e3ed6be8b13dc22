"""Tests for the scripts under tools/."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNT_LINES = ROOT / "tools" / "count_lines.py"

# Eight code lines: the import, the class and the two def lines, the call
# wrapped over three lines, and the return with its trailing comment.
MODULE = '''"""A module docstring
over two lines."""

# A comment line.
import os


class Thing:
    """A class docstring."""

    # A comment inside the class.
    def method(self):
        """A function docstring
        over two lines.
        """

        return os.path.join(
            "a",
            "b")


def function():
    """A one-line docstring."""
    return 1  # a trailing comment
'''


def _count_lines(*args: str) -> dict[str, int]:
    """The rows count_lines prints, by module name and 'total'."""
    out = subprocess.run(
        [sys.executable, str(COUNT_LINES), *args],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return {name: int(count) for name, count in map(str.split, out.splitlines())}


def test_count_lines_skips_docstrings_comments_and_blank_lines(tmp_path):
    package = tmp_path / "src" / "wittcurve"
    package.mkdir(parents=True)
    (package / "thing.py").write_text(MODULE, encoding="utf-8")
    assert _count_lines(str(tmp_path)) == {"thing.py": 8, "total": 8}


def test_count_lines_total_is_the_sum_of_the_module_rows():
    rows = _count_lines()
    total = rows.pop("total")
    assert "group_ring.py" in rows
    assert total == sum(rows.values())
