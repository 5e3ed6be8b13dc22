"""Tests for the scripts under tools/."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"
COUNT_LINES = TOOLS / "count_lines.py"

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


def _measure(tool: str, small: str) -> list[str]:
    """The lines tools/<tool>.py prints against this checkout as its parent,
    with its round and size constants set small by the statements small."""
    code = (
        f"import sys; sys.path.insert(0, {str(TOOLS)!r}); import {tool}; {small}; "
        f"sys.argv = [{tool}.__file__, '--parent', {str(ROOT)!r}]; sys.exit({tool}.main())"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


# Both scripts reach private names of the package (syntax._parse_with_cursor,
# DiagonalForm._from_packed), so a refactor that breaks them fails here.
def test_measure_syntax_prints_its_tables():
    lines = _measure(
        "measure_syntax",
        "measure_syntax.ROUNDS = measure_syntax.CURSOR_ROUNDS = 1; "
        "measure_syntax.ENTRIES = 64; measure_syntax.CALLS = 10",
    )
    assert lines[0].endswith("64 entries, best of 1 rounds")
    assert "| | `r = 2` | `r = 16` |" in lines
    assert "| `parse_form` at `r = 2`, per call | |" in lines


def test_measure_suites_prints_its_tables():
    lines = _measure(
        "measure_suites", "measure_suites.ROUNDS = 1; measure_suites.CALL_SECONDS = 0"
    )
    assert lines[0].endswith("best of 1 rounds, q = 1 / q = 3")
    assert lines.count("| Suite | `r = 0` | `r = 1` | `r = 2` |") == 2
    assert "Median per-round ratio, this version over the parent:" in lines
    assert sum(line.startswith("| `check_ring_iso` |") for line in lines) == 2
