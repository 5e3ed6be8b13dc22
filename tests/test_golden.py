"""Golden output: the exact text the command line and the enumerations print.

Each file under tests/golden/ holds the expected output byte for byte.  A
CLI file is a sequence of blocks, one per invocation:

    $ wittcurve <arguments>
    exit <code>
    <stdout, exactly as printed>

Regenerate the corpus after an intended output change with

    PYTHONPATH=src python tests/test_golden.py

and review the diff before committing it.
"""

import contextlib
import io
import shlex
from pathlib import Path

import pytest

from wittcurve import (
    CurveConfig,
    enumerate_generators,
    enumerate_groups,
    enumerate_residue_classes,
    run_command,
)

GOLDEN = Path(__file__).parent / "golden"

FORMS = [
    "<>",
    "<1>",
    "<s*L1>",
    "<s*pi*L2>",
    "<1,s*L1>",
    "<1,-1>",
    "<s*L1,s*pi*L2>",
    "<pi,s*pi*L1>",
    "<1,s*L1,s*pi*L2>",
    "<s*L1,pi,s*pi*L1*L2>",
    "<1,s*L1,pi,s*pi*L2>",
    "<1,-1,-pi,pi>",
    "<pi,pi,s,s>",
    "<1,-s*L1,s,pi,-pi*s*L1>",
    "<1,-s*L1,-pi,s*pi*L1>",
    "<1,-s*L1*L2,-pi,s*pi*L1*L2>",
    "<L1*L2,s*L2,pi*L1,-pi*s>",
    "⟨ -1 , s * L2 * L1 , pi * pi ⟩",
]

EQUAL_PAIRS = [
    ("<s*L1,s*L1>", "<1,1>"),
    ("<1>", "<pi>"),
    ("<pi*L1,pi*L1>", "<pi,pi>"),
    ("<1,-1>", "<>"),
    ("<1,-s*L1,-pi,s*pi*L1>", "<1,-s*L2,-pi,s*pi*L2>"),
    ("<1,-s*L1,-pi,s*pi*L1>", "<s*pi*L1,-pi,-s*L1,1>"),
    ("<L1,L2>", "<1,L1*L2>"),
]

CASES = [(q, fmt) for q in (1, 3) for fmt in ("text", "json", "csv")]


def _invocations(q: int, fmt: str) -> list[list[str]]:
    common = ["--q-mod-4", str(q), "--format", fmt]
    at_rank_2 = common + ["--picard-rank", "2"]
    argvs = [["reduce", form, *at_rank_2] for form in FORMS]
    argvs += [["invariants", form, *at_rank_2] for form in FORMS]
    argvs += [["equal", left, right, *at_rank_2] for left, right in EQUAL_PAIRS]
    argvs.append(["reduce", "<L3>", *at_rank_2])
    argvs.append(["enumerate", *at_rank_2])
    argvs.append(["verify", *common, "--picard-rank", "1"])
    return argvs


def cli_transcript(q: int, fmt: str) -> str:
    blocks = []
    for argv in _invocations(q, fmt):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run_command(argv)
        blocks.append(f"$ wittcurve {shlex.join(argv)}\nexit {code}\n{out.getvalue()}")
    return "".join(blocks)


def enumeration_listing(q: int) -> str:
    cfg = CurveConfig(q, 3)
    pic, square_classes, brauer = enumerate_groups(cfg)
    sections = [
        ("enumerate_groups: line bundle classes", pic),
        ("enumerate_groups: square classes", square_classes),
        ("enumerate_groups: Brauer classes", brauer),
        ("enumerate_generators", enumerate_generators(cfg)),
        ("enumerate_residue_classes", enumerate_residue_classes(cfg)),
    ]
    return "".join(
        f"# {title} (q={q}, r=3)\n" + "".join(f"{x}\n" for x in items)
        for title, items in sections
    )


def _cli_path(q: int, fmt: str) -> Path:
    return GOLDEN / f"cli-q{q}-{fmt}.txt"


def _enumeration_path(q: int) -> Path:
    return GOLDEN / f"enumerations-q{q}.txt"


@pytest.mark.parametrize("q, fmt", CASES, ids=lambda v: str(v))
def test_cli_output_is_golden(q, fmt):
    expected = _cli_path(q, fmt).read_text(encoding="utf-8")
    assert cli_transcript(q, fmt) == expected


@pytest.mark.parametrize("q", (1, 3))
def test_enumeration_strings_are_golden(q):
    expected = _enumeration_path(q).read_text(encoding="utf-8")
    assert enumeration_listing(q) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for q, fmt in CASES:
        _cli_path(q, fmt).write_text(cli_transcript(q, fmt), encoding="utf-8")
    for q in (1, 3):
        _enumeration_path(q).write_text(enumeration_listing(q), encoding="utf-8")
