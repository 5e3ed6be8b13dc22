"""Command line front end: the argparse commands over the library.

Forms are written in the concrete syntax of wittcurve.syntax.
"""

from __future__ import annotations

import argparse
import errno
import io
import os
import sys
from collections.abc import Callable, Sequence

from .groups import CurveConfig
from .syntax import parse_form

# Each engine, verify, json and csv is imported in the commands or the format
# that use it, so that no other command pays for loading it.

# How text and CSV print a record where JSON prints it as is.  A text line is
# a label, a gap and a value, with bools as words: per kind of record, the gap
# and the words for False and True.  In a table's label column, the CSV header
# and the summary row print these JSON keys under other names: verify's rows
# are keyed "name" under the header "check", and its summary "passed" is
# labelled "overall".
_TEXT_LINE = {"flat": (" ", "false", "true"), "table": ("  ", "FAIL", "PASS")}
_LABELS = {"name": "check", "passed": "overall"}


def _render(record: dict, fmt: str) -> str:
    """A command's record in the output format.

    A record is flat, or a table: one list of two-field row dicts beside one
    summary field, which prints as the last row, in text with no header.  JSON
    leaves out a None field, CSV prints it as an empty cell and text leaves out
    its line; a flat record of one field prints in text as its value alone.
    """
    if fmt == "json":
        import json

        return json.dumps({k: v for k, v in record.items() if v is not None}, indent=2)
    tables = [v for v in record.values() if isinstance(v, list)]
    if tables:
        ((key, summary),) = [(k, v) for k, v in record.items() if not isinstance(v, list)]
        label, value = tables[0][0]  # the two keys of a row
        header = (_LABELS.get(label, label), value)
        rows = [tuple(row.values()) for row in tables[0]]
        rows.append((_LABELS.get(key, key), summary))
    else:
        header, rows = tuple(record), [tuple(record.values())]
    if fmt == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for row in (header, *rows):
            writer.writerow([str(v).lower() if isinstance(v, bool) else v for v in row])
        return buf.getvalue().rstrip("\n")
    gap, *words = _TEXT_LINE["table" if tables else "flat"]
    pairs = rows if tables else [(k, v) for k, v in record.items() if v is not None]
    lines = [(k, words[v] if isinstance(v, bool) else v) for k, v in pairs]
    if len(lines) == 1:
        return str(lines[0][1])
    width = max(len(k) for k, _ in lines)
    return "\n".join(f"{k:<{width}}{gap}{v}" for k, v in lines)


def _cmd_reduce(cfg: CurveConfig, args: argparse.Namespace) -> tuple[int, dict]:
    from .group_ring import canonical_form

    shape = canonical_form(parse_form(args.form, cfg))
    return 0, {"shape": shape.tag.value, "payload": str(shape.payload)}


def _cmd_equal(cfg: CurveConfig, args: argparse.Namespace) -> tuple[int, dict]:
    from .engine import equals

    result = equals(parse_form(args.left, cfg), parse_form(args.right, cfg))
    return (0 if result else 1), {"equal": result}


def _cmd_invariants(cfg: CurveConfig, args: argparse.Namespace) -> tuple[int, dict]:
    from .engine import invariant_profile

    profile = invariant_profile(parse_form(args.form, cfg))
    return 0, {
        "rank_parity": profile.rank_parity,
        "signed_disc": str(profile.signed_disc),
        "witt_inv": None if profile.witt_inv is None else str(profile.witt_inv),
    }


def _cmd_enumerate(cfg: CurveConfig, args: argparse.Namespace) -> tuple[int, dict]:
    from .group_ring import enumerate_classes

    census = enumerate_classes(cfg)
    shapes = [{"shape": shape.value, "count": count} for shape, count in census.shape_counts]
    return 0, {"total": census.total, "shapes": shapes}


def _cmd_verify(cfg: CurveConfig, args: argparse.Namespace) -> tuple[int, dict]:
    from .verify import (
        check_ring_iso,
        rank_one_group_structure,
        verify_generator_relations,
        verify_quaternion_distinctness,
    )

    # First, so that a rank beyond its bound fails before the other suites,
    # whose cost grows fourfold per rank, have run.
    ring_iso = check_ring_iso(cfg).passed
    checks = [
        {"name": "quaternion_distinctness", "passed": verify_quaternion_distinctness(cfg).passed},
        {"name": "rank_one_structure", "passed": rank_one_group_structure(cfg).passed},
        {"name": "ring_isomorphism", "passed": ring_iso},
        {"name": "generator_relations", "passed": verify_generator_relations(cfg).passed},
    ]
    passed = all(check["passed"] for check in checks)
    return (0 if passed else 1), {"checks": checks, "passed": passed}


# A command returns its exit code and the record that _render prints.
_COMMANDS: dict[str, Callable[[CurveConfig, argparse.Namespace], tuple[int, dict]]] = {
    "reduce": _cmd_reduce,
    "equal": _cmd_equal,
    "invariants": _cmd_invariants,
    "enumerate": _cmd_enumerate,
    "verify": _cmd_verify,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--q-mod-4",
        type=int,
        default=3,
        choices=(1, 3),
        help="residue field cardinality mod 4 (default 3)",
    )
    common.add_argument(
        "--picard-rank",
        type=int,
        default=1,
        help="rank of the 2-torsion Picard group (default 1)",
    )
    common.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text",
        help="output format (default text)",
    )
    common.add_argument("--out", help="write output to this file instead of stdout")

    parser = argparse.ArgumentParser(
        prog="wittcurve",
        description="Exact Witt ring calculator for curves with good reduction "
        "over non-dyadic local fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", parents=[common], help="canonical shape of a form")
    p.add_argument("form", help="form expression, e.g. '<1,-s*L1,-pi,s*pi*L1>'")

    p = sub.add_parser("equal", parents=[common], help="decide Witt equality")
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser(
        "invariants", parents=[common], help="invariant profile of a form"
    )
    p.add_argument("form")

    sub.add_parser("enumerate", parents=[common], help="census of all classes")

    sub.add_parser("verify", parents=[common], help="run the verification suites")

    return parser


def run_command(argv: Sequence[str] | None = None) -> int:
    """Run one command; returns the process exit code.

    0 means success (or a true/passing answer), 1 a false/failing answer,
    2 a usage error or a failure to write the output (--out or stdout).
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code is None else int(exc.code)
    try:
        cfg = CurveConfig(args.q_mod_4, args.picard_rank)
        code, record = _COMMANDS[args.command](cfg, args)
        output = _render(record, args.format)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.out is not None:
            with open(args.out, "w", encoding="utf-8") as out:
                out.write(output + "\n")
        elif sys.stdout is None:  # started with stdout closed
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        else:
            sys.stdout.write(output + "\n")
            sys.stdout.flush()
    except OSError as exc:
        # An empty path is named as the shell spells it.
        where = "stdout" if args.out is None else args.out or "''"
        print(f"error: cannot write {where}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return code


def main() -> None:
    code = run_command(sys.argv[1:])
    if sys.stdout is not None:
        try:
            sys.stdout.flush()
        except OSError:
            # run_command has reported the failed write.  Send what is left
            # in the buffer to the null device, so that the flush at
            # interpreter exit does not fail and print a second error.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)


if __name__ == "__main__":
    main()
