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

from .engine import equals, invariant_profile
from .group_ring import canonical_form, enumerate_classes
from .groups import CurveConfig
from .syntax import parse_form

# verify, json and csv are imported in the one command or format that uses
# each, so that no other command pays for loading them.


def _json(value: object) -> str:
    import json

    return json.dumps(value, indent=2)


def _table(header: tuple, rows: list[tuple], fmt: str) -> str:
    """Rows under a header as CSV, bools as true/false and None as an empty
    cell; or (label, value) rows, the total row last, as text with the labels
    aligned and bools as PASS/FAIL."""
    if fmt == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for row in (header, *rows):
            writer.writerow([str(v).lower() if isinstance(v, bool) else v for v in row])
        return buf.getvalue().rstrip("\n")
    width = max(len(k) for k, _ in rows)
    return "\n".join(
        f"{k:<{width}}  {('PASS' if v else 'FAIL') if isinstance(v, bool) else v}" for k, v in rows
    )


def _render(record: dict, fmt: str) -> str:
    """One record in the output format; a None field is left out (an empty
    cell in CSV), and a one-field text record prints its value alone."""
    if fmt == "json":
        return _json({k: v for k, v in record.items() if v is not None})
    if fmt == "csv":
        return _table(tuple(record), [tuple(record.values())], fmt)
    cells = {k: str(v).lower() if isinstance(v, bool) else v for k, v in record.items()}
    shown = [(k, v) for k, v in cells.items() if v is not None]
    if len(shown) == 1:
        return str(shown[0][1])
    width = max(len(k) for k, _ in shown)
    return "\n".join(f"{k:<{width}} {v}" for k, v in shown)


def _cmd_reduce(cfg: CurveConfig, args: argparse.Namespace) -> tuple[int, dict]:
    shape = canonical_form(parse_form(args.form, cfg))
    return 0, {"shape": shape.tag.value, "payload": str(shape.payload)}


def _cmd_equal(cfg: CurveConfig, args: argparse.Namespace) -> tuple[int, dict]:
    result = equals(parse_form(args.left, cfg), parse_form(args.right, cfg))
    return (0 if result else 1), {"equal": result}


def _cmd_invariants(cfg: CurveConfig, args: argparse.Namespace) -> tuple[int, dict]:
    profile = invariant_profile(parse_form(args.form, cfg))
    return 0, {
        "rank_parity": profile.rank_parity,
        "signed_disc": str(profile.signed_disc),
        "witt_inv": None if profile.witt_inv is None else str(profile.witt_inv),
    }


def _cmd_enumerate(cfg: CurveConfig, args: argparse.Namespace) -> tuple[int, str]:
    census = enumerate_classes(cfg)
    if args.format == "json":
        return 0, _json(
            {
                "total": census.total,
                "shapes": [
                    {"shape": shape.value, "count": count}
                    for shape, count in census.shape_counts
                ],
            }
        )
    rows = [(shape.value, count) for shape, count in census.shape_counts]
    return 0, _table(("shape", "count"), rows + [("total", census.total)], args.format)


def _cmd_verify(cfg: CurveConfig, args: argparse.Namespace) -> tuple[int, str]:
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
        ("quaternion_distinctness", verify_quaternion_distinctness(cfg).passed),
        ("rank_one_structure", rank_one_group_structure(cfg).passed),
        ("ring_isomorphism", ring_iso),
        ("generator_relations", verify_generator_relations(cfg).passed),
    ]
    all_passed = all(passed for _, passed in checks)
    code = 0 if all_passed else 1
    if args.format == "json":
        return code, _json(
            {
                "checks": [{"name": name, "passed": passed} for name, passed in checks],
                "passed": all_passed,
            }
        )
    return code, _table(("check", "passed"), checks + [("overall", all_passed)], args.format)


# A command returns its exit code and a record for _render or finished text.
_COMMANDS: dict[str, Callable[..., tuple[int, dict | str]]] = {
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
        code, output = _COMMANDS[args.command](cfg, args)
        if isinstance(output, dict):
            output = _render(output, args.format)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as out:
                out.write(output + "\n")
        elif sys.stdout is None:  # started with stdout closed
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        else:
            sys.stdout.write(output + "\n")
            sys.stdout.flush()
    except OSError as exc:
        print(
            f"error: cannot write {args.out or 'stdout'}: {exc.strerror or exc}",
            file=sys.stderr,
        )
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
