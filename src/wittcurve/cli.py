"""Command line front end: the argparse commands over the library.

Forms are written in the concrete syntax of wittcurve.syntax.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path
from typing import Callable, Sequence

from .engine import canonical_form, enumerate_classes, equals, invariant_profile
from .groups import CurveConfig
from .syntax import parse_form
from .verify import (
    check_ring_iso,
    rank_one_group_structure,
    verify_generator_relations,
    verify_quaternion_distinctness,
)


def _csv_table(rows: list[tuple]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _cmd_reduce(cfg: CurveConfig, args: argparse.Namespace) -> tuple[int, str]:
    shape = canonical_form(parse_form(args.form, cfg))
    payload = str(shape.payload)
    if args.format == "json":
        return 0, json.dumps({"shape": shape.tag.value, "payload": payload}, indent=2)
    if args.format == "csv":
        return 0, _csv_table([("shape", "payload"), (shape.tag.value, payload)])
    return 0, f"shape   {shape.tag.value}\npayload {payload}"


def _cmd_equal(cfg: CurveConfig, args: argparse.Namespace) -> tuple[int, str]:
    result = equals(parse_form(args.left, cfg), parse_form(args.right, cfg))
    if args.format == "json":
        out = json.dumps({"equal": result}, indent=2)
    elif args.format == "csv":
        out = _csv_table([("equal",), (str(result).lower(),)])
    else:
        out = str(result).lower()
    return (0 if result else 1), out


def _cmd_invariants(cfg: CurveConfig, args: argparse.Namespace) -> tuple[int, str]:
    profile = invariant_profile(parse_form(args.form, cfg))
    signed = str(profile.signed_disc)
    witt = None if profile.witt_inv is None else str(profile.witt_inv)
    if args.format == "json":
        payload: dict = {"rank_parity": profile.rank_parity, "signed_disc": signed}
        if witt is not None:
            payload["witt_inv"] = witt
        return 0, json.dumps(payload, indent=2)
    if args.format == "csv":
        return 0, _csv_table(
            [
                ("rank_parity", "signed_disc", "witt_inv"),
                (profile.rank_parity, signed, "" if witt is None else witt),
            ]
        )
    lines = [f"rank_parity {profile.rank_parity}", f"signed_disc {signed}"]
    if witt is not None:
        lines.append(f"witt_inv    {witt}")
    return 0, "\n".join(lines)


def _cmd_enumerate(cfg: CurveConfig, args: argparse.Namespace) -> tuple[int, str]:
    census = enumerate_classes(cfg)
    if args.format == "json":
        return 0, json.dumps(
            {
                "total": census.total,
                "shapes": [
                    {"shape": shape.value, "count": count}
                    for shape, count in census.shape_counts
                ],
            },
            indent=2,
        )
    if args.format == "csv":
        rows: list[tuple] = [("shape", "count")]
        rows += [(shape.value, count) for shape, count in census.shape_counts]
        rows.append(("total", census.total))
        return 0, _csv_table(rows)
    width = max(len(shape.value) for shape, _ in census.shape_counts)
    lines = [
        f"{shape.value:<{width}}  {count}" for shape, count in census.shape_counts
    ]
    lines.append(f"{'total':<{width}}  {census.total}")
    return 0, "\n".join(lines)


def _cmd_verify(cfg: CurveConfig, args: argparse.Namespace) -> tuple[int, str]:
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
        return code, json.dumps(
            {
                "checks": [{"name": name, "passed": passed} for name, passed in checks],
                "passed": all_passed,
            },
            indent=2,
        )
    if args.format == "csv":
        rows: list[tuple] = [("check", "passed")]
        rows += [(name, str(passed).lower()) for name, passed in checks]
        rows.append(("overall", str(all_passed).lower()))
        return code, _csv_table(rows)
    width = max(len(name) for name, _ in checks)
    lines = [
        f"{name:<{width}}  {'PASS' if passed else 'FAIL'}" for name, passed in checks
    ]
    lines.append(f"{'overall':<{width}}  {'PASS' if all_passed else 'FAIL'}")
    return code, "\n".join(lines)


_COMMANDS: dict[str, Callable[[CurveConfig, argparse.Namespace], tuple[int, str]]] = {
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
    2 a usage error or a failure to write --out.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code is None else int(exc.code)
    try:
        cfg = CurveConfig(args.q_mod_4, args.picard_rank)
        code, output = _COMMANDS[args.command](cfg, args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        try:
            Path(args.out).write_text(output + "\n", encoding="utf-8")
        except OSError as exc:
            print(
                f"error: cannot write {args.out}: {exc.strerror or exc}",
                file=sys.stderr,
            )
            return 2
    else:
        print(output)
    return code


def main() -> None:
    raise SystemExit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
