"""Command line front end: form expression parsing and engine commands.

Concrete syntax for forms is ASCII:  <entry,entry,...>  where an entry is an
optional leading '-' followed by '*'-joined terms '1', 's', 'pi' or 'L<k>'.
A '-' multiplies the entry by the class of -1; repeated terms multiply in
their component groups.  Unicode angle brackets are accepted on input and
never emitted.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from pathlib import Path
from typing import Callable, Sequence

from .engine import (
    canonical_form,
    enumerate_classes,
    equals,
    invariant_profile,
    rank_one_group_structure,
    verify_generator_relations,
    verify_quaternion_distinctness,
)
from .forms import DiagonalForm, Generator
from .group_ring import check_ring_iso
from .groups import CurveConfig, PicTorsionClass, UnitSquareClass, minus_one_class


class FormSyntaxError(ValueError):
    """Malformed form expression; carries the offending text position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class _Cursor:
    __slots__ = ("text", "pos")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def advance(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise FormSyntaxError(f"expected {ch!r}", self.pos)
        self.pos += 1


# Leading zeros, then the significant digits of a bundle index.  [0-9], not
# \d: \d and str.isdigit() also match non-ASCII digits.
_INDEX = re.compile(r"0*([0-9]*)")


def _parse_term(cur: _Cursor, cfg: CurveConfig) -> tuple[int, int, int]:
    """One term as a (unit bit, pi bit, line mask) delta."""
    start = cur.pos
    ch = cur.peek()
    if ch == "1":
        cur.advance()
        return 0, 0, 0
    if ch == "s":
        cur.advance()
        return 1, 0, 0
    if ch == "p":
        if cur.text.startswith("pi", cur.pos):
            cur.pos += 2
            return 0, 1, 0
        raise FormSyntaxError("expected term '1', 's', 'pi' or 'L<k>'", start)
    if ch == "L":
        match = _INDEX.match(cur.text, start + 1)
        cur.pos = match.end()
        if cur.pos == start + 1:
            raise FormSyntaxError("expected bundle index after 'L'", cur.pos)
        digits = match.group(1)
        if len(digits) > len(str(cfg.picard_rank)):
            # Too large to be an index; int() would also fail past 4300 digits.
            raise FormSyntaxError(
                f"unknown bundle label L{digits[:8]}... ({len(digits)} digits)",
                start,
            )
        index = int(digits or "0")
        if not 1 <= index <= cfg.picard_rank:
            raise FormSyntaxError(f"unknown bundle label L{index}", start)
        return 0, 0, 1 << (index - 1)
    raise FormSyntaxError("expected term '1', 's', 'pi' or 'L<k>'", start)


def _parse_entry(cur: _Cursor, cfg: CurveConfig) -> Generator:
    cur.skip_ws()
    unit = 0
    pi_exp = 0
    mask = 0
    if cur.peek() == "-":
        cur.advance()
        unit ^= minus_one_class(cfg).bit
        cur.skip_ws()
    du, dpi, dmask = _parse_term(cur, cfg)
    unit ^= du
    pi_exp ^= dpi
    mask ^= dmask
    cur.skip_ws()
    while cur.peek() == "*":
        cur.advance()
        cur.skip_ws()
        du, dpi, dmask = _parse_term(cur, cfg)
        unit ^= du
        pi_exp ^= dpi
        mask ^= dmask
        cur.skip_ws()
    return Generator(
        UnitSquareClass(unit), pi_exp, PicTorsionClass(cfg.picard_rank, mask)
    )


def parse_form(text: str, cfg: CurveConfig) -> DiagonalForm:
    """Parse a form expression into a diagonal form."""
    normalized = text.replace("⟨", "<").replace("⟩", ">")
    cur = _Cursor(normalized)
    cur.skip_ws()
    cur.expect("<")
    cur.skip_ws()
    entries: list[Generator] = []
    if cur.peek() != ">":
        entries.append(_parse_entry(cur, cfg))
        while cur.peek() == ",":
            cur.advance()
            entries.append(_parse_entry(cur, cfg))
    cur.expect(">")
    cur.skip_ws()
    if cur.pos != len(normalized):
        raise FormSyntaxError("unexpected trailing input", cur.pos)
    return DiagonalForm(cfg, tuple(entries))


def format_form(form: DiagonalForm) -> str:
    """Render a form in the concrete syntax; parses back to the same form."""
    return str(form)


def _csv_table(rows: list[tuple]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _cmd_reduce(cfg: CurveConfig, args: argparse.Namespace) -> tuple[int, str]:
    shape = canonical_form(parse_form(args.form, cfg))
    payload = format_form(shape.payload)
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
    checks = [
        ("quaternion_distinctness", verify_quaternion_distinctness(cfg).passed),
        ("rank_one_structure", rank_one_group_structure(cfg).passed),
        ("ring_isomorphism", check_ring_iso(cfg).passed),
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
