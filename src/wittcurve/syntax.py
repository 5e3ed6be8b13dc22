"""Form expression syntax: the parser of the concrete form notation.

Concrete syntax for forms is ASCII:  <entry,entry,...>  where an entry is an
optional leading '-' followed by '*'-joined terms '1', 's', 'pi' or 'L<k>'.
A '-' multiplies the entry by the class of -1; repeated terms multiply in
their component groups.  Unicode angle brackets are accepted on input and
never emitted: str() of a form writes this syntax and parses back to it.
"""

from __future__ import annotations

import re

from .forms import DiagonalForm
from .groups import (
    CurveConfig,
    Generator,
    PicTorsionClass,
    UnitSquareClass,
    minus_one_class,
)


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
