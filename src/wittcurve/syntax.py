"""Form expression syntax: the parser of the concrete form notation.

Concrete syntax for forms is ASCII:  <entry,entry,...>  where an entry is an
optional leading '-' followed by '*'-joined terms '1', 's', 'pi' or 'L<k>',
where 1 <= k <= picard rank, and a text holds at most MAX_FORM_ENTRIES
entries.  A '-' multiplies the entry by the class of -1; repeated terms
multiply in their component groups.  Unicode angle brackets are accepted on
input and never emitted: str() of a form writes this syntax and parses back
to it.

Every term is its packed delta, unit | pi_exp << 1 | mask << 2, and an
entry is the XOR of its terms and, if it has a '-', of the class of -1.
parse_form splits a well-formed text with str methods and packs each
distinct entry text, once, into an int, looking its terms up in a table
that the configuration keeps across calls while the table holds at most
4 * (r + 3) spellings at Picard rank r.  A delta is 0 or a single bit,
so the sum of an entry's deltas has one set bit per term, not counting bare
'1' terms, only when those terms are distinct bits, and the sum is then
their XOR; an entry with a repeated term or a '1' with whitespace fails that
check and is XOR-ed term by term.  Any text that path cannot take goes,
unchanged, to a character-by-character cursor parser, the one place that
names a syntax error and its position.  Both paths read a bundle label
through _label_delta, the one rule for which labels exist.
"""

from __future__ import annotations

import re
from functools import reduce
from operator import xor

from .forms import DiagonalForm
from .groups import CurveConfig, _set


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


# The most entries a form text may have.  A longer text is a syntax error at
# the first character of its first entry past the limit; README derives the
# figure from the measured cost per entry.
MAX_FORM_ENTRIES = 1 << 16


# Leading zeros, then the significant digits of a bundle index.  [0-9], not
# \d: \d and str.isdigit() also match non-ASCII digits.
_INDEX = re.compile(r"0*([0-9]*)")


# Each term other than a bundle label and its packed delta, in the order the
# cursor parser tries them.
_FIXED_TERMS = (("1", 0), ("s", 1), ("pi", 2))


class _LabelError(KeyError):
    """A bundle label the syntax refuses; its message carries no position."""


def _label_delta(digits: str, picard_rank: int) -> int:
    """Packed delta of the label L<digits>, given its significant digits.

    The one rule for which labels exist, and the message for one that does
    not; the cursor parser places the message at the label.
    """
    if len(digits) > len(str(picard_rank)):
        # Too large to be an index: rejected before int() reads it.
        raise _LabelError(
            f"unknown bundle label L{digits[:8]}... ({len(digits)} digits)"
        )
    index = int(digits or "0")
    if not 1 <= index <= picard_rank:
        raise _LabelError(f"unknown bundle label L{index}")
    return 1 << (index + 1)


def _parse_term(cur: _Cursor, cfg: CurveConfig) -> int:
    """One term as its packed delta."""
    start = cur.pos
    if cur.peek() == "L":
        match = _INDEX.match(cur.text, start + 1)
        cur.pos = match.end()
        if cur.pos == start + 1:
            raise FormSyntaxError("expected bundle index after 'L'", cur.pos)
        try:
            return _label_delta(match.group(1), cfg.picard_rank)
        except _LabelError as err:
            raise FormSyntaxError(err.args[0], start) from None
    for term, delta in _FIXED_TERMS:
        if cur.text.startswith(term, start):
            cur.pos += len(term)
            return delta
    raise FormSyntaxError("expected term '1', 's', 'pi' or 'L<k>'", start)


def _parse_entry(cur: _Cursor, cfg: CurveConfig) -> int:
    """One entry, packed as unit | pi_exp << 1 | mask << 2: the XOR of its
    terms, and of the class of -1 if it has a sign."""
    cur.skip_ws()
    packed = 0
    if cur.peek() == "-":
        cur.advance()
        packed = cfg.minus_one
        cur.skip_ws()
    packed ^= _parse_term(cur, cfg)
    cur.skip_ws()
    while cur.peek() == "*":
        cur.advance()
        cur.skip_ws()
        packed ^= _parse_term(cur, cfg)
        cur.skip_ws()
    return packed


def _parse_with_cursor(text: str, cfg: CurveConfig) -> DiagonalForm:
    """Character by character; the one place that describes a syntax error."""
    normalized = text.replace("⟨", "<").replace("⟩", ">")
    cur = _Cursor(normalized)
    cur.skip_ws()
    cur.expect("<")
    cur.skip_ws()
    entries: list[int] = []
    if cur.peek() != ">":
        entries.append(_parse_entry(cur, cfg))
        while cur.peek() == ",":
            cur.advance()
            if len(entries) == MAX_FORM_ENTRIES:
                raise FormSyntaxError(
                    f"form entry {MAX_FORM_ENTRIES + 1} exceeds the limit of "
                    f"{MAX_FORM_ENTRIES} entries",
                    cur.pos,
                )
            entries.append(_parse_entry(cur, cfg))
    cur.expect(">")
    cur.skip_ws()
    if cur.pos != len(normalized):
        raise FormSyntaxError("unexpected trailing input", cur.pos)
    return DiagonalForm._from_packed(cfg, tuple(entries))


class _TermDeltas(dict):
    """Packed delta of each term spelling met under one configuration.

    A key is a term with any whitespace on either side.  Every spelling
    decided of at most 16 characters is stored; a longer one, such as a label
    with a long run of zeros, is decided on every call.  A CurveConfig keeps
    one table in its slot _terms, from its first parse on, so a later call
    looks its terms up without a Python frame.  A call that leaves the table
    with more than 4 * (r + 3) keys at Picard rank r drops it from the
    config, so a kept table never holds more: room for the r + 3 canonical
    terms, each bare and with one space before, after or on both sides, the
    spellings str() and the ', ' and ' * ' separators give.  A term the
    cursor parser would reject raises KeyError.  A label is read with str
    methods, not a regex: a full match of a long zero run backtracks
    quadratically.

    Every value is 0 or a single bit: _packed_entries packs an entry as the
    sum of its deltas when the sum has as many set bits as the entry has
    terms other than bare '1's, which holds only when those terms are
    distinct bits.
    """

    __slots__ = ("picard_rank",)

    def __init__(self, picard_rank: int):
        super().__init__(_FIXED_TERMS)
        self.picard_rank = picard_rank

    def __missing__(self, token: str) -> int:
        term = token.strip()
        if term != token:
            delta = self[term]
        elif term[:1] == "L" and term[1:].isascii() and term[1:].isdigit():
            delta = _label_delta(term[1:].lstrip("0"), self.picard_rank)
        else:
            raise KeyError(term)
        if len(token) <= 16:
            self[token] = delta
        return delta


def _packed_entries(inside: str, cfg: CurveConfig) -> tuple[int, ...]:
    """The entries between the brackets, packed; KeyError if any is malformed
    or there are more than MAX_FORM_ENTRIES.

    Each distinct entry text is decided once: dict.fromkeys keeps the
    distinct texts in order, and the map back to every entry runs in C, as
    do the splits and the term lookups in cfg's term table.  A leading '-'
    XORs in the class of -1; the sign stays outside the table, so no key
    depends on q_mod_4.
    """
    parts = inside.split(",")
    if len(parts) > MAX_FORM_ENTRIES:
        raise KeyError(MAX_FORM_ENTRIES)
    terms = cfg._terms
    if terms is None:
        terms = _TermDeltas(cfg.picard_rank)
        _set(cfg, "_terms", terms)
    term_delta = terms.__getitem__
    minus = cfg.minus_one
    decided = dict.fromkeys(parts)
    try:
        for entry in decided:
            body = entry.lstrip()
            signed = body[:1] == "-"
            # Any other '-' fails the lookup of its term.
            tokens = body[signed:].split("*")
            packed = sum(map(term_delta, tokens))
            bits = packed.bit_count()
            # bits is at most the number of terms other than bare '1's, so
            # the first test only spares most entries the count.  A repeated
            # term, or a '1' with whitespace, fails both: the sum may not be
            # the XOR.
            if bits != len(tokens) and bits != len(tokens) - tokens.count("1"):
                packed = reduce(xor, map(term_delta, tokens))
            decided[entry] = packed ^ minus if signed else packed
    finally:
        if len(terms) > 4 * (cfg.picard_rank + 3):
            _set(cfg, "_terms", None)
    return tuple(map(decided.__getitem__, parts))


def parse_form(text: str, cfg: CurveConfig) -> DiagonalForm:
    """Parse a form expression into a diagonal form.

    Raises FormSyntaxError with the position of the first malformed character.
    """
    if not isinstance(text, str) or not isinstance(cfg, CurveConfig):
        raise TypeError(
            "parse_form() takes a str and a CurveConfig, "
            f"got {type(text).__name__} and {type(cfg).__name__}"
        )
    body = text.replace("⟨", "<").replace("⟩", ">").strip()
    if body[:1] == "<" and body[-1:] == ">":
        inside = body[1:-1]
        if not inside or inside.isspace():
            return DiagonalForm._from_packed(cfg, ())
        try:
            packed = _packed_entries(inside, cfg)
        except KeyError:
            pass  # malformed: the cursor parser finds and describes the fault
        else:
            return DiagonalForm._from_packed(cfg, packed)
    return _parse_with_cursor(text, cfg)
