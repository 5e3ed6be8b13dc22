"""Diagonal symmetric bilinear forms over the curve and their basic algebra.

A form is an ordered orthogonal sum of rank-1 generators <u * pi^e * L>; the
empty form represents the zero Witt class.  Entry order never carries meaning,
and no normalization happens at this layer.

A form stores each entry once, as the packed int unit | pi_exp << 1 |
mask << 2 of groups.Generator.packed, and computes on first use the additive
Summary that the invariant engine decides with.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from functools import reduce
from itertools import product, repeat, starmap
from operator import and_, xor

from .groups import (
    _BYTE_TEXT,
    CurveConfig,
    Generator,
    _Frozen,
    _set,
    check_bit,
    check_config,
    check_mask,
    label,
    require_same_config,
)

# Builds a Summary from a tuple without the Python-level namedtuple __new__,
# which costs about as much as the arithmetic of plus.
_new = tuple.__new__


class Summary(namedtuple("Summary", "rank ramified disc ramified_disc")):
    """Additive summary of a form: enough to decide its Witt class.

    rank and ramified count the entries and the entries with a pi; disc and
    ramified_disc XOR the packed entries, all of them and the ramified ones,
    so they are the packed discriminants of the form and of its ramified part.
    An orthogonal sum adds the counts and XORs the discriminants.
    """

    __slots__ = ()

    def plus(self, other: "Summary") -> "Summary":
        """Summary of the orthogonal sum."""
        n, r, d, rd = self
        k, q, e, re = other
        return _new(Summary, (n + k, r + q, d ^ e, rd ^ re))

    def times(self, other: "Summary") -> "Summary":
        """Summary of the tensor product, whose entries are the n*k products
        a_i ^ b_j of the packed entries.

        With (n, r, d, rd) and (k, q, e, re) the two summaries:

            rank          = n*k
            ramified      = r*(k - q) + (n - r)*q
            disc          = [k odd]*d + [n odd]*e
            ramified_disc = [(k - q) odd]*rd + [r odd]*(e + re)
                          + [(n - r) odd]*re + [q odd]*(d + rd)

        with + on discriminants meaning XOR.  A product is ramified exactly
        when one factor is.  Each a_i meets all k entries b_j, so XOR over
        the products counts d k times and e n times.  The ramified products
        pair a ramified a_i with the k - q pi-free b_j, whose XOR is e + re,
        or a pi-free a_i, whose XOR is d + rd, with the q ramified b_j.
        """
        n, r, d, rd = self
        k, q, e, re = other
        return _new(Summary, (
            n * k,
            r * (k - q) + (n - r) * q,
            (d if k & 1 else 0) ^ (e if n & 1 else 0),
            (rd if (k - q) & 1 else 0)
            ^ (e ^ re if r & 1 else 0)
            ^ (re if (n - r) & 1 else 0)
            ^ (d ^ rd if q & 1 else 0),
        ))

    def negated(self, minus_one: int) -> "Summary":
        """Summary of the negative: every entry, ramified or not, gains [-1]."""
        n, r, d, rd = self
        return _new(Summary, (n, r, d ^ (n & minus_one), rd ^ (r & minus_one)))

    def signed_disc(self, minus_one: int) -> int:
        """Packed discriminant twisted by (-1)^(rank*(rank+1)/2).

        The twist is odd exactly when rank = 1 or 2 mod 4, that is when
        (rank + 1) >> 1 is odd.
        """
        return self.disc ^ ((self.rank + 1) >> 1 & minus_one)


def summarize(packed: tuple[int, ...]) -> Summary:
    """Summary of packed entries, in one pass of C-level scans."""
    ramified = tuple(filter((2).__and__, packed))
    return _new(Summary, (
        len(packed), len(ramified), reduce(xor, packed, 0), reduce(xor, ramified, 0)
    ))


class _StarText(dict):
    """'*' and the text of a non-zero byte in place, keyed on the byte; '' for
    a zero byte.  Only bytes below _COLUMN_BITS are looked up, so it holds at
    most 1 + 2 * 255 strings."""

    def __missing__(self, byte: int) -> str:
        text = self[byte] = "*" + _BYTE_TEXT[byte] if byte else ""
        return text


_STAR_TEXT = _StarText()
# The widest packed int DiagonalForm.__str__ prints by byte columns.  A column
# costs one pass over every entry, label one step per non-zero byte: above
# three columns a form of one bit per entry prints faster with label (0.45
# against 0.78 us per entry at r = 62), and a dense one never does.
_COLUMN_BITS = 24


class DiagonalForm(_Frozen):
    """Ordered orthogonal sum of generators; rank is the number of entries.

    entries builds the Generator views of the packed entries on each access;
    summary is computed once, on first use.  The cache _summary takes no part
    in ==, hash or repr.
    """

    __slots__ = ("config", "packed", "_summary")
    _fields = ("config", "packed")

    def __init__(self, config: CurveConfig, entries: Iterable[Generator]) -> None:
        if not isinstance(config, CurveConfig):
            raise TypeError(f"DiagonalForm config must be CurveConfig, got {type(config).__name__}")
        rank = config.picard_rank
        packed = []
        for g in entries:
            if not isinstance(g, Generator):
                raise TypeError(f"DiagonalForm entries must be Generator, got {type(g).__name__}")
            if g.rank != rank:
                raise ValueError(
                    f"config mismatch: entry line bundle rank {g.rank} != picard_rank {rank}"
                )
            packed.append(g.packed)
        _set(self, "config", config)
        _set(self, "packed", tuple(packed))
        _set(self, "_summary", None)

    @classmethod
    def _from_packed(cls, config: CurveConfig, packed: tuple[int, ...]) -> "DiagonalForm":
        """The form of packed entries; the caller has checked their masks
        against config.picard_rank."""
        form = object.__new__(cls)
        _set(form, "config", config)
        _set(form, "packed", packed)
        _set(form, "_summary", None)
        return form

    @classmethod
    def zero(cls, cfg: CurveConfig) -> "DiagonalForm":
        check_config(cfg, "DiagonalForm.zero")
        return cls._from_packed(cfg, ())

    @property
    def entries(self) -> tuple[Generator, ...]:
        rank = self.config.picard_rank
        return tuple(Generator.from_packed(rank, p) for p in self.packed)

    @property
    def rank(self) -> int:
        return len(self.packed)

    @property
    def summary(self) -> Summary:
        summary = self._summary
        if summary is None:
            summary = summarize(self.packed)
            _set(self, "_summary", summary)
        return summary

    def __repr__(self) -> str:
        return f"DiagonalForm(config={self.config!r}, entries={self.entries!r})"

    def __reduce__(self) -> tuple:
        return DiagonalForm._from_packed, (self.config, self.packed)

    def __add__(self, other: "DiagonalForm") -> "DiagonalForm":
        """Orthogonal sum: concatenation of entries."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        require_same_config(self.config, other.config)
        return DiagonalForm._from_packed(self.config, self.packed + other.packed)

    def __mul__(self, other: "DiagonalForm") -> "DiagonalForm":
        """Tensor product: all pairwise generator products."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        require_same_config(self.config, other.config)
        return DiagonalForm._from_packed(
            self.config, tuple(starmap(xor, product(self.packed, other.packed)))
        )

    def __neg__(self) -> "DiagonalForm":
        """Entrywise multiplication by <-1>."""
        m = self.config.minus_one
        if not m:
            return self
        return DiagonalForm._from_packed(self.config, tuple(map(m.__xor__, self.packed)))

    def discriminant(self) -> Generator:
        """Plain determinant class: the product of all entries."""
        return Generator.from_packed(self.config.picard_rank, self.summary.disc)

    def signed_discriminant(self) -> Generator:
        """Discriminant twisted by (-1)^(rank*(rank+1)/2)."""
        return Generator.from_packed(
            self.config.picard_rank,
            self.summary.signed_disc(self.config.minus_one),
        )

    def __str__(self) -> str:
        packed = self.packed
        width = self.config.picard_rank + 2
        if width <= 8:
            return "<" + ",".join(map(_BYTE_TEXT.__getitem__, packed)) + ">"
        if width > _COLUMN_BITS:
            return "<" + ",".join(map(label, packed)) + ">"
        # Byte columns, each one C-level pass: the text of the low byte, then
        # '*' and the text of each higher non-zero byte.  A zero entry so
        # prints "1", and a non-zero entry whose low byte is zero starts
        # "1*", which the replaces drop: every other byte text starts with a
        # letter, so no other entry starts "1*".
        columns = [map(_BYTE_TEXT.__getitem__, map(and_, packed, repeat(255)))]
        columns += [
            map(_STAR_TEXT.__getitem__, map(and_, packed, repeat(255 << shift)))
            for shift in range(8, width, 8)
        ]
        text = "<" + ",".join(map("".join, zip(*columns))) + ">"
        return text.replace(",1*", ",").replace("<1*", "<", 1)


def quaternion_norm_form(cfg: CurveConfig, unit: int, mask: int) -> DiagonalForm:
    """Norm form <1, -uL, -pi, u*pi*L> of the quaternion class (uL, pi),
    with L the line bundle class of mask."""
    check_config(cfg, "quaternion_norm_form")
    try:
        check_mask(mask, cfg.picard_rank)
    except ValueError as exc:
        raise ValueError(f"config mismatch: {exc}") from None
    check_bit(unit, "unit square class bit")
    m = cfg.minus_one
    u_line = unit | mask << 2
    return DiagonalForm._from_packed(cfg, (0, u_line ^ m, m | 2, u_line | 2))
