"""Exact arithmetic for the finite 2-torsion groups behind every invariant.

Everything here is an elementary abelian 2-group.  The residue field is
non-dyadic, so its unit square classes form Z/2 and are stored as a plain
unit bit (1 for the class of the fixed non-square s); the uniformizer
exponent is a pi bit; a 2-torsion line bundle class is a plain int mask
over L1..Lr, printed by line_label.  The two composite groups (global square
classes, which are also the rank-1 generators, and 2-torsion Brauer classes)
pack those coordinates into one int, unit | pi_exp << 1 | mask << 2, so that
the group law is XOR of ints.

The classes here are the immutable views the public API hands out: each
stores its packed int and rank in its slots and names its coordinates in
_fields, read-only properties derived from the packed int.
"""

from __future__ import annotations

from operator import attrgetter

# The largest Picard rank a configuration or a class takes.  A bundle label
# L<k> builds a k-bit mask, so without a bound a form text alone could ask
# for gigabytes.  A 4096-entry text of the labels L1..L4096 parses with a
# peak of about 3 MB (tracemalloc); the 4096 labels up to L65536 take 70 MB.
MAX_PICARD_RANK = 4096


def int_text(value: object) -> str:
    """repr(value) for the message that refuses a raw input.  An int past the
    interpreter's int-to-string limit (sys.get_int_max_str_digits()), which
    repr refuses, prints as its sign and bit length."""
    try:
        return repr(value)
    except ValueError:
        return f"<{'negative ' if value < 0 else ''}int of {value.bit_length()} bits>"


_set = object.__setattr__
_new = object.__new__


class _Frozen:
    """Base of the immutable value classes.

    A subclass names its fields, at least two, in _fields; without _fields
    they are its __slots__.  repr and pickling read the fields in that
    order, and so do == and hash unless the class names in _stored the slots
    that determine the fields; assigning or deleting an attribute raises
    AttributeError ("cannot assign to field 'x'").  The slots hold what is
    stored, set with object.__setattr__: the fields themselves, or a cache
    beside them, or, in a view of a packed int, that int, from which
    read-only properties derive the coordinate fields.  A view names its
    slots in _stored, so == and hash read them without a Python frame.  The
    __init__ here takes the fields by position or keyword; a class built on
    a hot path defines its own, which validates inline and packs once.  A
    view also defines from_packed, which checks the int with one test and
    stores it.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _stored: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        if "_fields" not in cls.__dict__:
            cls._fields += cls.__dict__.get("__slots__", ())
        # attrgetter is not a descriptor: self._values(x) is the tuple of x's
        # fields, self._key(x) what == and hash compare.
        cls._values = attrgetter(*cls._fields)
        cls._key = attrgetter(*cls._stored) if cls._stored else cls._values

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self._fields
        values = dict(zip(fields, args), **kwargs)
        if len(args) + len(kwargs) != len(fields) or values.keys() != set(fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}")
        for name in fields:
            _set(self, name, values[name])

    def __eq__(self, other: object) -> bool:
        # Operands mostly share one config object, which each operation compares.
        if other is self:
            return True
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values(self)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class CurveConfig(_Frozen):
    """The two parameters that determine the whole calculation.

    q_mod_4 is the residue field cardinality mod 4 (1 or 3; even residue
    characteristic is rejected).  picard_rank is the rank r of the 2-torsion
    Picard group, so that group has order n = 2**r.  minus_one, which follows
    from q_mod_4 and takes no part in ==, hash or repr, is the unit bit of -1:
    0 (a square) iff q = 1 mod 4 (Euler criterion).  _ring_law, the tuple
    (m | m << w, w, 2^w - 1, 2^w + 1) with m = minus_one and
    w = picard_rank + 2 that the packed group ring operations of group_ring
    take (the sign bits, the component width, the residue component mask and
    the parity bits of both components), and _terms, the parser's term
    table for this configuration, likewise take no part in ==, hash, repr or
    pickling; syntax fills _terms on the first parse.
    """

    __slots__ = ("q_mod_4", "picard_rank", "minus_one", "_ring_law", "_terms")
    _fields = ("q_mod_4", "picard_rank")

    def __init__(self, q_mod_4: int, picard_rank: int) -> None:
        if type(q_mod_4) is not int or q_mod_4 not in (1, 3):
            raise ValueError(
                "dyadic or invalid residue class: "
                f"q_mod_4 must be 1 or 3, got {int_text(q_mod_4)}"
            )
        check_rank(picard_rank, "picard_rank")
        _set(self, "q_mod_4", q_mod_4)
        _set(self, "picard_rank", picard_rank)
        m = 1 if q_mod_4 == 3 else 0
        _set(self, "minus_one", m)
        w = picard_rank + 2
        _set(self, "_ring_law", (m | m << w, w, (1 << w) - 1, (1 << w) + 1))
        _set(self, "_terms", None)

    @property
    def pic_order(self) -> int:
        """Order n = 2**r of the 2-torsion Picard group."""
        return 1 << self.picard_rank


def make_config(q_mod_4: int, picard_rank: int) -> CurveConfig:
    """Validated configuration; every other operation takes it as context."""
    return CurveConfig(q_mod_4, picard_rank)


def require_same_config(cfg: CurveConfig, other: CurveConfig) -> None:
    """Reject the operands of a binary operation that carry different configs."""
    # Identity first: != on two configs runs the Python-level _Frozen.__eq__.
    if cfg is not other and cfg != other:
        raise ValueError(f"config mismatch: {cfg} != {other}")


def check_config(cfg: object, caller: str) -> None:
    """Refuse a cfg that is not a CurveConfig, naming the caller."""
    if not isinstance(cfg, CurveConfig):
        raise TypeError(f"{caller}() takes a CurveConfig, got {type(cfg).__name__}")


def check_rank(rank: int, name: str = "rank") -> None:
    """Reject a rank that is not an int in 0..MAX_PICARD_RANK; the message
    calls it name."""
    if type(rank) is not int:
        raise ValueError(f"{name} must be an int, got {int_text(rank)}")
    if not 0 <= rank <= MAX_PICARD_RANK:
        bound = ">= 0" if rank < 0 else f"<= {MAX_PICARD_RANK}"
        raise ValueError(f"{name} must be {bound}, got {int_text(rank)}")


def check_mask(mask: int, rank: int) -> None:
    """Reject a rank that is not an int in 0..MAX_PICARD_RANK, or a line
    bundle mask that is not a bit vector over L1..L<rank> (bit i-1 is the L_i
    coordinate)."""
    check_rank(rank)
    if type(mask) is not int:
        raise ValueError(f"line bundle mask must be an int, got {int_text(mask)}")
    # A shift, not a comparison with 1 << rank: that would allocate rank bits
    # for every class.
    if mask < 0 or mask >> rank:
        raise ValueError(
            f"line bundle mask {int_text(mask)} out of range for rank {rank}"
        )


def packed_error(what: str, packed: object, rank: int) -> ValueError:
    """The one error of a from_packed constructor: packed is not an int in
    0..2**(rank + 2) - 1 (for a Brauer class, also with bit 1 clear; for a
    group ring element, of two such components, 0..2**(2 * rank + 4) - 1)."""
    return ValueError(f"not a packed {what} of rank {rank}: {int_text(packed)}")


def check_bit(bit: int, what: str) -> None:
    """Reject a coordinate bit that is not the int 0 or 1.  A bool or a float
    such as 1.0 compares equal to 1 but cannot be packed."""
    if type(bit) is not int or bit not in (0, 1):
        raise ValueError(f"{what} must be 0 or 1, got {int_text(bit)}")


class _ByteText(dict):
    """Text of one byte of a packed class, keyed on the byte in place: the
    packed int with every bit outside that byte cleared.

    Bit i of a packed class prints as s (i = 0), pi (i = 1) or L<i-1>.
    """

    def __missing__(self, byte: int) -> str:
        # A byte in place spans at most the eight bits up to its highest one.
        top = byte.bit_length()
        text = "*".join(
            "s" if i == 0 else "pi" if i == 1 else f"L{i - 1}"
            for i in range(max(top - 8, 0), top)
            if byte >> i & 1
        ) or "1"
        if top <= _CACHED_BITS:
            self[byte] = text
        return text


# Only the bytes below bit 64 (s, pi, L1..L62) are kept, so _BYTE_TEXT never
# holds more than 1 + 8 * 255 strings, the trivial class "1" included; a byte
# above is printed on each use.  The table starts empty and fills as classes
# are printed.  DiagonalForm.__str__ prints a form by byte columns from it
# when the packed width r + 2 is at most forms._COLUMN_BITS (24).
_CACHED_BITS = 64
_BYTE_TEXT = _ByteText()


def label(packed: int) -> str:
    """Concrete syntax of the packed class unit | pi_exp << 1 | mask << 2,
    that is s^unit * pi^pi_exp * (L-mask); "1" if trivial.

    Prints eight bits at a time, each non-zero byte from _BYTE_TEXT, so a
    class of s, pi and L1..L6 is one lookup.  Each step jumps to the byte
    of the lowest set bit, so the number of steps is the number of non-zero
    bytes, whatever the Picard rank or the height of the bits.
    """
    if packed < 256:
        return _BYTE_TEXT[packed]
    terms = []
    while packed:
        byte = packed & (255 << ((packed & -packed).bit_length() - 1 & -8))
        terms.append(_BYTE_TEXT[byte])
        packed ^= byte
    return "*".join(terms)


def line_label(mask: int) -> str:
    """Concrete syntax of a line bundle class; the trivial one is O."""
    return label(mask << 2) if mask else "O"


class _PackedClass(_Frozen):
    """Base of the two composite groups: a class stored as its rank and its
    packed int unit | pi_exp << 1 | mask << 2, whose group law is XOR.

    A subclass names its coordinates in _fields, the class in the message of
    from_packed in _what, and the bits its packed int keeps clear in _clear.
    """

    __slots__ = ("packed", "rank")
    _stored = __slots__
    _clear = 0

    unit = property(lambda self: self.packed & 1, doc="The unit square class bit.")
    mask = property(lambda self: self.packed >> 2, doc="The line bundle mask over L1..L<rank>.")

    @classmethod
    def from_packed(cls, rank: int, packed: int) -> "_PackedClass":
        """The class of the packed int unit | pi_exp << 1 | mask << 2.

        Checks rank, then packed with one test: an int in 0..2**(rank + 2) - 1
        with the bits of _clear clear, which holds exactly when each
        coordinate the constructor checks is valid.  A negative int shifts to
        -1, so the shift refuses it too.  check_rank is called only to raise
        its message.
        """
        if type(rank) is not int or not 0 <= rank <= MAX_PICARD_RANK:
            check_rank(rank)
        if type(packed) is not int or packed >> rank + 2 or packed & cls._clear:
            raise packed_error(cls._what, packed, rank)
        view = _new(cls)
        _set(view, "packed", packed)
        _set(view, "rank", rank)
        return view

    def _xor(self, other: "_PackedClass") -> "_PackedClass":
        """The group law.  XOR of two packed ints in range is in range, so the
        result takes no second test."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        rank = self.rank
        if rank != other.rank:
            raise ValueError("config mismatch: line bundle classes of different rank")
        view = _new(self.__class__)
        _set(view, "packed", self.packed ^ other.packed)
        _set(view, "rank", rank)
        return view

    @property
    def is_trivial(self) -> bool:
        return not self.packed


class Generator(_PackedClass):
    """Square class u * pi^e * L over the curve, equally the rank-1 form <u*pi^e*L>.

    Discriminants live here.  A group of order 4n under multiplication, which
    adds all three coordinates mod 2 (pi^2 is a square).  The line bundle L is
    a mask over L1..L<rank>.
    """

    __slots__ = ()
    _fields = ("unit", "pi_exp", "mask", "rank")
    _what = "generator"

    pi_exp = property(lambda self: self.packed >> 1 & 1, doc="The pi exponent bit.")
    __mul__ = _PackedClass._xor

    def __init__(self, unit: int, pi_exp: int, mask: int, rank: int) -> None:
        check_bit(unit, "unit square class bit")
        check_bit(pi_exp, "pi exponent")
        check_mask(mask, rank)
        _set(self, "packed", unit | pi_exp << 1 | mask << 2)
        _set(self, "rank", rank)

    @classmethod
    def one(cls, rank: int) -> "Generator":
        """The trivial class, the generator <1>."""
        return cls(0, 0, 0, rank)

    @classmethod
    def pi(cls, rank: int) -> "Generator":
        """The generator <pi>."""
        return cls(0, 1, 0, rank)

    def __str__(self) -> str:
        return label(self.packed)


class BrauerClass(_PackedClass):
    """2-torsion Brauer class, encoded as the quaternion pair (u*L, pi).

    A group of order 2n under coordinatewise addition; the identity is the
    class of the trivial (matrix) algebra.  Its packed int has no pi bit.
    """

    __slots__ = ()
    _fields = ("unit", "mask", "rank")
    _what = "Brauer class"
    _clear = 2

    __add__ = _PackedClass._xor

    def __init__(self, unit: int, mask: int, rank: int) -> None:
        check_bit(unit, "unit square class bit")
        check_mask(mask, rank)
        _set(self, "packed", unit | mask << 2)
        _set(self, "rank", rank)

    @classmethod
    def identity(cls, rank: int) -> "BrauerClass":
        return cls(0, 0, rank)

    def __str__(self) -> str:
        return f"({label(self.packed)}, pi)"


def enumerate_generators(cfg: CurveConfig) -> list[Generator]:
    """All 4n generators, units before non-units, pi-free before ramified."""
    check_config(cfg, "enumerate_generators")
    rank = cfg.picard_rank
    pic = range(cfg.pic_order)
    return [
        Generator.from_packed(rank, u | e << 1 | mask << 2)
        for e in (0, 1)
        for u in (0, 1)
        for mask in pic
    ]


def enumerate_groups(
    cfg: CurveConfig,
) -> tuple[list[int], list[Generator], list[BrauerClass]]:
    """Complete duplicate-free enumerations of the three value groups: line
    bundle masks, square classes and Brauer classes.

    Sizes are n, 4n and 2n respectively, in a fixed deterministic order; the
    square classes are enumerate_generators(cfg).
    """
    check_config(cfg, "enumerate_groups")
    rank = cfg.picard_rank
    pic = list(range(cfg.pic_order))
    brauer = [BrauerClass.from_packed(rank, u | mask << 2) for u in (0, 1) for mask in pic]
    return pic, enumerate_generators(cfg), brauer
