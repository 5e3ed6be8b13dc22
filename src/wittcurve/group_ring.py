"""The group-ring realization of the Witt ring of the curve.

A Witt class over the reduction is pinned down by rank parity together with
its signed discriminant (the Brauer group of the reduction vanishes, so there
is no Clifford term).  The full ring is then the group ring over those residue
classes on the two-element group generated by <pi>: an element is a pair
(a, b) standing for a + <pi>*b.  This gives a decision procedure for the
curve's Witt ring that is independent of the invariant engine: it scans the
packed entries of a form itself and never reads their summary.  The canonical
shapes and the class census are its answers: a class's minimal representative
and its shape follow from the types of its two components.

The arithmetic runs on packed ints.  A residue class is parity | unit << 1 |
mask << 2, its signed discriminant being the square class unit * (L-mask);
a group ring element is the pair (a, b) of packed residue classes.  The
product of two residue classes is one closed form, residue_mul, which
element_mul writes out for each of its four products.  The public classes are
views of these, and each stores just its config and its packed value: an
element's components are built from the pair when they are read, and both
views print through _residue_text, so an element prints from its pair
without building them.
"""

from __future__ import annotations

from collections.abc import Iterable
from enum import Enum
from functools import reduce
from operator import xor

from .forms import DiagonalForm
from .groups import (
    CurveConfig,
    Generator,
    _Frozen,
    _new,
    _set,
    check_bit,
    check_config,
    check_mask,
    label,
    packed_error,
    require_same_config,
)


def residue_add(m: int, a: int, b: int) -> int:
    """Sum of packed residue classes; m is the unit bit of -1.

    The sign twist contributes a cross term [-1] exactly when both summands
    have odd rank.
    """
    return a ^ b ^ ((a & b & m) << 1)


def residue_neg(m: int, a: int) -> int:
    return a ^ ((a & m) << 1)


def residue_mul(m: int, a: int, b: int) -> int:
    """Product of packed residue classes, with d, d' their signed discriminants.

    odd * odd is (1, d + d' + [-1]): <-d> * <-d'> = <d d'>, whose signed
    discriminant is -d d'.  odd * even is the even factor: <-d> * <1, -d'> =
    <-d, d d'>, whose signed discriminant is -(-d)(d d') = d'.  even * even
    is zero: the fundamental ideal of the residue ring squares to zero.  So
    u*v = [v odd]u + [u odd]v, plus parity 1 and [-1] when both are odd, the
    closed form element_mul writes out four times.
    """
    return (a if b & 1 else 0) ^ (b if a & 1 else 0) ^ ((m << 1 | 1) if a & b & 1 else 0)


def _residue_text(a: int) -> str:
    """Text of a packed residue class: its parity and signed discriminant."""
    # The discriminant's unit bit is bit 1 here and bit 0 of a label.
    return f"(parity {a & 1}, disc {label(a >> 1 & 1 | a & ~3)})"


def element_add(m: int, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """residue_add on each component, written out so that a table row of
    check_ring_iso costs one call per entry."""
    a, b = x
    c, d = y
    return a ^ c ^ ((a & c & m) << 1), b ^ d ^ ((b & d & m) << 1)


def element_neg(m: int, x: tuple[int, int]) -> tuple[int, int]:
    """residue_neg on each component, written out as element_add is."""
    a, b = x
    return a ^ ((a & m) << 1), b ^ ((b & m) << 1)


def element_mul(m: int, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """(a + <pi>b)(c + <pi>d) = (ac + bd) + <pi>(ad + bc): <pi> squares to 1,
    so the ramified components multiply back into the residue component.

    The four residue_mul and two residue_add calls are written out, so that a
    table row of check_ring_iso costs one call per entry.
    """
    a, b = x
    c, d = y
    both_odd = m << 1 | 1
    ac = (a if c & 1 else 0) ^ (c if a & 1 else 0) ^ (both_odd if a & c & 1 else 0)
    bd = (b if d & 1 else 0) ^ (d if b & 1 else 0) ^ (both_odd if b & d & 1 else 0)
    ad = (a if d & 1 else 0) ^ (d if a & 1 else 0) ^ (both_odd if a & d & 1 else 0)
    bc = (b if c & 1 else 0) ^ (c if b & 1 else 0) ^ (both_odd if b & c & 1 else 0)
    return ac ^ bd ^ ((ac & bd & m) << 1), ad ^ bc ^ ((ad & bc & m) << 1)


def packed_coordinates(m: int, packed: Iterable[int]) -> tuple[int, int]:
    """Packed group ring element of packed form entries: split by pi exponent.

    Each component is the residue class of its count entries, whose packed
    product is disc: parity count & 1, and the unit of disc twisted by the
    sign exponent count*(count+1)/2, which is odd exactly when (count + 1) >> 1
    is.
    """
    packed = tuple(packed)
    ramified = tuple(filter((2).__and__, packed))
    ramified_count = len(ramified)
    residue_count = len(packed) - ramified_count
    ramified_disc = reduce(xor, ramified, 0)
    residue_disc = reduce(xor, packed, 0) ^ ramified_disc
    return (
        residue_count & 1
        | ((residue_disc & 1) ^ ((residue_count + 1) >> 1 & m)) << 1
        | residue_disc & ~3,
        ramified_count & 1
        | ((ramified_disc & 1) ^ ((ramified_count + 1) >> 1 & m)) << 1
        | ramified_disc & ~3,
    )


def _template(m: int, a: int) -> tuple[int, ...]:
    """Packed entries of the minimal pi-free representative of a residue class.

    Zero is empty; an odd class is <-d> and an even one <1, -d>, with d its
    signed discriminant.
    """
    if not a:
        return ()
    partner = ((a >> 1 & 1) ^ m) | a & ~3
    return (partner,) if a & 1 else (0, partner)


def packed_representative(m: int, x: tuple[int, int]) -> tuple[int, ...]:
    """Packed entries of rep(a) + pi * rep(b), the minimal representative."""
    return _template(m, x[0]) + tuple(map((2).__or__, _template(m, x[1])))


class Shape(Enum):
    """The canonical representative shapes, in their fixed listing order.

    Members are named <residue part>_<ramified part> by the Witt-class type
    (zero, odd rank, even nonzero) of each group-ring component; values are
    the shape templates with s*L the residue slot and t*pi*M the ramified one.
    """

    ODD_ZERO = "<s*L>"
    ZERO_ODD = "<t*pi*M>"
    EVEN_ZERO = "<1,s*L>"
    ODD_ODD = "<s*L,t*pi*M>"
    ZERO_EVEN = "<pi,t*pi*M>"
    EVEN_ODD = "<1,s*L,t*pi*M>"
    ODD_EVEN = "<s*L,pi,t*pi*M>"
    EVEN_EVEN = "<1,s*L,pi,t*pi*M>"
    ZERO = "ZERO"


NONTRIVIAL_SHAPES: tuple[Shape, ...] = tuple(s for s in Shape if s is not Shape.ZERO)


# The shape of each minimal representative, keyed by the pi bit (entry & 2)
# of each of its entries and read from the member values, whose ramified
# entries are those with a pi.  A component has no entry if it is zero, one
# if it is odd and two if it is even (_template), so the key is its type.
_SHAPE_BY_PI_BITS = {
    tuple(2 if "pi" in entry else 0 for entry in s.value[1:-1].split(",")): s
    for s in NONTRIVIAL_SHAPES
}
_SHAPE_BY_PI_BITS[()] = Shape.ZERO


def packed_residue_classes(cfg: CurveConfig) -> list[int]:
    """All 4n packed residue classes, even before odd, in discriminant order."""
    return [
        parity | unit << 1 | mask << 2
        for parity in (0, 1)
        for unit in (0, 1)
        for mask in range(cfg.pic_order)
    ]


def packed_group_ring_elements(cfg: CurveConfig) -> list[tuple[int, int]]:
    """All 16n^2 packed elements a + <pi>*b."""
    classes = packed_residue_classes(cfg)
    return [(a, b) for a in classes for b in classes]


class _PackedView:
    """Storage and operators shared by the two views.  A view stores its
    config and its packed value; a subclass names its packed zero, its packed
    ones (the packed <1> when the unit bit of -1 is 0 and when it is 1) and
    the packed add, neg and mul it computes with, each taking the unit bit
    of -1 first.  An operand of another class gets NotImplemented."""

    __slots__ = ("config", "packed")
    _stored = __slots__

    @classmethod
    def zero(cls, cfg: CurveConfig) -> _PackedView:
        if cfg.__class__ is not CurveConfig:
            check_config(cfg, f"{cls.__name__}.zero")
        return cls.from_packed(cfg, cls._zero)

    @classmethod
    def one(cls, cfg: CurveConfig) -> _PackedView:
        """The class of <1>; its signed discriminant is the class of -1."""
        if cfg.__class__ is not CurveConfig:
            check_config(cfg, f"{cls.__name__}.one")
        return cls.from_packed(cfg, cls._ones[cfg.minus_one])

    @property
    def is_zero(self) -> bool:
        return self.packed == self._zero

    def __add__(self, other: _PackedView) -> _PackedView:
        if other.__class__ is not self.__class__:
            return NotImplemented
        cfg = self.config
        require_same_config(cfg, other.config)
        return self.from_packed(cfg, self._add(cfg.minus_one, self.packed, other.packed))

    def __neg__(self) -> _PackedView:
        cfg = self.config
        return self.from_packed(cfg, self._neg(cfg.minus_one, self.packed))

    def __mul__(self, other: _PackedView) -> _PackedView:
        if other.__class__ is not self.__class__:
            return NotImplemented
        cfg = self.config
        require_same_config(cfg, other.config)
        return self.from_packed(cfg, self._mul(cfg.minus_one, self.packed, other.packed))


class ResidueWittClass(_PackedView, _Frozen):
    """Witt class over the reduction: rank parity plus signed discriminant.

    The discriminant has no pi coordinate; there are exactly 4n classes.  The
    class stores packed, parity | disc_unit << 1 | disc_mask << 2, and reads
    its coordinates from it.
    """

    __slots__ = ()
    _fields = ("config", "parity", "disc_unit", "disc_mask")

    _zero = 0
    _ones = (1, 3)
    _add = staticmethod(residue_add)
    _neg = staticmethod(residue_neg)
    _mul = staticmethod(residue_mul)

    parity = property(lambda self: self.packed & 1, doc="The rank parity bit.")
    disc_unit = property(lambda self: self.packed >> 1 & 1, doc="The discriminant's unit bit.")
    disc_mask = property(lambda self: self.packed >> 2, doc="The discriminant's line bundle mask.")

    def __init__(self, config: CurveConfig, parity: int, disc_unit: int, disc_mask: int) -> None:
        check_config(config, "ResidueWittClass")
        check_bit(parity, "parity")
        check_bit(disc_unit, "unit square class bit")
        check_mask(disc_mask, config.picard_rank)
        _set(self, "config", config)
        _set(self, "packed", parity | disc_unit << 1 | disc_mask << 2)

    @classmethod
    def from_packed(cls, cfg: CurveConfig, packed: int) -> "ResidueWittClass":
        """The class of parity | unit << 1 | mask << 2, checked with one test
        as groups.Generator.from_packed does."""
        if cfg.__class__ is not CurveConfig:
            check_config(cfg, "ResidueWittClass.from_packed")
        rank = cfg.picard_rank
        if type(packed) is not int or packed >> rank + 2:
            raise packed_error("residue class", packed, rank)
        x = _new(cls)
        _set(x, "config", cfg)
        _set(x, "packed", packed)
        return x

    @classmethod
    def from_generators(
        cls, cfg: CurveConfig, gens: Iterable[Generator]
    ) -> "ResidueWittClass":
        """Class of a diagonal form over the reduction (pi-free generators only)."""
        packed = DiagonalForm(cfg, gens).packed
        if any(p & 2 for p in packed):
            raise ValueError("residue classes come from pi-free generators")
        return cls.from_packed(cfg, packed_coordinates(cfg.minus_one, packed)[0])

    def __str__(self) -> str:
        return _residue_text(self.packed)


class GroupRingElement(_PackedView, _Frozen):
    """Element a + <pi>*b of the group ring over the residue Witt ring.

    The element stores packed, the pair (a.packed, b.packed), and builds the
    residue component a and the ramified component b, the coefficient of
    <pi>, as ResidueWittClass views when they are read.
    """

    __slots__ = ()
    _fields = ("a", "b")

    _zero = (0, 0)
    _ones = ((1, 0), (3, 0))
    _add = staticmethod(element_add)
    _neg = staticmethod(element_neg)
    _mul = staticmethod(element_mul)

    a = property(lambda self: ResidueWittClass.from_packed(self.config, self.packed[0]))
    b = property(lambda self: ResidueWittClass.from_packed(self.config, self.packed[1]))

    def __init__(self, a: ResidueWittClass, b: ResidueWittClass) -> None:
        if not (isinstance(a, ResidueWittClass) and isinstance(b, ResidueWittClass)):
            got = f"{type(a).__name__} and {type(b).__name__}"
            raise TypeError(f"GroupRingElement() takes two ResidueWittClass, got {got}")
        if a.config != b.config:
            raise ValueError("config mismatch: mixed group ring components")
        _set(self, "config", a.config)
        _set(self, "packed", (a.packed, b.packed))

    @classmethod
    def from_packed(cls, cfg: CurveConfig, x: tuple[int, int]) -> "GroupRingElement":
        """The element of the pair x of packed residue classes, each checked
        with the one test of ResidueWittClass.from_packed."""
        if cfg.__class__ is not CurveConfig:
            check_config(cfg, "GroupRingElement.from_packed")
        if type(x) is not tuple or len(x) != 2:
            got = f"a tuple of {len(x)}" if type(x) is tuple else type(x).__name__
            raise ValueError(f"a packed group ring element is a pair of ints, got {got}")
        rank = cfg.picard_rank
        for packed in x:
            if type(packed) is not int or packed >> rank + 2:
                raise packed_error("residue class", packed, rank)
        element = _new(cls)
        _set(element, "config", cfg)
        _set(element, "packed", x)
        return element

    def __str__(self) -> str:
        a, b = self.packed
        return f"[{_residue_text(a)} | pi: {_residue_text(b)}]"


def to_group_ring(form: DiagonalForm) -> GroupRingElement:
    """Split a form by pi exponent into (residue, ramified) residue classes."""
    if not isinstance(form, DiagonalForm):
        raise TypeError(f"to_group_ring() takes a DiagonalForm, got {type(form).__name__}")
    cfg = form.config
    return GroupRingElement.from_packed(cfg, packed_coordinates(cfg.minus_one, form.packed))


def from_group_ring(x: GroupRingElement) -> DiagonalForm:
    """Minimal diagonal representative rep(a) + pi * rep(b).

    The output is empty for zero and otherwise instantiates one of the eight
    canonical shape templates.
    """
    if not isinstance(x, GroupRingElement):
        raise TypeError(f"from_group_ring() takes a GroupRingElement, got {type(x).__name__}")
    cfg = x.config
    return DiagonalForm._from_packed(cfg, packed_representative(cfg.minus_one, x.packed))


def inclusion(cls: ResidueWittClass) -> DiagonalForm:
    """Embed a residue class into the curve's ring as a pi-free form."""
    if not isinstance(cls, ResidueWittClass):
        raise TypeError(f"inclusion() takes a ResidueWittClass, got {type(cls).__name__}")
    cfg = cls.config
    return DiagonalForm._from_packed(cfg, _template(cfg.minus_one, cls.packed))


def splitting_map(form: DiagonalForm) -> ResidueWittClass:
    """Ring-homomorphic retraction onto the residue classes.

    Sends <pi> to <1>; the kernel is the ideal generated by <1, -pi>, and the
    composite with inclusion is the identity.
    """
    if not isinstance(form, DiagonalForm):
        raise TypeError(f"splitting_map() takes a DiagonalForm, got {type(form).__name__}")
    cfg = form.config
    m = cfg.minus_one
    a, b = packed_coordinates(m, form.packed)
    return ResidueWittClass.from_packed(cfg, residue_add(m, a, b))


def enumerate_residue_classes(cfg: CurveConfig) -> list[ResidueWittClass]:
    """All 4n residue classes, even before odd, in discriminant order."""
    check_config(cfg, "enumerate_residue_classes")
    return [ResidueWittClass.from_packed(cfg, a) for a in packed_residue_classes(cfg)]


def enumerate_group_ring_elements(cfg: CurveConfig) -> list[GroupRingElement]:
    """All 16n^2 elements a + <pi>*b."""
    check_config(cfg, "enumerate_group_ring_elements")
    return [GroupRingElement.from_packed(cfg, x) for x in packed_group_ring_elements(cfg)]


class CanonicalShape(_Frozen):
    """A shape tag together with the concrete minimal representative."""

    __slots__ = ("tag", "payload")

    def __init__(self, tag: Shape, payload: DiagonalForm) -> None:
        _set(self, "tag", tag)
        _set(self, "payload", payload)

    @property
    def is_zero(self) -> bool:
        return self.tag is Shape.ZERO


def canonical_form(form: DiagonalForm) -> CanonicalShape:
    """Canonical representative of the Witt class of a form.

    Round-trips through the group-ring coordinates, whose minimal
    representative is the payload and picks the shape.  Two forms get
    identical results exactly when they are Witt-equal, and the payload itself
    maps back to the same result.
    """
    if not isinstance(form, DiagonalForm):
        raise TypeError(f"canonical_form() takes a DiagonalForm, got {type(form).__name__}")
    cfg = form.config
    m = cfg.minus_one
    payload = packed_representative(m, packed_coordinates(m, form.packed))
    tag = _SHAPE_BY_PI_BITS[tuple(map((2).__and__, payload))]
    return CanonicalShape(tag, DiagonalForm._from_packed(cfg, payload))


class CensusReport(_Frozen):
    """Distinct Witt classes of a configuration, counted per canonical shape:
    config, total and shape_counts, a tuple of (Shape, int) pairs."""

    __slots__ = ("config", "total", "shape_counts")

    @property
    def nontrivial_total(self) -> int:
        return sum(count for _, count in self.shape_counts)


def enumerate_classes(cfg: CurveConfig) -> CensusReport:
    """Census of all 16n^2 classes, grouped by canonical shape, in closed form.

    Shape rows cover the nontrivial classes; the total includes the zero
    class.
    """
    check_config(cfg, "enumerate_classes")
    # Of the 4n residue classes one is zero, 2n are odd and 2n - 1 are even and
    # nonzero, so that sizes[k] classes have a minimal representative of k
    # entries; a shape takes one of them in each component.
    n = cfg.pic_order
    sizes = (1, 2 * n, 2 * n - 1)
    counts = {s: sizes[k.count(0)] * sizes[k.count(2)] for k, s in _SHAPE_BY_PI_BITS.items()}
    return CensusReport(
        config=cfg,
        total=sum(counts.values()),
        shape_counts=tuple((shape, counts[shape]) for shape in NONTRIVIAL_SHAPES),
    )
