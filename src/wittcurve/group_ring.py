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
mask << 2, its signed discriminant being the square class unit * (L-mask),
an int below 1 << w with w = r + 2; a group ring element is the int
a | b << w of its packed components, so a residue class a is the element
a + <pi>*0, the same int.  The element operations are the one ring law.
They take the config's law (M, w, low, parity), where M = m | m << w puts
the unit bit m of -1 at the parity bit of each component, low = 2^w - 1
masks the residue component and parity = 2^w + 1 holds the parity bit of
each, and work on both components at once; on ints below 2^w they stay
below 2^w, and compute in the residue ring.  The public classes are views
of these, and each stores just its config and its packed value: an
element's components are built from its int when they are read, and both
views print through _residue_text, so an element prints from its int
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


def _residue_text(a: int) -> str:
    """Text of a packed residue class: its parity and signed discriminant."""
    # The discriminant's unit bit is bit 1 here and bit 0 of a label.
    return f"(parity {a & 1}, disc {label(a >> 1 & 1 | a & ~3)})"


def element_add(law: tuple[int, int, int, int], x: int, y: int) -> int:
    """Sum of packed elements, one component at a time.

    The sum of residue classes is the XOR of their coordinates, and the sign
    twist contributes a cross term [-1] exactly when both summands have odd
    rank.  The twist (x & y & M) << 1 moves only bit 0 to bit 1 and bit w to
    bit w + 1, so it never crosses into the other component, nor out of a
    lane of lane_law.
    """
    return x ^ y ^ ((x & y & law[0]) << 1)


def element_neg(law: tuple[int, int, int, int], x: int) -> int:
    """Negative of a packed element: each odd component gains [-1], by the
    twist of element_add."""
    return x ^ ((x & law[0]) << 1)


def element_mul(law: tuple[int, int, int, int], x: int, y: int) -> int:
    """(a + <pi>b)(c + <pi>d) = (ac + bd) + <pi>(ad + bc): <pi> squares to 1,
    so the ramified components multiply back into the residue component.

    The product of residue classes u, v with signed discriminants d, d' is
    one closed form.  odd * odd is (1, d + d' + [-1]): <-d> * <-d'> =
    <d d'>, whose signed discriminant is -d d'.  odd * even is the even
    factor: <-d> * <1, -d'> = <-d, d d'>, whose signed discriminant is
    -(-d)(d d') = d'.  even * even is zero: the fundamental ideal of the
    residue ring squares to zero.  So u*v = [v odd]u + [u odd]v, plus
    parity 1 and [-1] when both are odd.

    The element product is a*y + swap(b*y), where u*y multiplies the residue
    class u into both components of y and swap exchanges the two components.
    With P the parity bits of both components, y & P holds the parity of c
    and of d, so the terms [c odd]u and [u odd](c + [c odd](1, [-1])) are
    u * (y & P) and twisted, for both components at once.  For residue
    classes x = a and y = c, below 2^w, b*y and its swap are 0 and the
    product is a*c, below 2^w.

    The same call multiplies one element x into every lane of y under
    lane_law.  A lane of y & P is one of 0, 1, 2^w and 2^w + 1, and a < 2^w,
    so a * (y & P) stays below 2^(2w) in each lane; the twists move bit 0 to
    1 and bit w to w + 1; and the swap masks its down-shift with low, which
    changes nothing for a single element (b*y < 2^(2w)) and keeps a lane's
    residue half out of the lane below.  No bit crosses into another lane.
    """
    sign_masks, w, low, parity = law
    odd = y & parity
    twisted = y ^ odd ^ (y & sign_masks) << 1
    a, b = x & low, x >> w
    ay = a * odd ^ (twisted if a & 1 else 0)
    by = b * odd ^ (twisted if b & 1 else 0)
    swapped = by >> w & low | (by & low) << w
    return ay ^ swapped ^ ((ay & swapped & sign_masks) << 1)


def lane_law(law: tuple[int, int, int, int], ones: int) -> tuple[int, int, int, int]:
    """The law with its masks repeated at each set bit of ones: the element
    operations then work on every lane of an int at once, one element per
    lane.  A lane must hold the 2w bits of an element, so the set bits of
    ones are 2w or more apart; element_mul takes a single element, below
    2^(2w), as its left factor."""
    sign_masks, w, low, parity = law
    return sign_masks * ones, w, low * ones, parity * ones


def packed_coordinates(law: tuple[int, int, int, int], packed: Iterable[int]) -> int:
    """Packed group ring element of packed form entries: split by pi exponent.

    Each component is the residue class of its count entries, whose packed
    product is disc: parity count & 1, and the unit of disc twisted by the
    sign exponent count*(count+1)/2, which is odd exactly when (count + 1) >> 1
    is.
    """
    m, w = law[0] & 1, law[1]
    packed = tuple(packed)
    ramified = tuple(filter((2).__and__, packed))
    ramified_count = len(ramified)
    residue_count = len(packed) - ramified_count
    ramified_disc = reduce(xor, ramified, 0)
    residue_disc = reduce(xor, packed, 0) ^ ramified_disc
    return (
        residue_count & 1
        | ((residue_disc & 1) ^ ((residue_count + 1) >> 1 & m)) << 1
        | residue_disc & ~3
    ) | (
        ramified_count & 1
        | ((ramified_disc & 1) ^ ((ramified_count + 1) >> 1 & m)) << 1
        | ramified_disc & ~3
    ) << w


def _template(m: int, a: int) -> tuple[int, ...]:
    """Packed entries of the minimal pi-free representative of a residue class.

    Zero is empty; an odd class is <-d> and an even one <1, -d>, with d its
    signed discriminant.
    """
    if not a:
        return ()
    partner = ((a >> 1 & 1) ^ m) | a & ~3
    return (partner,) if a & 1 else (0, partner)


def packed_representative(law: tuple[int, int, int, int], x: int) -> tuple[int, ...]:
    """Packed entries of rep(a) + pi * rep(b), the minimal representative."""
    sign_masks, w, low, _ = law
    m = sign_masks & 1
    return _template(m, x & low) + tuple(map((2).__or__, _template(m, x >> w)))


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


def packed_group_ring_elements(cfg: CurveConfig) -> list[int]:
    """All 16n^2 packed elements a + <pi>*b, by a and then by b."""
    classes = packed_residue_classes(cfg)
    return [a | b << cfg.picard_rank + 2 for a in classes for b in classes]


class _PackedView:
    """Storage, constructor and operators shared by the two views.  A view
    stores its config and its packed value, 0 for zero and minus_one << 1 | 1
    for <1> in both packings, and computes with the element operations on
    the config's _ring_law, a residue class as the element a + <pi>*0.  A
    subclass names in _components how many packed residue classes its int
    holds, and the view in the message of from_packed in _what.  An operand
    of another class gets NotImplemented."""

    __slots__ = ("config", "packed")
    _stored = __slots__

    @classmethod
    def from_packed(cls, cfg: CurveConfig, packed: int) -> _PackedView:
        """The view of packed, _components packed residue classes of
        picard_rank + 2 bits each, checked with one test as
        groups.Generator.from_packed does."""
        if cfg.__class__ is not CurveConfig:
            check_config(cfg, f"{cls.__name__}.from_packed")
        if type(packed) is not int or packed >> cls._components * cfg._ring_law[1]:
            raise packed_error(cls._what, packed, cfg.picard_rank)
        view = _new(cls)
        _set(view, "config", cfg)
        _set(view, "packed", packed)
        return view

    @classmethod
    def zero(cls, cfg: CurveConfig) -> _PackedView:
        if cfg.__class__ is not CurveConfig:
            check_config(cfg, f"{cls.__name__}.zero")
        return cls.from_packed(cfg, 0)

    @classmethod
    def one(cls, cfg: CurveConfig) -> _PackedView:
        """The class of <1>; its signed discriminant is the class of -1."""
        if cfg.__class__ is not CurveConfig:
            check_config(cfg, f"{cls.__name__}.one")
        return cls.from_packed(cfg, cfg.minus_one << 1 | 1)

    @property
    def is_zero(self) -> bool:
        return not self.packed

    def __add__(self, other: _PackedView) -> _PackedView:
        if other.__class__ is not self.__class__:
            return NotImplemented
        cfg = self.config
        require_same_config(cfg, other.config)
        return self.from_packed(cfg, element_add(cfg._ring_law, self.packed, other.packed))

    def __neg__(self) -> _PackedView:
        cfg = self.config
        return self.from_packed(cfg, element_neg(cfg._ring_law, self.packed))

    def __mul__(self, other: _PackedView) -> _PackedView:
        if other.__class__ is not self.__class__:
            return NotImplemented
        cfg = self.config
        require_same_config(cfg, other.config)
        return self.from_packed(cfg, element_mul(cfg._ring_law, self.packed, other.packed))


class ResidueWittClass(_PackedView, _Frozen):
    """Witt class over the reduction: rank parity plus signed discriminant.

    The discriminant has no pi coordinate; there are exactly 4n classes.  The
    class stores packed, parity | disc_unit << 1 | disc_mask << 2, and reads
    its coordinates from it.
    """

    __slots__ = ()
    _fields = ("config", "parity", "disc_unit", "disc_mask")

    _components = 1
    _what = "residue class"

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
    def from_generators(
        cls, cfg: CurveConfig, gens: Iterable[Generator]
    ) -> "ResidueWittClass":
        """Class of a diagonal form over the reduction (pi-free generators only)."""
        packed = DiagonalForm(cfg, gens).packed
        if any(p & 2 for p in packed):
            raise ValueError("residue classes come from pi-free generators")
        # With no ramified entry, the ramified component is zero.
        return cls.from_packed(cfg, packed_coordinates(cfg._ring_law, packed))

    def __str__(self) -> str:
        return _residue_text(self.packed)


class GroupRingElement(_PackedView, _Frozen):
    """Element a + <pi>*b of the group ring over the residue Witt ring.

    The element stores packed, a.packed | b.packed << (picard_rank + 2), and
    builds the residue component a and the ramified component b, the
    coefficient of <pi>, as ResidueWittClass views when they are read.
    """

    __slots__ = ()
    _fields = ("a", "b")

    _components = 2
    _what = "group ring element"

    @property
    def a(self) -> ResidueWittClass:
        cfg = self.config
        return ResidueWittClass.from_packed(cfg, self.packed & cfg._ring_law[2])

    @property
    def b(self) -> ResidueWittClass:
        return ResidueWittClass.from_packed(self.config, self.packed >> self.config.picard_rank + 2)

    def __init__(self, a: ResidueWittClass, b: ResidueWittClass) -> None:
        if not (isinstance(a, ResidueWittClass) and isinstance(b, ResidueWittClass)):
            got = f"{type(a).__name__} and {type(b).__name__}"
            raise TypeError(f"GroupRingElement() takes two ResidueWittClass, got {got}")
        if a.config != b.config:
            raise ValueError("config mismatch: mixed group ring components")
        _set(self, "config", a.config)
        _set(self, "packed", a.packed | b.packed << a.config.picard_rank + 2)

    def __str__(self) -> str:
        x = self.packed
        _, w, low, _ = self.config._ring_law
        return f"[{_residue_text(x & low)} | pi: {_residue_text(x >> w)}]"


def to_group_ring(form: DiagonalForm) -> GroupRingElement:
    """Split a form by pi exponent into (residue, ramified) residue classes."""
    if not isinstance(form, DiagonalForm):
        raise TypeError(f"to_group_ring() takes a DiagonalForm, got {type(form).__name__}")
    cfg = form.config
    return GroupRingElement.from_packed(cfg, packed_coordinates(cfg._ring_law, form.packed))


def from_group_ring(x: GroupRingElement) -> DiagonalForm:
    """Minimal diagonal representative rep(a) + pi * rep(b).

    The output is empty for zero and otherwise instantiates one of the eight
    canonical shape templates.
    """
    if not isinstance(x, GroupRingElement):
        raise TypeError(f"from_group_ring() takes a GroupRingElement, got {type(x).__name__}")
    cfg = x.config
    return DiagonalForm._from_packed(cfg, packed_representative(cfg._ring_law, x.packed))


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
    law = cfg._ring_law
    x = packed_coordinates(law, form.packed)
    return ResidueWittClass.from_packed(cfg, element_add(law, x & law[2], x >> law[1]))


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
    law = cfg._ring_law
    payload = packed_representative(law, packed_coordinates(law, form.packed))
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
