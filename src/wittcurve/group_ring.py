"""The group-ring realization of the Witt ring of the curve.

A Witt class over the reduction is pinned down by rank parity together with
its signed discriminant (the Brauer group of the reduction vanishes, so there
is no Clifford term).  The full ring is then the group ring over those residue
classes on the two-element group generated by <pi>: an element is a pair
(a, b) standing for a + <pi>*b.  This gives a decision procedure for the
curve's Witt ring that is independent of the invariant engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .forms import DiagonalForm, sign_exponent
from .groups import (
    UNITS,
    CurveConfig,
    Generator,
    PicTorsionClass,
    UnitSquareClass,
    label,
    minus_one_class,
)


@dataclass(frozen=True, slots=True)
class ResidueWittClass:
    """Witt class over the reduction: rank parity plus signed discriminant.

    The discriminant has no pi coordinate; there are exactly 4n classes.
    """

    config: CurveConfig
    parity: int
    disc_unit: UnitSquareClass
    disc_line: PicTorsionClass

    def __post_init__(self) -> None:
        if self.parity not in (0, 1):
            raise ValueError(f"parity must be 0 or 1, got {self.parity!r}")
        if self.disc_line.rank != self.config.picard_rank:
            raise ValueError("config mismatch: discriminant line rank")

    @classmethod
    def zero(cls, cfg: CurveConfig) -> "ResidueWittClass":
        return cls(cfg, 0, UNITS[0], PicTorsionClass.identity(cfg.picard_rank))

    @classmethod
    def one(cls, cfg: CurveConfig) -> "ResidueWittClass":
        """Class of <1>; its signed discriminant is the class of -1."""
        return cls(cfg, 1, minus_one_class(cfg), PicTorsionClass.identity(cfg.picard_rank))

    @classmethod
    def from_generators(
        cls, cfg: CurveConfig, gens: Iterable[Generator]
    ) -> "ResidueWittClass":
        """Class of a diagonal form over the reduction (pi-free generators only)."""
        parity = 0
        unit = 0
        mask = 0
        count = 0
        for g in gens:
            if g.pi_exp:
                raise ValueError("residue classes come from pi-free generators")
            parity ^= 1
            unit ^= g.unit.bit
            mask ^= g.line.mask
            count += 1
        unit ^= sign_exponent(count) & minus_one_class(cfg).bit
        return cls(cfg, parity, UNITS[unit], PicTorsionClass(cfg.picard_rank, mask))

    @property
    def is_zero(self) -> bool:
        return self.parity == 0 and self.disc_unit.bit == 0 and self.disc_line.mask == 0

    def _require_same_config(self, other: "ResidueWittClass") -> None:
        if self.config != other.config:
            raise ValueError(f"config mismatch: {self.config} != {other.config}")

    def __add__(self, other: "ResidueWittClass") -> "ResidueWittClass":
        # The sign twist contributes a cross term [-1] exactly when both
        # summands have odd rank.
        self._require_same_config(other)
        cross = self.parity & other.parity & minus_one_class(self.config).bit
        return ResidueWittClass(
            self.config,
            self.parity ^ other.parity,
            UNITS[self.disc_unit.bit ^ other.disc_unit.bit ^ cross],
            self.disc_line + other.disc_line,
        )

    def __neg__(self) -> "ResidueWittClass":
        twist = self.parity & minus_one_class(self.config).bit
        return ResidueWittClass(
            self.config,
            self.parity,
            UNITS[self.disc_unit.bit ^ twist],
            self.disc_line,
        )

    def representative(self) -> tuple[Generator, ...]:
        """Small pi-free diagonal representative.

        Odd classes are a single generator; even classes are <1, -delta> with
        delta the signed discriminant (the zero class gets <1, -1>).
        """
        m = minus_one_class(self.config)
        partner = Generator(self.disc_unit + m, 0, self.disc_line)
        if self.parity:
            return (partner,)
        return (Generator.one(self.config.picard_rank), partner)

    def __mul__(self, other: "ResidueWittClass") -> "ResidueWittClass":
        self._require_same_config(other)
        product = [
            a * b for a in self.representative() for b in other.representative()
        ]
        return ResidueWittClass.from_generators(self.config, product)

    def __str__(self) -> str:
        disc = label(self.disc_unit.bit, 0, self.disc_line.mask)
        return f"(parity {self.parity}, disc {disc})"


@dataclass(frozen=True, slots=True)
class GroupRingElement:
    """Element a + <pi>*b of the group ring over the residue Witt ring."""

    a: ResidueWittClass
    b: ResidueWittClass

    def __post_init__(self) -> None:
        if self.a.config != self.b.config:
            raise ValueError("config mismatch: mixed group ring components")

    @property
    def config(self) -> CurveConfig:
        return self.a.config

    @classmethod
    def zero(cls, cfg: CurveConfig) -> "GroupRingElement":
        return cls(ResidueWittClass.zero(cfg), ResidueWittClass.zero(cfg))

    @classmethod
    def one(cls, cfg: CurveConfig) -> "GroupRingElement":
        return cls(ResidueWittClass.one(cfg), ResidueWittClass.zero(cfg))

    @property
    def is_zero(self) -> bool:
        return self.a.is_zero and self.b.is_zero

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        return GroupRingElement(self.a + other.a, self.b + other.b)

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement(-self.a, -self.b)

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        # <pi> squares to 1, so the ramified components multiply back into
        # the residue component.
        return GroupRingElement(
            self.a * other.a + self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    def __str__(self) -> str:
        return f"[{self.a} | pi: {self.b}]"


def to_group_ring(form: DiagonalForm) -> GroupRingElement:
    """Split a form by pi exponent into (residue, ramified) residue classes."""
    cfg = form.config
    residue = [g for g in form.entries if g.pi_exp == 0]
    ramified = [Generator(g.unit, 0, g.line) for g in form.entries if g.pi_exp]
    return GroupRingElement(
        ResidueWittClass.from_generators(cfg, residue),
        ResidueWittClass.from_generators(cfg, ramified),
    )


def _component_template(cls: ResidueWittClass) -> tuple[Generator, ...]:
    if cls.is_zero:
        return ()
    return cls.representative()


def from_group_ring(x: GroupRingElement) -> DiagonalForm:
    """Minimal diagonal representative rep(a) + pi * rep(b).

    The output is empty for zero and otherwise instantiates one of the eight
    canonical shape templates.
    """
    cfg = x.config
    pi = Generator.pi(cfg.picard_rank)
    entries = _component_template(x.a) + tuple(
        pi * g for g in _component_template(x.b)
    )
    return DiagonalForm(cfg, entries)


def inclusion(cls: ResidueWittClass) -> DiagonalForm:
    """Embed a residue class into the curve's ring as a pi-free form."""
    return DiagonalForm(cls.config, _component_template(cls))


def splitting_map(form: DiagonalForm) -> ResidueWittClass:
    """Ring-homomorphic retraction onto the residue classes.

    Sends <pi> to <1>; the kernel is the ideal generated by <1, -pi>, and the
    composite with inclusion is the identity.
    """
    x = to_group_ring(form)
    return x.a + x.b


def enumerate_residue_classes(cfg: CurveConfig) -> list[ResidueWittClass]:
    """All 4n residue classes, even before odd, in discriminant order."""
    rank = cfg.picard_rank
    return [
        ResidueWittClass(cfg, parity, u, PicTorsionClass(rank, mask))
        for parity in (0, 1)
        for u in UNITS
        for mask in range(cfg.pic_order)
    ]


def enumerate_group_ring_elements(cfg: CurveConfig) -> list[GroupRingElement]:
    """All 16n^2 elements a + <pi>*b."""
    classes = enumerate_residue_classes(cfg)
    return [GroupRingElement(a, b) for a in classes for b in classes]
