"""Exact arithmetic for the finite 2-torsion groups behind every invariant.

Everything here is an elementary abelian 2-group: unit square classes of the
residue field, the uniformizer exponent, 2-torsion line bundle classes, and
the two composite groups (global square classes and 2-torsion Brauer classes)
built from them.  Elements are immutable and addition is coordinatewise XOR.
"""

from __future__ import annotations

from dataclasses import dataclass


def _check_bit(value: int, what: str) -> None:
    if value not in (0, 1):
        raise ValueError(f"{what} must be 0 or 1, got {value!r}")


@dataclass(frozen=True, slots=True)
class CurveConfig:
    """The two parameters that determine the whole calculation.

    q_mod_4 is the residue field cardinality mod 4 (1 or 3; even residue
    characteristic is rejected).  picard_rank is the rank r of the 2-torsion
    Picard group, so that group has order n = 2**r.
    """

    q_mod_4: int
    picard_rank: int

    def __post_init__(self) -> None:
        if self.q_mod_4 not in (1, 3):
            raise ValueError(
                "dyadic or invalid residue class: "
                f"q_mod_4 must be 1 or 3, got {self.q_mod_4!r}"
            )
        if self.picard_rank < 0:
            raise ValueError(f"picard_rank must be >= 0, got {self.picard_rank!r}")

    @property
    def pic_order(self) -> int:
        """Order n = 2**r of the 2-torsion Picard group."""
        return 1 << self.picard_rank


def make_config(q_mod_4: int, picard_rank: int) -> CurveConfig:
    """Validated configuration; every other operation takes it as context."""
    return CurveConfig(q_mod_4, picard_rank)


@dataclass(frozen=True, slots=True)
class UnitSquareClass:
    """Square class of a unit of the residue field.

    bit 0 is the class of squares, bit 1 the class of the fixed non-square s.
    """

    bit: int

    def __post_init__(self) -> None:
        _check_bit(self.bit, "unit square class bit")

    def __add__(self, other: "UnitSquareClass") -> "UnitSquareClass":
        return UnitSquareClass(self.bit ^ other.bit)

    @property
    def is_trivial(self) -> bool:
        return self.bit == 0

    def __str__(self) -> str:
        return "s" if self.bit else "1"


_UNIT_CLASSES = (UnitSquareClass(0), UnitSquareClass(1))


def minus_one_class(cfg: CurveConfig) -> UnitSquareClass:
    """Square class of -1: trivial iff q = 1 mod 4 (Euler criterion)."""
    return _UNIT_CLASSES[cfg.q_mod_4 == 3]


@dataclass(frozen=True, slots=True)
class PicTorsionClass:
    """2-torsion line bundle class: a bit vector over the basis L1..Lr.

    Stored as an integer mask; bit i-1 of the mask is the L_i coordinate.
    The identity is the class of the structure sheaf O.
    """

    rank: int
    mask: int

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"rank must be >= 0, got {self.rank!r}")
        if not 0 <= self.mask < (1 << self.rank):
            raise ValueError(
                f"line bundle mask {self.mask!r} out of range for rank {self.rank}"
            )

    @classmethod
    def identity(cls, rank: int) -> "PicTorsionClass":
        return cls(rank, 0)

    @classmethod
    def basis(cls, rank: int, index: int) -> "PicTorsionClass":
        """Basis class L<index>, 1-indexed."""
        if not 1 <= index <= rank:
            raise ValueError(f"unknown bundle label L{index} for rank {rank}")
        return cls(rank, 1 << (index - 1))

    @property
    def coords(self) -> tuple[int, ...]:
        return tuple((self.mask >> i) & 1 for i in range(self.rank))

    def __add__(self, other: "PicTorsionClass") -> "PicTorsionClass":
        if self.rank != other.rank:
            raise ValueError("config mismatch: line bundle classes of different rank")
        return PicTorsionClass(self.rank, self.mask ^ other.mask)

    @property
    def is_trivial(self) -> bool:
        return self.mask == 0

    def __str__(self) -> str:
        if self.mask == 0:
            return "O"
        return "*".join(f"L{i + 1}" for i in range(self.rank) if (self.mask >> i) & 1)


@dataclass(frozen=True, slots=True)
class GlobalSquareClass:
    """Square class u * pi^e * L over the curve: where discriminants live.

    A group of order 4n under coordinatewise addition.
    """

    unit: UnitSquareClass
    pi_exp: int
    line: PicTorsionClass

    def __post_init__(self) -> None:
        _check_bit(self.pi_exp, "pi exponent")

    @classmethod
    def identity(cls, rank: int) -> "GlobalSquareClass":
        return cls(UnitSquareClass(0), 0, PicTorsionClass.identity(rank))

    def __add__(self, other: "GlobalSquareClass") -> "GlobalSquareClass":
        return GlobalSquareClass(
            self.unit + other.unit,
            self.pi_exp ^ other.pi_exp,
            self.line + other.line,
        )

    @property
    def is_trivial(self) -> bool:
        return self.unit.bit == 0 and self.pi_exp == 0 and self.line.mask == 0

    def __str__(self) -> str:
        terms = []
        if self.unit.bit:
            terms.append("s")
        if self.pi_exp:
            terms.append("pi")
        if self.line.mask:
            terms.append(str(self.line))
        return "*".join(terms) if terms else "1"


@dataclass(frozen=True, slots=True)
class BrauerClass:
    """2-torsion Brauer class, encoded as the quaternion pair (u*L, pi).

    A group of order 2n under coordinatewise addition; the identity is the
    class of the trivial (matrix) algebra.
    """

    unit: UnitSquareClass
    line: PicTorsionClass

    def __add__(self, other: "BrauerClass") -> "BrauerClass":
        return BrauerClass(self.unit + other.unit, self.line + other.line)

    @classmethod
    def identity(cls, rank: int) -> "BrauerClass":
        return cls(UnitSquareClass(0), PicTorsionClass.identity(rank))

    @property
    def is_trivial(self) -> bool:
        return self.unit.bit == 0 and self.line.mask == 0

    def __str__(self) -> str:
        terms = []
        if self.unit.bit:
            terms.append("s")
        if self.line.mask:
            terms.append(str(self.line))
        return f"({'*'.join(terms) if terms else '1'}, pi)"


def enumerate_pic(cfg: CurveConfig) -> list[PicTorsionClass]:
    """All n bundle classes, in mask order (O first)."""
    return [PicTorsionClass(cfg.picard_rank, m) for m in range(cfg.pic_order)]


def enumerate_groups(
    cfg: CurveConfig,
) -> tuple[list[PicTorsionClass], list[GlobalSquareClass], list[BrauerClass]]:
    """Complete duplicate-free enumerations of the three value groups.

    Sizes are n, 4n and 2n respectively, in a fixed deterministic order.
    """
    pic = enumerate_pic(cfg)
    units = (UnitSquareClass(0), UnitSquareClass(1))
    square_classes = [
        GlobalSquareClass(u, e, line) for u in units for e in (0, 1) for line in pic
    ]
    brauer = [BrauerClass(u, line) for u in units for line in pic]
    return pic, square_classes, brauer
