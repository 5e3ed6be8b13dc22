"""Diagonal symmetric bilinear forms over the curve and their basic algebra.

A form is an ordered orthogonal sum of rank-1 generators <u * pi^e * L>; the
empty form represents the zero Witt class.  Entry order never carries meaning,
and no normalization happens at this layer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import CurveConfig, Generator, PicTorsionClass, minus_one_class


def sign_exponent(rank: int) -> int:
    """Parity of the sign twist rank*(rank+1)/2 in the signed discriminant.

    Equal to 1 exactly when rank = 1 or 2 mod 4.
    """
    return (rank * (rank + 1) // 2) & 1


@dataclass(frozen=True, slots=True)
class DiagonalForm:
    """Ordered orthogonal sum of generators; rank is the number of entries."""

    config: CurveConfig
    entries: tuple[Generator, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        rank = self.config.picard_rank
        for g in self.entries:
            if g.line.rank != rank:
                raise ValueError(
                    "config mismatch: entry line bundle rank "
                    f"{g.line.rank} != picard_rank {rank}"
                )

    @classmethod
    def zero(cls, cfg: CurveConfig) -> "DiagonalForm":
        return cls(cfg, ())

    @property
    def rank(self) -> int:
        return len(self.entries)

    def _require_same_config(self, other: "DiagonalForm") -> None:
        if self.config != other.config:
            raise ValueError(
                f"config mismatch: {self.config} != {other.config}"
            )

    def __add__(self, other: "DiagonalForm") -> "DiagonalForm":
        """Orthogonal sum: concatenation of entries."""
        self._require_same_config(other)
        return DiagonalForm(self.config, self.entries + other.entries)

    def __mul__(self, other: "DiagonalForm") -> "DiagonalForm":
        """Tensor product: all pairwise generator products."""
        self._require_same_config(other)
        return DiagonalForm(
            self.config,
            tuple(a * b for a in self.entries for b in other.entries),
        )

    def __neg__(self) -> "DiagonalForm":
        """Entrywise multiplication by <-1>."""
        m = minus_one_class(self.config)
        return DiagonalForm(
            self.config,
            tuple(Generator(g.unit ^ m, g.pi_exp, g.line) for g in self.entries),
        )

    def discriminant(self) -> Generator:
        """Plain determinant class: the product of all entries."""
        unit = 0
        pi_exp = 0
        mask = 0
        for g in self.entries:
            unit ^= g.unit
            pi_exp ^= g.pi_exp
            mask ^= g.line.mask
        return Generator(unit, pi_exp, PicTorsionClass(self.config.picard_rank, mask))

    def signed_discriminant(self) -> Generator:
        """Discriminant twisted by (-1)^(rank*(rank+1)/2)."""
        disc = self.discriminant()
        if sign_exponent(self.rank) & minus_one_class(self.config):
            disc = Generator(disc.unit ^ 1, disc.pi_exp, disc.line)
        return disc

    def __str__(self) -> str:
        return "<" + ",".join(str(g) for g in self.entries) + ">"


def quaternion_norm_form(
    cfg: CurveConfig, unit: int, line: PicTorsionClass
) -> DiagonalForm:
    """Norm form <1, -uL, -pi, u*pi*L> of the quaternion class (uL, pi)."""
    if line.rank != cfg.picard_rank:
        raise ValueError(
            f"config mismatch: line bundle rank {line.rank} != picard_rank "
            f"{cfg.picard_rank}"
        )
    m = minus_one_class(cfg)
    rank = cfg.picard_rank
    trivial_line = PicTorsionClass.identity(rank)
    return DiagonalForm(
        cfg,
        (
            Generator.one(rank),
            Generator(unit ^ m, 0, line),
            Generator(m, 1, trivial_line),
            Generator(unit, 1, line),
        ),
    )
