"""Witt-class decisions: triviality, equality, invariant profiles, canonical
shapes, and the class census.

A class is zero exactly when its rank is even and its signed discriminant and
Clifford class both vanish; all higher filtration steps are trivial for these
curves, so the three invariants decide everything.  Equality is always decided
on the difference, never by rewriting.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .forms import DiagonalForm
from .groups import BrauerClass, CurveConfig, Generator
from .group_ring import (
    ResidueWittClass,
    enumerate_group_ring_elements,
    from_group_ring,
    to_group_ring,
)
from .symbols import hasse_invariant, witt_invariant


def is_trivial(form: DiagonalForm) -> bool:
    """True iff the form represents the zero Witt class."""
    if form.rank % 2:
        return False
    if not form.signed_discriminant().is_trivial:
        return False
    return hasse_invariant(form).is_trivial


def equals(e: DiagonalForm, f: DiagonalForm) -> bool:
    """Witt equality, decided on the difference e + (-f)."""
    e._require_same_config(f)
    return is_trivial(e + (-f))


@dataclass(frozen=True, slots=True)
class InvariantProfile:
    """Rank parity, signed discriminant, and (when defined) the Clifford class.

    witt_inv is present exactly when the class has even rank and trivial
    signed discriminant.
    """

    rank_parity: int
    signed_disc: Generator
    witt_inv: BrauerClass | None


def invariant_profile(form: DiagonalForm) -> InvariantProfile:
    parity = form.rank % 2
    signed = form.signed_discriminant()
    witt = None
    if parity == 0 and signed.is_trivial:
        witt = witt_invariant(form)
    return InvariantProfile(parity, signed, witt)


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


def _component_type(cls: ResidueWittClass) -> str:
    if cls.parity:
        return "odd"
    return "zero" if cls.is_zero else "even"


_SHAPE_BY_TYPES = {
    ("odd", "zero"): Shape.ODD_ZERO,
    ("zero", "odd"): Shape.ZERO_ODD,
    ("even", "zero"): Shape.EVEN_ZERO,
    ("odd", "odd"): Shape.ODD_ODD,
    ("zero", "even"): Shape.ZERO_EVEN,
    ("even", "odd"): Shape.EVEN_ODD,
    ("odd", "even"): Shape.ODD_EVEN,
    ("even", "even"): Shape.EVEN_EVEN,
    ("zero", "zero"): Shape.ZERO,
}


@dataclass(frozen=True, slots=True)
class CanonicalShape:
    """A shape tag together with the concrete minimal representative."""

    tag: Shape
    payload: DiagonalForm

    @property
    def is_zero(self) -> bool:
        return self.tag is Shape.ZERO


def canonical_form(form: DiagonalForm) -> CanonicalShape:
    """Canonical representative of the Witt class of a form.

    Round-trips through the group-ring coordinates, whose component types
    pick the shape and whose minimal representatives fill the template.  Two
    forms get identical results exactly when they are Witt-equal, and the
    payload itself maps back to the same result.
    """
    x = to_group_ring(form)
    tag = _SHAPE_BY_TYPES[(_component_type(x.a), _component_type(x.b))]
    return CanonicalShape(tag, from_group_ring(x))


@dataclass(frozen=True)
class CensusReport:
    """Distinct Witt classes of a configuration, counted per canonical shape."""

    config: CurveConfig
    total: int
    shape_counts: tuple[tuple[Shape, int], ...]

    @property
    def nontrivial_total(self) -> int:
        return sum(count for _, count in self.shape_counts)


def enumerate_classes(cfg: CurveConfig, rank_bound: int = 4) -> CensusReport:
    """Census of all 16n^2 classes, grouped by canonical shape.

    Shape rows cover the nontrivial classes; the total includes the zero
    class.  Refuses configurations with picard_rank above rank_bound.
    """
    if cfg.picard_rank > rank_bound:
        raise ValueError(
            f"bound exceeded: picard_rank {cfg.picard_rank} > rank bound {rank_bound}"
        )
    counts = {shape: 0 for shape in Shape}
    elements = enumerate_group_ring_elements(cfg)
    for x in elements:
        counts[_SHAPE_BY_TYPES[(_component_type(x.a), _component_type(x.b))]] += 1
    return CensusReport(
        config=cfg,
        total=len(elements),
        shape_counts=tuple((shape, counts[shape]) for shape in NONTRIVIAL_SHAPES),
    )
