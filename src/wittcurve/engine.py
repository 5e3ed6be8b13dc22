"""Witt-class decisions: triviality, equality, invariant profiles, canonical
shapes, and the class census.

A class is zero exactly when its rank is even and its signed discriminant and
Clifford class both vanish; all higher filtration steps are trivial for these
curves, so the three invariants decide everything.  Equality is always decided
on the difference, never by rewriting.
"""

from __future__ import annotations

from enum import Enum

from .forms import DiagonalForm, Summary
from .groups import BrauerClass, CurveConfig, Generator, _Frozen, _set, minus_one_class
from .group_ring import packed_coordinates, packed_representative
from .symbols import symbol_sum


def summary_is_trivial(summary: Summary, minus_one: int) -> bool:
    """True iff a form with this summary represents the zero Witt class.

    At even rank the sign twist of Summary.signed_disc is odd exactly when
    rank & 2 is set.
    """
    rank, _, disc, _ = summary
    return not (
        rank & 1
        or disc ^ (minus_one if rank & 2 else 0)
        or symbol_sum(summary, minus_one)
    )


def is_trivial(form: DiagonalForm) -> bool:
    """True iff the form represents the zero Witt class."""
    if not isinstance(form, DiagonalForm):
        raise TypeError(f"is_trivial() takes a DiagonalForm, got {type(form).__name__}")
    return summary_is_trivial(form.summary, minus_one_class(form.config))


def equals(e: DiagonalForm, f: DiagonalForm) -> bool:
    """Witt equality, decided on the summary of the difference e + (-f).

    The summary of the difference combines the two summaries, so no form is
    built.
    """
    if not (isinstance(e, DiagonalForm) and isinstance(f, DiagonalForm)):
        raise TypeError(
            "equals() takes two DiagonalForm, "
            f"got {type(e).__name__} and {type(f).__name__}"
        )
    e._require_same_config(f)
    m = minus_one_class(e.config)
    return summary_is_trivial(e.summary.plus(f.summary.negated(m)), m)


class InvariantProfile(_Frozen):
    """Rank parity, signed discriminant, and (when defined) the Clifford class.

    witt_inv is present exactly when the class has even rank and trivial
    signed discriminant.
    """

    __slots__ = ("rank_parity", "signed_disc", "witt_inv")

    def __init__(
        self, rank_parity: int, signed_disc: Generator, witt_inv: BrauerClass | None
    ) -> None:
        _set(self, "rank_parity", rank_parity)
        _set(self, "signed_disc", signed_disc)
        _set(self, "witt_inv", witt_inv)


def invariant_profile(form: DiagonalForm) -> InvariantProfile:
    """The profile of the form, read off its summary.

    On I^2, where witt_inv is defined, the Clifford class is the pairwise
    symbol sum (see symbols.witt_invariant).
    """
    if not isinstance(form, DiagonalForm):
        raise TypeError(f"invariant_profile() takes a DiagonalForm, got {type(form).__name__}")
    cfg = form.config
    rank = cfg.picard_rank
    m = minus_one_class(cfg)
    summary = form.summary
    parity = summary.rank & 1
    signed = summary.signed_disc(m)
    witt = None
    if not (parity or signed):
        witt = BrauerClass.from_packed(rank, symbol_sum(summary, m))
    return InvariantProfile(parity, Generator.from_packed(rank, signed), witt)


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


# The type of a packed residue class a, indexed by (a > 0) + (a & 1).
_COMPONENT_TYPES = ("zero", "even", "odd")

# The shape of each pair of component types, read from the member names.
_SHAPE_BY_TYPES = {tuple(s.name.lower().split("_")): s for s in NONTRIVIAL_SHAPES}
_SHAPE_BY_TYPES["zero", "zero"] = Shape.ZERO


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

    Round-trips through the group-ring coordinates, whose component types
    pick the shape and whose minimal representatives fill the template.  Two
    forms get identical results exactly when they are Witt-equal, and the
    payload itself maps back to the same result.
    """
    if not isinstance(form, DiagonalForm):
        raise TypeError(f"canonical_form() takes a DiagonalForm, got {type(form).__name__}")
    cfg = form.config
    m = minus_one_class(cfg)
    x = packed_coordinates(m, form.packed)
    a, b = x
    tag = _SHAPE_BY_TYPES[_COMPONENT_TYPES[(a > 0) + (a & 1)], _COMPONENT_TYPES[(b > 0) + (b & 1)]]
    return CanonicalShape(tag, DiagonalForm._from_packed(cfg, packed_representative(m, x)))


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
    # Of the 4n residue classes one is zero, 2n - 1 are even and nonzero, and
    # 2n are odd; a shape takes one class of its type in each component.
    n = cfg.pic_order
    sizes = {"zero": 1, "even": 2 * n - 1, "odd": 2 * n}
    counts = {shape: sizes[a] * sizes[b] for (a, b), shape in _SHAPE_BY_TYPES.items()}
    return CensusReport(
        config=cfg,
        total=sum(counts.values()),
        shape_counts=tuple((shape, counts[shape]) for shape in NONTRIVIAL_SHAPES),
    )
