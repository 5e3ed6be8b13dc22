"""The invariant engine: the symbol calculus in the 2-torsion Brauer group of
the curve, and the Witt-class decisions it gives (triviality, equality and
invariant profiles).

A class is zero exactly when its rank is even and its signed discriminant and
Clifford class both vanish; all higher filtration steps are trivial for these
curves, so the three invariants decide everything.  Equality is always decided
on the difference, never by rewriting.
"""

from __future__ import annotations

from .forms import DiagonalForm, Summary
from .groups import BrauerClass, CurveConfig, Generator, _Frozen, _set, require_same_config


def symbol(cfg: CurveConfig, a: Generator, b: Generator) -> BrauerClass:
    """Brauer class of the quaternion pair of two rank-1 forms.

    With a = (u, e, L) and b = (v, f, M) the class is

        (f*u + e*v + e*f*[-1],  f*L + e*M).

    This is the unique biadditive extension of the three base cases: symbols
    of two pi-free generators vanish (they extend over the reduction, whose
    Brauer group is trivial), (x, pi) is the quaternion class of x, and
    (pi, pi) = (-1, pi).
    """
    if not (
        isinstance(cfg, CurveConfig) and isinstance(a, Generator) and isinstance(b, Generator)
    ):
        raise TypeError(
            "symbol() takes a CurveConfig and two Generator, got "
            f"{type(cfg).__name__}, {type(a).__name__} and {type(b).__name__}"
        )
    rank = cfg.picard_rank
    if a.rank != rank or b.rank != rank:
        raise ValueError(
            "config mismatch: generator line rank does not match picard_rank"
        )
    # On the packed ints p and q, f*uL is p with its pi bit cleared if q has
    # one, e*vM likewise, and e*f*[-1] is the unit bit of -1.
    p = a.packed
    q = b.packed
    return BrauerClass.from_packed(
        rank,
        (p & ~2 if q & 2 else 0) ^ (q & ~2 if p & 2 else 0) ^ (cfg.minus_one if p & q & 2 else 0),
    )


def symbol_sum(summary: Summary, minus_one: int) -> int:
    """Sum of the pairwise symbols of a form's entries, from its summary.

    Returns the class (uL, pi) packed as u | mask << 2.  With E ramified
    entries, U and L the XOR of the unit bits and masks of all entries, and
    Ur and Lr the same over the ramified ones:

        u    = E*U + Ur + C(E, 2)*[-1]
        mask = E*L + Lr

    Summing symbol over all pairs i < j, which is biadditive: a pair with one
    ramified entry gives the class of the other, so each unramified entry
    counts E times; a pair of ramified entries gives both, plus (pi, pi) =
    ([-1], pi), so each ramified entry counts E - 1 times.
    """
    ram = summary.ramified
    # The pi bits cancel: both discriminants carry E mod 2 there.
    mixed = summary.ramified_disc ^ (summary.disc if ram & 1 else 0)
    return mixed ^ ((ram * (ram - 1) >> 1) & minus_one)


def hasse_invariant(form: DiagonalForm) -> BrauerClass:
    """Sum of the pairwise symbols of a diagonalization, read off its summary.

    Empty and rank-1 forms give the trivial class.  Well defined on Witt
    classes only inside the second power of the fundamental ideal; see
    witt_invariant.
    """
    if not isinstance(form, DiagonalForm):
        raise TypeError(f"hasse_invariant() takes a DiagonalForm, got {type(form).__name__}")
    cfg = form.config
    return BrauerClass.from_packed(cfg.picard_rank, symbol_sum(form.summary, cfg.minus_one))


def witt_invariant(form: DiagonalForm) -> BrauerClass:
    """Clifford algebra class of a form with even rank and trivial signed discriminant.

    On that domain the Clifford class coincides with the pairwise symbol sum:
    the usual rank-dependent corrections between the two are built from
    symbols of pi-free generators, which all vanish here.
    """
    if not isinstance(form, DiagonalForm):
        raise TypeError(f"witt_invariant() takes a DiagonalForm, got {type(form).__name__}")
    summary = form.summary
    if summary.rank % 2 or summary.signed_disc(form.config.minus_one):
        raise ValueError(
            "not in I-squared: need even rank and trivial signed discriminant, "
            f"got rank {form.rank}"
        )
    return hasse_invariant(form)


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
    return summary_is_trivial(form.summary, form.config.minus_one)


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
    require_same_config(e.config, f.config)
    m = e.config.minus_one
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
    symbol sum (see witt_invariant).
    """
    if not isinstance(form, DiagonalForm):
        raise TypeError(f"invariant_profile() takes a DiagonalForm, got {type(form).__name__}")
    cfg = form.config
    rank = cfg.picard_rank
    m = cfg.minus_one
    summary = form.summary
    parity = summary.rank & 1
    signed = summary.signed_disc(m)
    witt = None
    if not (parity or signed):
        witt = BrauerClass.from_packed(rank, symbol_sum(summary, m))
    return InvariantProfile(parity, Generator.from_packed(rank, signed), witt)
