"""Symbol calculus in the 2-torsion Brauer group of the curve."""

from __future__ import annotations

from .forms import DiagonalForm, Summary
from .groups import BrauerClass, CurveConfig, Generator, minus_one_class


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
    m = minus_one_class(cfg)
    e = a.pi_exp
    f = b.pi_exp
    unit = (f & a.unit) ^ (e & b.unit) ^ (e & f & m)
    mask = (a.mask if f else 0) ^ (b.mask if e else 0)
    return BrauerClass.from_packed(rank, unit | mask << 2)


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
    cfg = form.config
    packed = symbol_sum(form.summary, minus_one_class(cfg))
    return BrauerClass.from_packed(cfg.picard_rank, packed)


def witt_invariant(form: DiagonalForm) -> BrauerClass:
    """Clifford algebra class of a form with even rank and trivial signed discriminant.

    On that domain the Clifford class coincides with the pairwise symbol sum:
    the usual rank-dependent corrections between the two are built from
    symbols of pi-free generators, which all vanish here.
    """
    summary = form.summary
    if summary.rank % 2 or summary.signed_disc(minus_one_class(form.config)):
        raise ValueError(
            "not in I-squared: need even rank and trivial signed discriminant, "
            f"got rank {form.rank}"
        )
    return hasse_invariant(form)
