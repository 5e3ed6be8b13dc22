"""Symbol calculus in the 2-torsion Brauer group of the curve."""

from __future__ import annotations

from .forms import DiagonalForm
from .groups import (
    BrauerClass,
    CurveConfig,
    Generator,
    PicTorsionClass,
    minus_one_class,
)


def symbol(cfg: CurveConfig, a: Generator, b: Generator) -> BrauerClass:
    """Brauer class of the quaternion pair of two rank-1 forms.

    With a = (u, e, L) and b = (v, f, M) the class is

        (f*u + e*v + e*f*[-1],  f*L + e*M).

    This is the unique biadditive extension of the three base cases: symbols
    of two pi-free generators vanish (they extend over the reduction, whose
    Brauer group is trivial), (x, pi) is the quaternion class of x, and
    (pi, pi) = (-1, pi).
    """
    rank = cfg.picard_rank
    if a.line.rank != rank or b.line.rank != rank:
        raise ValueError(
            "config mismatch: generator line rank does not match picard_rank"
        )
    m = minus_one_class(cfg)
    e = a.pi_exp
    f = b.pi_exp
    unit = (f & a.unit) ^ (e & b.unit) ^ (e & f & m)
    mask = (a.line.mask if f else 0) ^ (b.line.mask if e else 0)
    return BrauerClass(unit, PicTorsionClass(rank, mask))


def hasse_invariant(form: DiagonalForm) -> BrauerClass:
    """Sum of the pairwise symbols of a diagonalization, in one O(k) scan.

    Uses the orthogonal-sum law s(q + <a>) = s(q) + (disc q, a): since symbol
    is biadditive, the symbols of an entry with every earlier entry sum to its
    symbol with their product, the running discriminant.  That symbol is
    inlined as bit operations on the coordinates.

    Empty and rank-1 forms give the trivial class.  Well defined on Witt
    classes only inside the second power of the fundamental ideal; see
    witt_invariant.
    """
    cfg = form.config
    m = minus_one_class(cfg)
    du = de = dl = 0
    unit = 0
    mask = 0
    for g in form.entries:
        u = g.unit
        e = g.pi_exp
        line = g.line.mask
        unit ^= (e & du) ^ (de & u) ^ (de & e & m)
        if e:
            mask ^= dl
        if de:
            mask ^= line
        du ^= u
        de ^= e
        dl ^= line
    return BrauerClass(unit, PicTorsionClass(cfg.picard_rank, mask))


def witt_invariant(form: DiagonalForm) -> BrauerClass:
    """Clifford algebra class of a form with even rank and trivial signed discriminant.

    On that domain the Clifford class coincides with the pairwise symbol sum:
    the usual rank-dependent corrections between the two are built from
    symbols of pi-free generators, which all vanish here.
    """
    if form.rank % 2 or not form.signed_discriminant().is_trivial:
        raise ValueError(
            "not in I-squared: need even rank and trivial signed discriminant, "
            f"got rank {form.rank}"
        )
    return hasse_invariant(form)
