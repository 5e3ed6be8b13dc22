"""Structural verification suites: each checks one claim of the paper
exhaustively for a configuration and returns a report.

The ring-isomorphism check compares the two independent engines, the
invariant decisions of engine and the group-ring model of group_ring, so it
lives above both.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import combinations, compress, product, repeat, starmap
from operator import add, and_

from .engine import equals, is_trivial, summary_is_trivial
from .forms import DiagonalForm, Summary, quaternion_norm_form, summarize
from .groups import (
    BrauerClass,
    CurveConfig,
    _Frozen,
    check_config,
    enumerate_generators,
    label,
    line_label,
)
from .group_ring import (
    GroupRingElement,
    element_add,
    element_mul,
    lane_law,
    packed_coordinates,
    packed_group_ring_elements,
    packed_representative,
)

# At most this many mismatch descriptions go into a RingIsoReport; any
# mismatch at all fails it.
MAX_MISMATCHES = 10

# check_ring_iso refuses a picard_rank above this.  Its table rows hold one
# element of 2r + 4 bits per byte, so a larger bound needs wider lanes.
RING_ISO_RANK_BOUND = 2

# The other three suites refuse a picard_rank above this.
SUITE_RANK_BOUND = 7


def _check_rank(cfg: CurveConfig, bound: int, suite: str) -> None:
    if cfg.picard_rank > bound:
        raise ValueError(
            f"bound exceeded: {suite} needs picard_rank <= {bound}, got {cfg.picard_rank}"
        )


class _Spreads(dict):
    """The spread summaries check_ring_iso decides its tables on, and the Witt
    triviality of each masked spread total, decided on first sight.

    A spread is an int in which each count of a Summary (rank, ramified) and
    each bit of its two discriminants (bits = picard_rank + 2 bits each) has
    its own 8-bit counter, counts lowest; table[v] is v with bit i moved to
    bit 8*i.  An orthogonal sum of summaries is then one int addition, and
    masking with keep keeps the counts whole and the low bit of each
    discriminant counter: exactly the spread of the summed Summary.  A
    representative has at most 4 entries, and one of a component at most 2.
    A sum total adds three spreads of rank at most 4; a product total adds
    four products of components, each of rank at most 2*2, and a negated
    summary of rank at most 4.  So a count is at most 20 and a discriminant
    counter at most 5: no counter carries into the next.
    """

    __slots__ = ("minus_one", "bits", "table", "keep")

    def __init__(self, minus_one: int, bits: int) -> None:
        self.minus_one = minus_one
        self.bits = bits
        self.table = table = [0]
        for i in range(bits):
            table += [t | 1 << 8 * i for t in table]
        full = len(table) - 1
        self.keep = self.spread(Summary(255, 255, full, full))

    def spread(self, summary: Summary) -> int:
        n, r, d, rd = summary
        table = self.table
        return n | r << 8 | (table[d] | table[rd] << 8 * self.bits) << 16

    def summary(self, key: int) -> Summary:
        """The Summary whose spread is the masked key: each discriminant is
        the position of its counters in the table."""
        discs = key >> 16
        shift = 8 * self.bits
        index = self.table.index
        return Summary(
            key & 255, key >> 8 & 255, index(discs & (1 << shift) - 1), index(discs >> shift)
        )

    def products(self, factors: list[Summary], by: list[Summary]) -> list[list[int]]:
        """Row i holds the spread of factors[i] * by[j] at j."""
        return [list(map(self.spread, map(f.times, by))) for f in factors]

    def __missing__(self, key: int) -> bool:
        result = self[key] = summary_is_trivial(self.summary(key), self.minus_one)
        return result

    def decided(self, totals: Iterable[int]) -> Iterator[bool]:
        """The decision of each spread total."""
        return map(self.__getitem__, map(and_, totals, repeat(self.keep)))


class QuaternionDistinctnessReport(_Frozen):
    """Distinctness of the 2n quaternion norm forms."""

    __slots__ = ("config", "class_count", "pairwise_distinct", "trivial_symbols", "passed")


def verify_quaternion_distinctness(cfg: CurveConfig) -> QuaternionDistinctnessReport:
    """Check that the 2n norm forms fall into 2n distinct Witt classes.

    Exactly one of them, the one with trivial symbol, may be Witt-trivial.
    """
    check_config(cfg, "verify_quaternion_distinctness")
    _check_rank(cfg, SUITE_RANK_BOUND, "quaternion distinctness suite")
    rank = cfg.picard_rank
    classes = [
        BrauerClass.from_packed(rank, u | mask << 2) for u in (0, 1) for mask in range(cfg.pic_order)
    ]
    forms = [quaternion_norm_form(cfg, c.packed & 1, c.packed >> 2) for c in classes]
    distinct = not any(starmap(equals, combinations(forms, 2)))
    trivial = tuple(str(c) for c, form in zip(classes, forms) if is_trivial(form))
    return QuaternionDistinctnessReport(
        config=cfg,
        class_count=len(classes),
        pairwise_distinct=distinct,
        trivial_symbols=trivial,
        passed=distinct and trivial == ("(1, pi)",),
    )


class RankOneStructureReport(_Frozen):
    """Group structure of the rank-1 classes under tensor product; witness
    pairs each generator's text with its (base field class, line bundle)."""

    __slots__ = (
        "config",
        "order",
        "classes_distinct",
        "exponent_two",
        "homomorphism_ok",
        "witness",
        "passed",
    )


def rank_one_group_structure(cfg: CurveConfig) -> RankOneStructureReport:
    """Verify the 4n rank-1 classes form the product of the base field's four
    square classes with the 2-torsion Picard group.

    The witness maps each generator to its (base field class, line bundle)
    coordinate pair; tensor product must match coordinatewise multiplication.
    The invariant engine decides each claim on summaries: a tensor product
    of forms is the product of their summaries.
    """
    check_config(cfg, "rank_one_group_structure")
    _check_rank(cfg, SUITE_RANK_BOUND, "rank-1 structure suite")
    gens = enumerate_generators(cfg)
    m = cfg.minus_one
    # The summary of <g> and of -<g>, keyed on the packed generator.
    singles = {g.packed: summarize((g.packed,)) for g in gens}
    negated = {p: single.negated(m) for p, single in singles.items()}
    distinct = not any(
        summary_is_trivial(singles[p].plus(negated[q]), m) for p, q in combinations(singles, 2)
    )

    # The pairs g, g decide exponent two: g * g = 1 and <g> * <g> = <1>.
    exponent_two = homomorphism_ok = True
    for g in gens:
        p = g.packed
        single = singles[p]
        for h in gens:
            q = h.packed
            gh = (g * h).packed
            if gh != p ^ q or not summary_is_trivial(single.times(singles[q]).plus(negated[gh]), m):
                homomorphism_ok = False
                if p == q:
                    exponent_two = False

    # The base field class of g is its unit and pi bits.
    witness = tuple((str(g), (label(g.packed & 3), line_label(g.packed >> 2))) for g in gens)
    return RankOneStructureReport(
        config=cfg,
        order=len(gens),
        classes_distinct=distinct,
        exponent_two=exponent_two,
        homomorphism_ok=homomorphism_ok,
        witness=witness,
        passed=distinct and exponent_two and homomorphism_ok and len(gens) == 4 * cfg.pic_order,
    )


class RelationSuiteReport(_Frozen):
    """Exhaustive check of the two rank-2 generator relations."""

    __slots__ = ("config", "checked", "failures", "passed")


def verify_generator_relations(cfg: CurveConfig) -> RelationSuiteReport:
    """Verify <uL, vM> = <1, uvLM> and <pi*uL, pi*vM> = <pi, pi*uvLM>
    for all unit classes u, v and all bundle classes L, M.

    A claim lhs = rhs holds when the difference lhs + (-rhs) is Witt-trivial,
    so each claim is one summary of four packed entries and one decision.
    """
    check_config(cfg, "verify_generator_relations")
    _check_rank(cfg, SUITE_RANK_BOUND, "generator relation suite")
    m = cfg.minus_one
    pic = range(cfg.pic_order)
    checked = 0
    failures: list[str] = []
    for u, v, mask_l, mask_m in product((0, 1), (0, 1), pic, pic):
        a = u | mask_l << 2
        b = v | mask_m << 2
        # -rhs is rhs with the unit bit of -1 XORed into each entry, as
        # DiagonalForm.__neg__ builds it: -<1, ab> = <m, c>, c = ab XOR m.
        c = a ^ b ^ m
        for kind, difference in (
            ("residue", (a, b, m, c)),
            ("ramified", (a | 2, b | 2, m | 2, c | 2)),
        ):
            checked += 1
            if not summary_is_trivial(summarize(difference), m):
                lhs = difference[:2]
                failures.append(f"{kind} relation failed at {DiagonalForm._from_packed(cfg, lhs)}")
    return RelationSuiteReport(
        config=cfg,
        checked=checked,
        failures=tuple(failures),
        passed=not failures,
    )


class RingIsoReport(_Frozen):
    """Outcome of the exhaustive comparison of the two ring models."""

    __slots__ = (
        "config",
        "element_count",
        "addition_pairs_checked",
        "multiplication_pairs_checked",
        "roundtrip_ok",
        "injective",
        "mismatches",
        "passed",
    )


def check_ring_iso(cfg: CurveConfig) -> RingIsoReport:
    """Exhaustively verify that the two ring realizations agree.

    For every pair of group ring elements, the orthogonal sum and tensor
    product of their minimal representatives must be Witt-equal to the
    representative of the group-ring sum and product.  Also checks that
    distinct elements give non-equal forms and that to_group_ring inverts
    from_group_ring.

    The group-ring engine fills the addition and multiplication tables one
    row per call: the elements are packed one per byte into one int, the
    column, and one element_add of x in every lane with the column, and one
    element_mul of x by it, under lane_law, give the whole row of x.  An
    element has 2r + 4 bits, at most 8 up to RING_ISO_RANK_BOUND, so it fits
    its byte, and element_mul's docstring shows that no bit crosses a lane.
    The pairwise oracle of the tests still calls both operations once per
    pair, so it checks the lanes against the single-element calls.  The
    invariant engine decides each entry on the spread
    summaries of _Spreads.  A sum entry is S[x] + S[y] - S[x+y], with S the
    summaries of the representatives.  The representative of y = (c, d) is
    the sum of those of (c, 0) and (0, d), checked for every y, so by
    bilinearity of Summary.times on both sides, with x = (a, b), a product
    entry is S[(a, 0)]*S[(c, 0)] + S[(0, b)]*S[(c, 0)] + S[(a, 0)]*S[(0, d)]
    + S[(0, b)]*S[(0, d)] - S[x*y]: four tables of (4n)^2 products of
    component summaries serve every row.  Each entry is decided once, and a
    failing pair is named from that decision: a failing row by its false
    entries, the addition of each pair before its multiplication, and a
    Witt-equal pair of the injectivity pass likewise.
    A sample of pairs that meets every row and every column builds the real
    sum and tensor product and checks that their summaries are the ones the
    tables were decided on.
    """
    check_config(cfg, "check_ring_iso")
    _check_rank(cfg, RING_ISO_RANK_BOUND, "exhaustive ring comparison")
    m = cfg.minus_one
    law = cfg._ring_law
    elements = packed_group_ring_elements(cfg)
    reps = [packed_representative(law, x) for x in elements]
    summaries = [summarize(rep) for rep in reps]
    mismatches: list[str] = []

    def mismatch(message: str) -> None:
        if len(mismatches) < MAX_MISMATCHES:
            mismatches.append(message)

    def element(i: int) -> GroupRingElement:
        return GroupRingElement.from_packed(cfg, elements[i])

    roundtrip_ok = all(packed_coordinates(law, rep) == x for x, rep in zip(elements, reps))
    if not roundtrip_ok:
        mismatch("from_group_ring does not invert to_group_ring")

    spreads = _Spreads(m, cfg.picard_rank + 2)
    spread = list(map(spreads.spread, summaries))
    spread_negated = [spreads.spread(summary.negated(m)) for summary in summaries]
    # The elements are the ints below 1 << 2w, so in the order of their
    # values each negated spread sits at the index of its element.
    spread_negated_of = [negated for _, negated in sorted(zip(elements, spread_negated))]

    injective = True
    for i, total in enumerate(spread):
        equal = spreads.decided(map(total.__add__, spread_negated[i + 1 :]))
        for j in compress(range(i + 1, len(elements)), equal):
            injective = False
            mismatch(f"distinct elements {element(i)} and {element(j)} gave equal forms")

    # Row i of the sample meets column i (squares) and column N-1-i, which
    # pairs each class type with the others.
    last = len(elements) - 1
    forms = [DiagonalForm._from_packed(cfg, rep) for rep in reps]
    for i in range(len(elements)):
        for j in (i, last - i):
            if (forms[i] + forms[j]).summary != summaries[i].plus(summaries[j]):
                mismatch(f"sampled sum differs from Summary.plus at {element(i)}, {element(j)}")
            if (forms[i] * forms[j]).summary != summaries[i].times(summaries[j]):
                mismatch(
                    f"sampled tensor product differs from Summary.times at {element(i)}, {element(j)}"
                )

    # The elements are the pairs (c, d) of the 4n residue classes in this
    # order, zero first, so S[(c, 0)] is every 4n-th summary and S[(0, d)]
    # one of the first 4n.  The product rows rely on
    # S[(c, d)] = S[(c, 0)] + S[(0, d)].
    width = 4 * cfg.pic_order
    left = summaries[::width]
    right = summaries[:width]
    for j, (a, b) in enumerate(product(left, right)):
        if summaries[j] != a.plus(b):
            mismatch(f"summary of {element(j)} is not the sum of its components' summaries")

    # Row a of left_left holds the spreads of S[(a, 0)]*S[(c, 0)] for every c,
    # and likewise for the other three component tables; the row of element
    # i = a*4n + b adds row a of a left_* table to row b of a right_* one.
    left_left, right_left = spreads.products(left, left), spreads.products(right, left)
    left_right, right_right = spreads.products(left, right), spreads.products(right, right)

    # Lane k of column holds elements[k]; each lane is one byte.
    count = len(elements)
    ones = int.from_bytes(bytes([1]) * count, "little")
    column = int.from_bytes(bytes(elements), "little")
    row_law = lane_law(law, ones)
    for i, x in enumerate(elements):
        a, b = divmod(i, width)
        add_row = element_add(row_law, x * ones, column).to_bytes(count, "little")
        mul_row = element_mul(row_law, x, column).to_bytes(count, "little")
        sums = map(
            add, map(spread[i].__add__, spread), map(spread_negated_of.__getitem__, add_row)
        )
        by_left = map(add, left_left[a], right_left[b])
        by_right = list(map(add, left_right[a], right_right[b]))
        products = map(
            add,
            [l + r for l in by_left for r in by_right],
            map(spread_negated_of.__getitem__, mul_row),
        )
        sums_ok = list(spreads.decided(sums))
        products_ok = list(spreads.decided(products))
        if all(sums_ok) and all(products_ok):
            continue
        for j, (sum_ok, product_ok) in enumerate(zip(sums_ok, products_ok)):
            if not sum_ok:
                mismatch(f"addition mismatch at {element(i)}, {element(j)}")
            if not product_ok:
                mismatch(f"multiplication mismatch at {element(i)}, {element(j)}")

    # Every table row is built in full.
    pairs = len(elements) ** 2
    return RingIsoReport(
        config=cfg,
        element_count=len(elements),
        addition_pairs_checked=pairs,
        multiplication_pairs_checked=pairs,
        roundtrip_ok=roundtrip_ok,
        injective=injective,
        mismatches=tuple(mismatches),
        passed=roundtrip_ok and injective and not mismatches,
    )
