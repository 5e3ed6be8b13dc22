"""Shared builders for randomized test suites."""

import functools
import itertools
import pickle
import random
from collections import Counter

from wittcurve import (
    BrauerClass,
    CurveConfig,
    DiagonalForm,
    Generator,
    GroupRingElement,
    ResidueWittClass,
    RelationSuiteReport,
    RingIsoReport,
    Shape,
    enumerate_generators,
    enumerate_group_ring_elements,
    equals,
    quaternion_norm_form,
    symbol,
    verify,
)
from wittcurve.engine import summary_is_trivial
from wittcurve.forms import summarize
from wittcurve.group_ring import (
    packed_coordinates,
    packed_group_ring_elements,
    packed_representative,
)


@functools.lru_cache(maxsize=None)
def generator_alphabet(cfg: CurveConfig) -> tuple[Generator, ...]:
    return tuple(enumerate_generators(cfg))


def random_form(
    rng: random.Random, cfg: CurveConfig, max_rank: int = 8, min_rank: int = 0
) -> DiagonalForm:
    gens = generator_alphabet(cfg)
    length = rng.randint(min_rank, max_rank)
    return DiagonalForm(cfg, tuple(rng.choice(gens) for _ in range(length)))


def random_generator(rng: random.Random, cfg: CurveConfig) -> Generator:
    return rng.choice(generator_alphabet(cfg))


def hyperbolic_pair(cfg: CurveConfig, g: Generator) -> DiagonalForm:
    """The Witt-trivial form <g, -g>."""
    m = cfg.minus_one
    return DiagonalForm(cfg, (g, Generator(g.unit ^ m, g.pi_exp, g.mask, g.rank)))


def random_ideal_square_form(rng: random.Random, cfg: CurveConfig) -> DiagonalForm:
    """Random form with even rank and trivial signed discriminant.

    Built as a norm form plus an optional hyperbolic pair, both of which lie
    in the square of the fundamental ideal.
    """
    unit = rng.randint(0, 1)
    mask = rng.choice(range(cfg.pic_order))
    form = quaternion_norm_form(cfg, unit, mask)
    if rng.random() < 0.5:
        form = form + hyperbolic_pair(cfg, random_generator(rng, cfg))
    return form


def revalidated(view):
    """The view rebuilt from its coordinates by the validating constructor,
    which refuses any coordinate that is not an int in range."""
    if type(view) is GroupRingElement:
        return GroupRingElement(revalidated(view.a), revalidated(view.b))
    return type(view)(*(getattr(view, name) for name in view._fields))


def assert_same_view(view, expected) -> None:
    """The two views agree in type, ==, hash, str, repr and pickle."""
    assert type(view) is type(expected)
    assert view == expected and hash(view) == hash(expected)
    assert str(view) == str(expected) and repr(view) == repr(expected)
    assert pickle.dumps(view) == pickle.dumps(expected)
    assert pickle.loads(pickle.dumps(view)) == expected


def set_bit_label(unit: int, pi_exp: int, mask: int) -> str:
    """Reference class label: s, pi, then one L<i> per set bit of the mask,
    lowest first, each found by clearing the lowest set bit; "1" if none."""
    terms = []
    if unit:
        terms.append("s")
    if pi_exp:
        terms.append("pi")
    while mask:
        low = mask & -mask
        terms.append(f"L{low.bit_length()}")
        mask ^= low
    return "*".join(terms) if terms else "1"


def pairwise_hasse_sum(form: DiagonalForm) -> BrauerClass:
    """Reference Hasse invariant: the symbol of every pair of entries, summed."""
    cfg = form.config
    total = BrauerClass.identity(cfg.picard_rank)
    for a, b in itertools.combinations(form.entries, 2):
        total = total + symbol(cfg, a, b)
    return total


def scan_hasse_sum(form: DiagonalForm) -> BrauerClass:
    """Reference Hasse invariant: one scan that adds the symbol of each entry
    with the running discriminant of the entries before it."""
    cfg = form.config
    m = cfg.minus_one
    du = de = dl = 0
    unit = 0
    mask = 0
    for g in form.entries:
        u = g.unit
        e = g.pi_exp
        line = g.mask
        unit ^= (e & du) ^ (de & u) ^ (de & e & m)
        if e:
            mask ^= dl
        if de:
            mask ^= line
        du ^= u
        de ^= e
        dl ^= line
    return BrauerClass(unit, mask, cfg.picard_rank)


# Reference residue-class arithmetic on ResidueWittClass objects: sums by the
# cross-term law, products through small representatives.


def residue_class_of(cfg: CurveConfig, gens) -> ResidueWittClass:
    """Residue class of pi-free generators: parity and signed discriminant."""
    gens = tuple(gens)
    disc = Generator.one(cfg.picard_rank)
    for g in gens:
        assert g.pi_exp == 0
        disc = disc * g
    twist = (len(gens) * (len(gens) + 1) // 2) & 1 & cfg.minus_one
    return ResidueWittClass(cfg, len(gens) % 2, disc.unit ^ twist, disc.mask)


def residue_sum(x: ResidueWittClass, y: ResidueWittClass) -> ResidueWittClass:
    cross = x.parity & y.parity & x.config.minus_one
    return ResidueWittClass(
        x.config, x.parity ^ y.parity, x.disc_unit ^ y.disc_unit ^ cross,
        x.disc_mask ^ y.disc_mask,
    )


def residue_negative(x: ResidueWittClass) -> ResidueWittClass:
    twist = x.parity & x.config.minus_one
    return ResidueWittClass(x.config, x.parity, x.disc_unit ^ twist, x.disc_mask)


def residue_add(m: int, a: int, b: int) -> int:
    """Sum of packed residue classes; m is the unit bit of -1.

    The sign twist contributes a cross term [-1] exactly when both summands
    have odd rank.
    """
    return a ^ b ^ ((a & b & m) << 1)


def residue_neg(m: int, a: int) -> int:
    return a ^ ((a & m) << 1)


def residue_mul(m: int, a: int, b: int) -> int:
    """Product of packed residue classes: u*v = [v odd]u + [u odd]v, plus
    parity 1 and [-1] when both are odd (group_ring.element_mul derives it)."""
    return (a if b & 1 else 0) ^ (b if a & 1 else 0) ^ ((m << 1 | 1) if a & b & 1 else 0)


def residue_representative(x: ResidueWittClass) -> tuple[Generator, ...]:
    """Odd classes are a single generator <-d>; even classes are <1, -d>
    (the zero class gets <1, -1>), with d the signed discriminant."""
    m = x.config.minus_one
    partner = Generator(x.disc_unit ^ m, 0, x.disc_mask, x.config.picard_rank)
    if x.parity:
        return (partner,)
    return (Generator.one(x.config.picard_rank), partner)


def residue_product(x: ResidueWittClass, y: ResidueWittClass) -> ResidueWittClass:
    """The class of the tensor product of the two representatives."""
    product = [a * b for a in residue_representative(x) for b in residue_representative(y)]
    return residue_class_of(x.config, product)


def enumerated_census(cfg: CurveConfig) -> tuple[int, tuple[tuple[Shape, int], ...]]:
    """Reference census: classify each of the 16n^2 group ring elements by
    the types of its two components and count them per shape.

    Shapes are named <residue type>_<ramified type>; both zero is ZERO.
    """

    def kind(x: ResidueWittClass) -> str:
        return "ODD" if x.parity else "ZERO" if x.is_zero else "EVEN"

    counts = Counter(f"{kind(x.a)}_{kind(x.b)}" for x in enumerate_group_ring_elements(cfg))
    rows = tuple((shape, counts[shape.name]) for shape in Shape if shape is not Shape.ZERO)
    return sum(counts.values()), rows


def pairwise_ring_iso(cfg: CurveConfig) -> RingIsoReport:
    """Reference ring check: the same report as verify.check_ring_iso, with
    every table entry decided on its own, as S[x] + S[y] - S[x+y] and
    S[x] * S[y] - S[x*y] through Summary.plus and Summary.times.

    The tables come from verify.element_add and verify.element_mul, looked
    up at call time, so a fault patched into verify reaches both checks.
    """
    m = cfg.minus_one
    law = cfg._ring_law
    elements = packed_group_ring_elements(cfg)
    index = {x: i for i, x in enumerate(elements)}
    reps = [packed_representative(law, x) for x in elements]
    summaries = [summarize(rep) for rep in reps]
    negated = [summary.negated(m) for summary in summaries]
    mismatches = []

    def mismatch(message):
        if len(mismatches) < verify.MAX_MISMATCHES:
            mismatches.append(message)

    def element(i):
        return GroupRingElement.from_packed(cfg, elements[i])

    roundtrip_ok = all(packed_coordinates(law, rep) == x for x, rep in zip(elements, reps))
    if not roundtrip_ok:
        mismatch("from_group_ring does not invert to_group_ring")

    injective = True
    for i, summary in enumerate(summaries):
        for j in range(i + 1, len(elements)):
            if summary_is_trivial(summary.plus(negated[j]), m):
                injective = False
                mismatch(f"distinct elements {element(i)} and {element(j)} gave equal forms")

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

    additions = multiplications = 0
    for i, x in enumerate(elements):
        summary = summaries[i]
        add_row = [index[verify.element_add(law, x, y)] for y in elements]
        mul_row = [index[verify.element_mul(law, x, y)] for y in elements]
        for j, other in enumerate(summaries):
            if not summary_is_trivial(summary.plus(other).plus(negated[add_row[j]]), m):
                mismatch(f"addition mismatch at {element(i)}, {element(j)}")
            if not summary_is_trivial(summary.times(other).plus(negated[mul_row[j]]), m):
                mismatch(f"multiplication mismatch at {element(i)}, {element(j)}")
        additions += len(add_row)
        multiplications += len(mul_row)

    return RingIsoReport(
        config=cfg,
        element_count=len(elements),
        addition_pairs_checked=additions,
        multiplication_pairs_checked=multiplications,
        roundtrip_ok=roundtrip_ok,
        injective=injective,
        mismatches=tuple(mismatches),
        passed=roundtrip_ok and injective and not mismatches,
    )


def pairwise_relations(cfg: CurveConfig) -> RelationSuiteReport:
    """Reference relation suite: the same report as
    verify.verify_generator_relations, with each claim built as two forms,
    <uL, vM> and <1, uvLM> or <pi*uL, pi*vM> and <pi, pi*uvLM>, and decided
    by equals, through Summary.plus and Summary.negated."""
    rank = cfg.picard_rank
    pic = range(cfg.pic_order)
    one = Generator.one(rank)
    pi = Generator.pi(rank)
    checked = 0
    failures = []
    for u, v, mask_l, mask_m in itertools.product((0, 1), (0, 1), pic, pic):
        a = Generator(u, 0, mask_l, rank)
        b = Generator(v, 0, mask_m, rank)
        for kind, lhs, rhs in (
            ("residue", (a, b), (one, a * b)),
            ("ramified", (pi * a, pi * b), (pi, pi * a * b)),
        ):
            checked += 1
            left = DiagonalForm(cfg, lhs)
            if not equals(left, DiagonalForm(cfg, rhs)):
                failures.append(f"{kind} relation failed at {left}")
    return RelationSuiteReport(
        config=cfg, checked=checked, failures=tuple(failures), passed=not failures
    )
