"""Shared builders for randomized test suites."""

import functools
import itertools
import random
from collections import Counter

from wittcurve import (
    BrauerClass,
    CurveConfig,
    DiagonalForm,
    Generator,
    ResidueWittClass,
    Shape,
    enumerate_generators,
    enumerate_group_ring_elements,
    minus_one_class,
    quaternion_norm_form,
    symbol,
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
    m = minus_one_class(cfg)
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
    m = minus_one_class(cfg)
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
    twist = (len(gens) * (len(gens) + 1) // 2) & 1 & minus_one_class(cfg)
    return ResidueWittClass(cfg, len(gens) % 2, disc.unit ^ twist, disc.mask)


def residue_sum(x: ResidueWittClass, y: ResidueWittClass) -> ResidueWittClass:
    cross = x.parity & y.parity & minus_one_class(x.config)
    return ResidueWittClass(
        x.config, x.parity ^ y.parity, x.disc_unit ^ y.disc_unit ^ cross,
        x.disc_mask ^ y.disc_mask,
    )


def residue_negative(x: ResidueWittClass) -> ResidueWittClass:
    twist = x.parity & minus_one_class(x.config)
    return ResidueWittClass(x.config, x.parity, x.disc_unit ^ twist, x.disc_mask)


def residue_representative(x: ResidueWittClass) -> tuple[Generator, ...]:
    """Odd classes are a single generator <-d>; even classes are <1, -d>
    (the zero class gets <1, -1>), with d the signed discriminant."""
    m = minus_one_class(x.config)
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
