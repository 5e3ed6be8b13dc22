"""Structural verification suites: each checks one claim of the paper
exhaustively for a configuration and returns a report.

The ring-isomorphism check compares the two independent engines, the
invariant decisions of engine and the group-ring model of group_ring, so it
lives above both.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import equals, is_trivial
from .forms import DiagonalForm, quaternion_norm_form
from .groups import (
    UNITS,
    BrauerClass,
    CurveConfig,
    Generator,
    enumerate_generators,
    enumerate_pic,
)
from .group_ring import enumerate_group_ring_elements, from_group_ring, to_group_ring

# At most this many mismatch descriptions go into a RingIsoReport; any
# mismatch at all fails it.
MAX_MISMATCHES = 10


@dataclass(frozen=True)
class QuaternionDistinctnessReport:
    """Distinctness of the 2n quaternion norm forms."""

    config: CurveConfig
    class_count: int
    pairwise_distinct: bool
    trivial_symbols: tuple[str, ...]
    passed: bool


def verify_quaternion_distinctness(cfg: CurveConfig) -> QuaternionDistinctnessReport:
    """Check that the 2n norm forms fall into 2n distinct Witt classes.

    Exactly one of them, the one with trivial symbol, may be Witt-trivial.
    """
    labeled = [
        (BrauerClass(u, line), quaternion_norm_form(cfg, u, line))
        for u in UNITS
        for line in enumerate_pic(cfg)
    ]
    distinct = True
    for i, (_, form_a) in enumerate(labeled):
        for _, form_b in labeled[i + 1 :]:
            if equals(form_a, form_b):
                distinct = False
    trivial = tuple(str(cls) for cls, form in labeled if is_trivial(form))
    passed = distinct and trivial == ("(1, pi)",)
    return QuaternionDistinctnessReport(
        config=cfg,
        class_count=len(labeled),
        pairwise_distinct=distinct,
        trivial_symbols=trivial,
        passed=passed,
    )


@dataclass(frozen=True)
class RankOneStructureReport:
    """Group structure of the rank-1 classes under tensor product."""

    config: CurveConfig
    order: int
    classes_distinct: bool
    exponent_two: bool
    homomorphism_ok: bool
    witness: tuple[tuple[str, tuple[str, str]], ...]
    passed: bool


def rank_one_group_structure(cfg: CurveConfig) -> RankOneStructureReport:
    """Verify the 4n rank-1 classes form the product of the base field's four
    square classes with the 2-torsion Picard group.

    The witness maps each generator to its (base field class, line bundle)
    coordinate pair; tensor product must match coordinatewise multiplication.
    """
    gens = enumerate_generators(cfg)
    base_labels = {(0, 0): "1", (1, 0): "s", (0, 1): "pi", (1, 1): "s*pi"}

    def coordinates(g: Generator) -> tuple[str, str]:
        return base_labels[(g.unit.bit, g.pi_exp)], str(g.line)

    singles = {g: DiagonalForm(cfg, (g,)) for g in gens}
    distinct = True
    for i, g in enumerate(gens):
        for h in gens[i + 1 :]:
            if equals(singles[g], singles[h]):
                distinct = False

    one = DiagonalForm(cfg, (Generator.one(cfg.picard_rank),))
    exponent_two = all(equals(singles[g] * singles[g], one) for g in gens)

    homomorphism_ok = all(
        coordinates(g * h) == (
            base_labels[(g.unit.bit ^ h.unit.bit, g.pi_exp ^ h.pi_exp)],
            str(g.line + h.line),
        )
        and equals(singles[g] * singles[h], DiagonalForm(cfg, (g * h,)))
        for g in gens
        for h in gens
    )

    witness = tuple((str(g), coordinates(g)) for g in gens)
    passed = distinct and exponent_two and homomorphism_ok and len(gens) == 4 * cfg.pic_order
    return RankOneStructureReport(
        config=cfg,
        order=len(gens),
        classes_distinct=distinct,
        exponent_two=exponent_two,
        homomorphism_ok=homomorphism_ok,
        witness=witness,
        passed=passed,
    )


@dataclass(frozen=True)
class RelationSuiteReport:
    """Exhaustive check of the two rank-2 generator relations."""

    config: CurveConfig
    checked: int
    failures: tuple[str, ...]
    passed: bool


def verify_generator_relations(cfg: CurveConfig) -> RelationSuiteReport:
    """Verify <uL, vM> = <1, uvLM> and <pi*uL, pi*vM> = <pi, pi*uvLM>
    for all unit classes u, v and all bundle classes L, M.
    """
    rank = cfg.picard_rank
    pic = enumerate_pic(cfg)
    checked = 0
    failures: list[str] = []
    for u in UNITS:
        for v in UNITS:
            for line_l in pic:
                for line_m in pic:
                    a = Generator(u, 0, line_l)
                    b = Generator(v, 0, line_m)
                    product = Generator(u + v, 0, line_l + line_m)
                    lhs = DiagonalForm(cfg, (a, b))
                    rhs = DiagonalForm(cfg, (Generator.one(rank), product))
                    checked += 1
                    if not equals(lhs, rhs):
                        failures.append(f"residue relation failed at {lhs}")
                    pi = Generator.pi(rank)
                    lhs_pi = DiagonalForm(cfg, (pi * a, pi * b))
                    rhs_pi = DiagonalForm(cfg, (pi, pi * product))
                    checked += 1
                    if not equals(lhs_pi, rhs_pi):
                        failures.append(f"ramified relation failed at {lhs_pi}")
    return RelationSuiteReport(
        config=cfg,
        checked=checked,
        failures=tuple(failures),
        passed=not failures,
    )


@dataclass(frozen=True)
class RingIsoReport:
    """Outcome of the exhaustive comparison of the two ring models."""

    config: CurveConfig
    element_count: int
    addition_pairs_checked: int
    multiplication_pairs_checked: int
    roundtrip_ok: bool
    injective: bool
    mismatches: tuple[str, ...]
    passed: bool


def check_ring_iso(cfg: CurveConfig) -> RingIsoReport:
    """Exhaustively verify that the two ring realizations agree.

    For every pair of group ring elements, the orthogonal sum and tensor
    product of their minimal representatives must be Witt-equal to the
    representative of the group-ring sum and product.  Also checks that
    distinct elements give non-equal forms and that to_group_ring inverts
    from_group_ring.
    """
    if cfg.picard_rank > 2:
        raise ValueError(
            "bound exceeded: exhaustive ring comparison needs picard_rank <= 2, "
            f"got {cfg.picard_rank}"
        )
    elements = enumerate_group_ring_elements(cfg)
    reps = {x: from_group_ring(x) for x in elements}
    mismatches: list[str] = []

    roundtrip_ok = all(to_group_ring(rep) == x for x, rep in reps.items())
    if not roundtrip_ok:
        mismatches.append("from_group_ring does not invert to_group_ring")

    injective = True
    for i, x in enumerate(elements):
        for y in elements[i + 1 :]:
            if equals(reps[x], reps[y]):
                injective = False
                if len(mismatches) < MAX_MISMATCHES:
                    mismatches.append(f"distinct elements {x} and {y} gave equal forms")

    additions = 0
    multiplications = 0
    for x in elements:
        for y in elements:
            additions += 1
            if not equals(reps[x] + reps[y], reps[x + y]):
                if len(mismatches) < MAX_MISMATCHES:
                    mismatches.append(f"addition mismatch at {x}, {y}")
            multiplications += 1
            if not equals(reps[x] * reps[y], reps[x * y]):
                if len(mismatches) < MAX_MISMATCHES:
                    mismatches.append(f"multiplication mismatch at {x}, {y}")

    passed = roundtrip_ok and injective and not mismatches
    return RingIsoReport(
        config=cfg,
        element_count=len(elements),
        addition_pairs_checked=additions,
        multiplication_pairs_checked=multiplications,
        roundtrip_ok=roundtrip_ok,
        injective=injective,
        mismatches=tuple(mismatches),
        passed=passed,
    )
