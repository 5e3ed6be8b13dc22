"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Every tolerance is exact; the randomized suites use
fixed seeds and at least ten thousand cases each.
"""

import itertools
import random
from contextlib import contextmanager

from wittcurve import (
    CurveConfig,
    DiagonalForm,
    Generator,
    GroupRingElement,
    canonical_form,
    check_ring_iso,
    enumerate_classes,
    enumerate_group_ring_elements,
    enumerate_residue_classes,
    equals,
    from_group_ring,
    inclusion,
    is_trivial,
    parse_form,
    rank_one_group_structure,
    splitting_map,
    symbol,
    to_group_ring,
    verify_generator_relations,
    verify_quaternion_distinctness,
    witt_invariant,
)

from helpers import random_form, random_generator, random_ideal_square_form

ALL_CONFIGS = [CurveConfig(q, r) for q in (1, 3) for r in (0, 1, 2)]
CASES = 10_000


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def test_criterion_1_census_exactness():
    with criterion(1, "census exactness"):
        census = enumerate_classes(CurveConfig(3, 1))
        assert census.total == 64
        counts = tuple(count for _, count in census.shape_counts)
        assert counts == (4, 4, 3, 16, 3, 12, 12, 9)
        assert census.nontrivial_total == 63

        for q in (1, 3):
            census = enumerate_classes(CurveConfig(q, 0))
            assert census.total == 16
            counts = tuple(count for _, count in census.shape_counts)
            assert counts == (2, 2, 1, 4, 1, 2, 2, 1)
            assert census.nontrivial_total == 15

            assert enumerate_classes(CurveConfig(q, 2)).total == 256


def test_criterion_2_engine_agreement():
    with criterion(2, "engine agreement"):
        for config in ALL_CONFIGS:
            rng = random.Random(2000 + config.q_mod_4 * 10 + config.picard_rank)
            disagreements = 0
            for _ in range(CASES):
                e = random_form(rng, config, max_rank=8)
                f = random_form(rng, config, max_rank=8)
                if equals(e, f) != (to_group_ring(e) == to_group_ring(f)):
                    disagreements += 1
            assert disagreements == 0, f"{disagreements} disagreements at {config}"


def test_criterion_3_ring_isomorphism():
    with criterion(3, "ring isomorphism"):
        for q in (1, 3):
            for rank in (0, 1):
                config = CurveConfig(q, rank)
                report = check_ring_iso(config)
                count = 16 * config.pic_order**2
                assert report.passed, report.mismatches
                assert report.addition_pairs_checked == count * count
                assert report.multiplication_pairs_checked == count * count


def test_criterion_4_quaternion_distinctness():
    with criterion(4, "quaternion distinctness"):
        for config in ALL_CONFIGS:
            report = verify_quaternion_distinctness(config)
            assert report.class_count == 2 * config.pic_order
            assert report.pairwise_distinct
            assert report.trivial_symbols == ("(1, pi)",)
            assert report.passed


def test_criterion_5_generator_relations():
    with criterion(5, "generator relations"):
        for config in ALL_CONFIGS:
            report = verify_generator_relations(config)
            assert report.passed, report.failures
            assert report.checked == 8 * config.pic_order**2


def test_criterion_6_proof_trace_vectors():
    with criterion(6, "proof trace vectors"):
        units = (0, 1)
        for q in (1, 3):
            config = CurveConfig(q, 1)
            minus_one = config.minus_one
            pi = Generator.pi(1)
            one = Generator.one(1)

            def neg(g: Generator) -> Generator:
                return Generator(g.unit ^ minus_one, g.pi_exp, g.mask, g.rank)

            for u_s, u_t, line, line_m in itertools.product(
                units, units, range(config.pic_order), range(config.pic_order)
            ):
                s_l = Generator(u_s, 0, line, config.picard_rank)
                # residue discriminant <t*M>: reduces to <st*LM, pi, -s*pi*L>
                t_m = Generator(u_t, 0, line_m, config.picard_rank)
                lhs = DiagonalForm(
                    config, (one, neg(s_l), t_m, pi, neg(pi * s_l))
                )
                rhs = DiagonalForm(config, (s_l * t_m, pi, neg(pi * s_l)))
                assert equals(lhs, rhs)
                # ramified discriminant <t*pi*M>: reduces to <1, -s*L, st*pi*LM>
                t_pi_m = Generator(u_t, 1, line_m, config.picard_rank)
                lhs = DiagonalForm(
                    config, (one, neg(s_l), t_pi_m, pi, neg(pi * s_l))
                )
                rhs = DiagonalForm(config, (one, neg(s_l), s_l * t_pi_m))
                assert equals(lhs, rhs)


def test_criterion_7_rank_one_structure():
    with criterion(7, "rank one structure"):
        for config in ALL_CONFIGS:
            report = rank_one_group_structure(config)
            assert report.order == 4 * config.pic_order
            assert report.classes_distinct
            assert report.exponent_two
            assert report.homomorphism_ok
            assert report.passed


def test_criterion_8_splitting_theorem():
    with criterion(8, "splitting theorem"):
        for q in (1, 3):
            config = CurveConfig(q, 1)
            kernel_gen = parse_form("<1,-pi>", config)
            elements = enumerate_group_ring_elements(config)
            reps = [from_group_ring(x) for x in elements]

            # ring homomorphism on every pair of classes
            for e, f in itertools.product(reps, repeat=2):
                assert splitting_map(e + f) == splitting_map(e) + splitting_map(f)
                assert splitting_map(e * f) == splitting_map(e) * splitting_map(f)

            # kills the ideal generated by <1, -pi>
            for e in reps:
                assert splitting_map(kernel_gen * e).is_zero

            # section of the inclusion of the residue ring
            for x in enumerate_residue_classes(config):
                assert splitting_map(inclusion(x)) == x

            # additive splitting: classes biject with coordinate pairs and
            # orthogonal sum is coordinatewise addition
            assert len(set(elements)) == 16 * config.pic_order**2
            for e, f in itertools.product(reps, repeat=2):
                assert to_group_ring(e + f) == to_group_ring(e) + to_group_ring(f)


def test_criterion_9_degenerate_config():
    with criterion(9, "degenerate config"):
        for q in (1, 3):
            config = CurveConfig(q, 0)
            assert enumerate_classes(config).total == 16
            one = parse_form("<1>", config)
            doubled = one + one
            if q == 3:
                assert not is_trivial(doubled)
                assert is_trivial(doubled + doubled)
                ring_one = GroupRingElement.one(config)
                assert not (ring_one + ring_one).is_zero
                assert (ring_one + ring_one + ring_one + ring_one).is_zero
            else:
                assert is_trivial(doubled)
                ring_one = GroupRingElement.one(config)
                assert (ring_one + ring_one).is_zero


def test_criterion_10_property_suites():
    with criterion(10, "property suites"):
        # hyperbolic annihilation
        rng = random.Random(100)
        for i in range(CASES):
            config = ALL_CONFIGS[i % len(ALL_CONFIGS)]
            form = random_form(rng, config, max_rank=8)
            assert is_trivial(form + (-form))

        # Witt invariant additivity inside the square of the fundamental ideal
        rng = random.Random(101)
        for i in range(CASES):
            config = ALL_CONFIGS[i % len(ALL_CONFIGS)]
            e = random_ideal_square_form(rng, config)
            f = random_ideal_square_form(rng, config)
            assert witt_invariant(e + f) == witt_invariant(e) + witt_invariant(f)

        # symbol symmetry and biadditivity
        rng = random.Random(102)
        for i in range(CASES):
            config = ALL_CONFIGS[i % len(ALL_CONFIGS)]
            a = random_generator(rng, config)
            b = random_generator(rng, config)
            c = random_generator(rng, config)
            assert symbol(config, a, b) == symbol(config, b, a)
            assert symbol(config, a * c, b) == symbol(config, a, b) + symbol(
                config, c, b
            )

        # canonical form idempotence
        rng = random.Random(103)
        for i in range(CASES):
            config = ALL_CONFIGS[i % len(ALL_CONFIGS)]
            shape = canonical_form(random_form(rng, config, max_rank=8))
            assert canonical_form(shape.payload) == shape
