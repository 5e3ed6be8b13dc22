"""Tests for the decision engine: triviality, equality, canonical shapes, census."""

import itertools
import random
import time

import pytest

from wittcurve import (
    BrauerClass,
    CurveConfig,
    DiagonalForm,
    Generator,
    PicTorsionClass,
    Shape,
    UnitSquareClass,
    canonical_form,
    enumerate_classes,
    enumerate_generators,
    enumerate_pic,
    equals,
    invariant_profile,
    is_trivial,
    minus_one_class,
    parse_form,
    quaternion_norm_form,
    rank_one_group_structure,
    to_group_ring,
    verify_generator_relations,
    verify_quaternion_distinctness,
)

from helpers import generator_alphabet, hyperbolic_pair, random_form, random_generator


def _neg(cfg, g: Generator) -> Generator:
    return Generator(g.unit + minus_one_class(cfg), g.pi_exp, g.line)


class TestIsTrivial:
    def test_hyperbolic_plane(self, cfg):
        assert is_trivial(parse_form("<1,-1>", cfg))

    def test_order_of_one(self):
        # <1> has additive order 4 when -1 is a non-square, else 2
        q3 = CurveConfig(3, 0)
        assert not is_trivial(parse_form("<1,1>", q3))
        assert is_trivial(parse_form("<1,1,1,1>", q3))
        q1 = CurveConfig(1, 0)
        assert is_trivial(parse_form("<1,1>", q1))

    def test_norm_forms_nontrivial_unless_symbol_trivial(self, cfg):
        for g in generator_alphabet(cfg):
            if g.pi_exp:
                continue
            form = quaternion_norm_form(cfg, g.unit, g.line)
            expected_trivial = g.unit.bit == 0 and g.line.mask == 0
            assert is_trivial(form) == expected_trivial

    def test_empty_form(self, cfg):
        assert is_trivial(DiagonalForm.zero(cfg))


class TestEquals:
    def test_reflexive(self, cfg):
        rng = random.Random(31)
        for _ in range(25):
            form = random_form(rng, cfg)
            assert equals(form, form)

    def test_symmetric(self, cfg):
        rng = random.Random(32)
        for _ in range(50):
            e = random_form(rng, cfg, max_rank=5)
            f = random_form(rng, cfg, max_rank=5)
            assert equals(e, f) == equals(f, e)

    def test_hyperbolic_padding_preserves_class(self, cfg):
        rng = random.Random(33)
        for _ in range(50):
            form = random_form(rng, cfg)
            padded = form + hyperbolic_pair(cfg, random_generator(rng, cfg))
            assert equals(form, padded)

    def test_congruence(self, cfg):
        rng = random.Random(34)
        for _ in range(30):
            e = random_form(rng, cfg, max_rank=4)
            f = e + hyperbolic_pair(cfg, random_generator(rng, cfg))
            g = random_form(rng, cfg, max_rank=3)
            assert equals(e + g, f + g)
            assert equals(e * g, f * g)

    def test_hyperbolic_annihilation(self, cfg):
        rng = random.Random(35)
        for _ in range(50):
            form = random_form(rng, cfg)
            assert is_trivial(form + (-form))

    def test_config_mismatch(self):
        with pytest.raises(ValueError, match="config mismatch"):
            equals(parse_form("<1>", CurveConfig(3, 1)), parse_form("<1>", CurveConfig(3, 2)))

    def test_long_trivial_difference_is_linear_time(self):
        # equals(e, e) and the profile of e + (-e) reach the Hasse sum; a
        # pairwise sum over the 8192-entry difference takes minutes.
        cfg = CurveConfig(3, 16)
        form = random_form(random.Random(36), cfg, min_rank=4096, max_rank=4096)
        start = time.perf_counter()
        assert equals(form, form)
        profile = invariant_profile(form + (-form))
        elapsed = time.perf_counter() - start
        assert profile.witt_inv is not None and profile.witt_inv.is_trivial
        assert elapsed < 2.0


@pytest.mark.parametrize("q", (1, 3))
class TestRewritingVectors:
    """The two derivation identities for reducing a general class to a template."""

    def test_residue_discriminant_case(self, q):
        # <1, -sL, tM, pi, -pi*sL> = <st*LM, pi, -s*pi*L>
        cfg = CurveConfig(q, 1)
        pi = Generator.pi(1)
        one = Generator.one(1)
        units = (UnitSquareClass(0), UnitSquareClass(1))
        for u_s, u_t, line, line_m in itertools.product(
            units, units, enumerate_pic(cfg), enumerate_pic(cfg)
        ):
            s_l = Generator(u_s, 0, line)
            t_m = Generator(u_t, 0, line_m)
            lhs = DiagonalForm(cfg, (one, _neg(cfg, s_l), t_m, pi, _neg(cfg, pi * s_l)))
            rhs = DiagonalForm(cfg, (s_l * t_m, pi, _neg(cfg, pi * s_l)))
            assert equals(lhs, rhs)

    def test_ramified_discriminant_case(self, q):
        # <1, -sL, t*pi*M, pi, -pi*sL> = <1, -sL, st*pi*LM>
        cfg = CurveConfig(q, 1)
        pi = Generator.pi(1)
        one = Generator.one(1)
        units = (UnitSquareClass(0), UnitSquareClass(1))
        for u_s, u_t, line, line_m in itertools.product(
            units, units, enumerate_pic(cfg), enumerate_pic(cfg)
        ):
            s_l = Generator(u_s, 0, line)
            t_pi_m = Generator(u_t, 1, line_m)
            lhs = DiagonalForm(cfg, (one, _neg(cfg, s_l), t_pi_m, pi, _neg(cfg, pi * s_l)))
            rhs = DiagonalForm(cfg, (one, _neg(cfg, s_l), s_l * t_pi_m))
            assert equals(lhs, rhs)


class TestInvariantProfile:
    def test_odd_rank_generator(self, q3r1, q1r1):
        for config in (q3r1, q1r1):
            profile = invariant_profile(parse_form("<s*L1>", config))
            assert profile.rank_parity == 1
            expected = Generator(
                UnitSquareClass(1) + minus_one_class(config), 0, PicTorsionClass(1, 1)
            )
            assert profile.signed_disc == expected
            assert profile.witt_inv is None

    def test_kernel_ideal_generator(self, cfg):
        profile = invariant_profile(parse_form("<1,-pi>", cfg))
        assert profile.rank_parity == 0
        assert profile.signed_disc == Generator(
            UnitSquareClass(0), 1, PicTorsionClass.identity(cfg.picard_rank)
        )
        assert profile.witt_inv is None

    def test_norm_form(self, q3r1):
        form = quaternion_norm_form(q3r1, UnitSquareClass(1), PicTorsionClass(1, 1))
        profile = invariant_profile(form)
        assert profile.rank_parity == 0
        assert profile.signed_disc.is_trivial
        assert profile.witt_inv == BrauerClass(UnitSquareClass(1), PicTorsionClass(1, 1))


class TestCanonicalForm:
    def test_zero(self, cfg):
        shape = canonical_form(parse_form("<1,-1>", cfg))
        assert shape.tag is Shape.ZERO
        assert shape.payload.rank == 0

    def test_sum_of_two_nonsquares(self):
        # over a finite field every unit is a sum of two squares, so <s,s> = <1,1>
        cfg = CurveConfig(3, 1)
        shape = canonical_form(parse_form("<s,s>", cfg))
        assert shape.tag is Shape.EVEN_ZERO
        assert shape.payload == parse_form("<1,1>", cfg)

    def test_mixed_five_entry_class(self, q3r1):
        shape = canonical_form(parse_form("<1,-s*L1,s,pi,-pi*s*L1>", q3r1))
        assert shape.tag is Shape.ODD_EVEN
        assert equals(shape.payload, parse_form("<1,-s*L1,s,pi,-pi*s*L1>", q3r1))

    def test_idempotent(self, cfg):
        rng = random.Random(36)
        for _ in range(100):
            shape = canonical_form(random_form(rng, cfg))
            again = canonical_form(shape.payload)
            assert again == shape

    def test_payload_is_witt_equal(self, cfg):
        rng = random.Random(37)
        for _ in range(50):
            form = random_form(rng, cfg)
            assert equals(form, canonical_form(form).payload)

    def test_same_result_iff_equal(self, cfg):
        rng = random.Random(38)
        for _ in range(100):
            e = random_form(rng, cfg, max_rank=5)
            f = random_form(rng, cfg, max_rank=5)
            assert (canonical_form(e) == canonical_form(f)) == equals(e, f)


class TestCensus:
    @pytest.mark.parametrize("q", (1, 3))
    def test_rank_one_counts(self, q):
        census = enumerate_classes(CurveConfig(q, 1))
        assert census.total == 64
        assert tuple(count for _, count in census.shape_counts) == (4, 4, 3, 16, 3, 12, 12, 9)
        assert census.nontrivial_total == 63

    @pytest.mark.parametrize("q", (1, 3))
    def test_rank_zero_counts(self, q):
        census = enumerate_classes(CurveConfig(q, 0))
        assert census.total == 16
        assert tuple(count for _, count in census.shape_counts) == (2, 2, 1, 4, 1, 2, 2, 1)
        assert census.nontrivial_total == 15

    def test_rank_two_total(self):
        assert enumerate_classes(CurveConfig(3, 2)).total == 256

    def test_formula_counts(self, cfg):
        census = enumerate_classes(cfg)
        t = 2 * cfg.pic_order
        expected = (t, t, t - 1, t * t, t - 1, t * (t - 1), t * (t - 1), (t - 1) ** 2)
        assert tuple(count for _, count in census.shape_counts) == expected
        assert census.total == 4 * t * t

    def test_shape_row_order_is_fixed(self, q3r1):
        census = enumerate_classes(q3r1)
        assert tuple(shape for shape, _ in census.shape_counts) == (
            Shape.ODD_ZERO,
            Shape.ZERO_ODD,
            Shape.EVEN_ZERO,
            Shape.ODD_ODD,
            Shape.ZERO_EVEN,
            Shape.EVEN_ODD,
            Shape.ODD_EVEN,
            Shape.EVEN_EVEN,
        )

    def test_rank_bound(self):
        with pytest.raises(ValueError, match="bound exceeded"):
            enumerate_classes(CurveConfig(3, 5))
        census = enumerate_classes(CurveConfig(3, 5), rank_bound=5)
        assert census.total == 16 * 32 * 32

    def test_every_class_reached_by_rank_at_most_four(self):
        # all 16n^2 classes appear among forms of length <= 4
        for q in (1, 3):
            for rank in (0, 1):
                cfg = CurveConfig(q, rank)
                gens = enumerate_generators(cfg)
                seen = {to_group_ring(DiagonalForm.zero(cfg))}
                for length in range(1, 5):
                    for entries in itertools.product(gens, repeat=length):
                        seen.add(to_group_ring(DiagonalForm(cfg, entries)))
                assert len(seen) == 16 * cfg.pic_order**2


class TestQuaternionDistinctness:
    def test_report(self, cfg):
        report = verify_quaternion_distinctness(cfg)
        assert report.class_count == 2 * cfg.pic_order
        assert report.pairwise_distinct
        assert report.trivial_symbols == ("(1, pi)",)
        assert report.passed

    def test_specific_pair_distinct(self, q3r1):
        a = quaternion_norm_form(q3r1, UnitSquareClass(1), PicTorsionClass.identity(1))
        b = quaternion_norm_form(q3r1, UnitSquareClass(1), PicTorsionClass(1, 1))
        assert not equals(a, b)


class TestRankOneStructure:
    def test_report(self, cfg):
        report = rank_one_group_structure(cfg)
        assert report.order == 4 * cfg.pic_order
        assert report.classes_distinct
        assert report.exponent_two
        assert report.homomorphism_ok
        assert report.passed
        assert len(report.witness) == 4 * cfg.pic_order

    def test_rank_zero_is_the_four_base_classes(self):
        report = rank_one_group_structure(CurveConfig(3, 0))
        assert report.order == 4
        assert sorted(coords[0] for _, coords in report.witness) == ["1", "pi", "s", "s*pi"]

    def test_squares_are_one(self, cfg):
        one = DiagonalForm(cfg, (Generator.one(cfg.picard_rank),))
        for g in enumerate_generators(cfg):
            single = DiagonalForm(cfg, (g,))
            assert equals(single * single, one)


def test_generator_relations(cfg):
    report = verify_generator_relations(cfg)
    assert report.passed
    assert report.checked == 8 * cfg.pic_order**2
    assert report.failures == ()
