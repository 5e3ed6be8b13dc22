"""Tests for the residue Witt classes, the group ring, and the splitting map."""

import itertools
import random

import pytest

from wittcurve import (
    CurveConfig,
    DiagonalForm,
    Generator,
    GroupRingElement,
    PicTorsionClass,
    ResidueWittClass,
    UnitSquareClass,
    check_ring_iso,
    enumerate_group_ring_elements,
    enumerate_residue_classes,
    equals,
    from_group_ring,
    inclusion,
    minus_one_class,
    parse_form,
    quaternion_norm_form,
    splitting_map,
    to_group_ring,
)

from helpers import random_form


def _residue_of(cfg, text: str) -> ResidueWittClass:
    """Residue class of a pi-free form given in concrete syntax."""
    return ResidueWittClass.from_generators(cfg, parse_form(text, cfg).entries)


class TestResidueAddition:
    def test_one_plus_one(self, cfg):
        total = ResidueWittClass.one(cfg) + ResidueWittClass.one(cfg)
        expected = ResidueWittClass(
            cfg, 0, minus_one_class(cfg), PicTorsionClass.identity(cfg.picard_rank)
        )
        assert total == expected

    def test_zero_identity(self, cfg):
        zero = ResidueWittClass.zero(cfg)
        for x in enumerate_residue_classes(cfg):
            assert x + zero == x

    def test_self_sum(self, cfg):
        m = minus_one_class(cfg)
        for x in enumerate_residue_classes(cfg):
            doubled = x + x
            assert doubled.parity == 0
            assert doubled.disc_line.is_trivial
            expected_unit = m if x.parity else UnitSquareClass(0)
            assert doubled.disc_unit == expected_unit

    def test_negation(self, cfg):
        zero = ResidueWittClass.zero(cfg)
        for x in enumerate_residue_classes(cfg):
            assert x + (-x) == zero

    def test_order_of_one(self):
        # order 4 when -1 is a non-square, order 2 when it is a square
        one3 = ResidueWittClass.one(CurveConfig(3, 0))
        assert not (one3 + one3).is_zero
        assert (one3 + one3 + one3 + one3).is_zero
        one1 = ResidueWittClass.one(CurveConfig(1, 0))
        assert (one1 + one1).is_zero

    def test_group_axioms_exhaustive(self, cfg):
        classes = enumerate_residue_classes(cfg)
        assert len(classes) == 4 * cfg.pic_order
        for x, y in itertools.product(classes, repeat=2):
            assert x + y == y + x
        for x, y, z in itertools.product(classes, repeat=3):
            assert (x + y) + z == x + (y + z)


class TestResidueMultiplication:
    def test_one_is_identity(self, cfg):
        one = ResidueWittClass.one(cfg)
        for x in enumerate_residue_classes(cfg):
            assert one * x == x

    def test_even_unit_class_squares_to_zero(self):
        cfg = CurveConfig(3, 0)
        even = _residue_of(cfg, "<1,1>")
        assert (even * even).is_zero

    def test_even_times_even_vanishes(self, cfg):
        # the fundamental ideal of the residue ring squares to zero
        evens = [x for x in enumerate_residue_classes(cfg) if x.parity == 0]
        for x, y in itertools.product(evens, repeat=2):
            assert (x * y).is_zero

    def test_ring_axioms_exhaustive(self, cfg):
        classes = enumerate_residue_classes(cfg)
        for x, y in itertools.product(classes, repeat=2):
            assert x * y == y * x
        for x, y, z in itertools.product(classes, repeat=3):
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z


class TestGroupRingCoordinates:
    def test_pi_maps_to_ramified_one(self, cfg):
        x = to_group_ring(parse_form("<pi>", cfg))
        assert x == GroupRingElement(ResidueWittClass.zero(cfg), ResidueWittClass.one(cfg))

    def test_one_pi_splits(self, cfg):
        x = to_group_ring(parse_form("<1,pi>", cfg))
        assert x == GroupRingElement(ResidueWittClass.one(cfg), ResidueWittClass.one(cfg))

    def test_norm_form_coordinates(self, q3r1):
        form = quaternion_norm_form(q3r1, UnitSquareClass(1), PicTorsionClass(1, 1))
        x = to_group_ring(form)
        assert x.a == _residue_of(q3r1, "<1,-s*L1>")
        assert x.b == _residue_of(q3r1, "<-1,s*L1>")

    def test_additive(self, cfg):
        rng = random.Random(41)
        for _ in range(100):
            e = random_form(rng, cfg)
            f = random_form(rng, cfg)
            assert to_group_ring(e + f) == to_group_ring(e) + to_group_ring(f)

    def test_multiplicative(self, cfg):
        rng = random.Random(42)
        for _ in range(100):
            e = random_form(rng, cfg, max_rank=5)
            f = random_form(rng, cfg, max_rank=5)
            assert to_group_ring(e * f) == to_group_ring(e) * to_group_ring(f)


class TestFromGroupRing:
    def test_zero_gives_empty_form(self, cfg):
        assert from_group_ring(GroupRingElement.zero(cfg)) == DiagonalForm.zero(cfg)

    def test_odd_residue_class(self, cfg):
        x = GroupRingElement(_residue_of(cfg, "<s>"), ResidueWittClass.zero(cfg))
        assert from_group_ring(x) == parse_form("<s>", cfg)

    def test_even_pair_gives_four_entry_template(self, q3r1):
        # at q = 3 mod 4 the class of <1,1> is the nonzero even unit class
        x = GroupRingElement(_residue_of(q3r1, "<1,s*L1>"), _residue_of(q3r1, "<1,1>"))
        assert from_group_ring(x) == parse_form("<1,s*L1,pi,pi>", q3r1)

    def test_roundtrip_exhaustive(self, cfg):
        for x in enumerate_group_ring_elements(cfg):
            assert to_group_ring(from_group_ring(x)) == x

    def test_representative_rank_at_most_four(self, cfg):
        assert all(
            from_group_ring(x).rank <= 4 for x in enumerate_group_ring_elements(cfg)
        )


class TestSplittingMap:
    def test_kills_kernel_ideal_generator(self, cfg):
        assert splitting_map(parse_form("<1,-pi>", cfg)).is_zero

    def test_identity_on_units(self, cfg):
        assert splitting_map(parse_form("<1>", cfg)) == ResidueWittClass.one(cfg)
        assert splitting_map(parse_form("<pi>", cfg)) == ResidueWittClass.one(cfg)

    def test_ring_homomorphism(self, cfg):
        rng = random.Random(43)
        for _ in range(100):
            e = random_form(rng, cfg, max_rank=5)
            f = random_form(rng, cfg, max_rank=5)
            assert splitting_map(e + f) == splitting_map(e) + splitting_map(f)
            assert splitting_map(e * f) == splitting_map(e) * splitting_map(f)

    def test_kills_whole_ideal(self, cfg):
        rng = random.Random(44)
        kernel_gen = parse_form("<1,-pi>", cfg)
        for _ in range(50):
            form = random_form(rng, cfg)
            assert splitting_map(kernel_gen * form).is_zero

    def test_section_of_inclusion(self, cfg):
        for x in enumerate_residue_classes(cfg):
            assert splitting_map(inclusion(x)) == x

    def test_inclusion_lands_in_pi_free_forms(self, cfg):
        for x in enumerate_residue_classes(cfg):
            assert all(g.pi_exp == 0 for g in inclusion(x).entries)


class TestRingIsomorphism:
    @pytest.mark.parametrize("q", (1, 3))
    @pytest.mark.parametrize("rank", (0, 1))
    def test_exhaustive(self, q, rank):
        cfg = CurveConfig(q, rank)
        report = check_ring_iso(cfg)
        count = 16 * cfg.pic_order**2
        assert report.element_count == count
        assert report.addition_pairs_checked == count * count
        assert report.multiplication_pairs_checked == count * count
        assert report.roundtrip_ok
        assert report.injective
        assert report.mismatches == ()
        assert report.passed

    def test_rank_bound(self):
        with pytest.raises(ValueError, match="bound exceeded"):
            check_ring_iso(CurveConfig(3, 3))

    def test_engines_agree_on_equality(self, cfg):
        rng = random.Random(45)
        for _ in range(300):
            e = random_form(rng, cfg)
            f = random_form(rng, cfg)
            assert equals(e, f) == (to_group_ring(e) == to_group_ring(f))


def test_residue_class_count_matches_square_root_of_total(cfg):
    assert len(enumerate_residue_classes(cfg)) ** 2 == len(
        enumerate_group_ring_elements(cfg)
    )


def test_residue_requires_pi_free_generators(q3r1):
    with pytest.raises(ValueError, match="pi-free"):
        ResidueWittClass.from_generators(q3r1, (Generator.pi(1),))
