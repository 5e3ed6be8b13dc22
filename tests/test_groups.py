"""Tests for the configuration type and the underlying 2-torsion groups."""

import itertools
import operator
import tracemalloc

import pytest

from wittcurve import (
    BrauerClass,
    CurveConfig,
    Generator,
    PicTorsionClass,
    ResidueWittClass,
    enumerate_groups,
    make_config,
    minus_one_class,
)


class TestConfig:
    def test_examples(self):
        assert make_config(3, 1).pic_order == 2
        assert make_config(1, 0).pic_order == 1
        assert make_config(1, 4).pic_order == 16

    def test_rejects_even_residue_class(self):
        with pytest.raises(ValueError, match="dyadic or invalid residue class"):
            make_config(2, 1)
        with pytest.raises(ValueError, match="dyadic or invalid residue class"):
            make_config(0, 0)

    def test_rejects_negative_rank(self):
        with pytest.raises(ValueError, match="picard_rank"):
            make_config(3, -1)


class TestMinusOne:
    def test_square_iff_q_is_one_mod_four(self):
        assert minus_one_class(CurveConfig(1, 0)) == 0
        assert minus_one_class(CurveConfig(3, 0)) == 1

    def test_double_negation(self, cfg):
        m = minus_one_class(cfg)
        assert m ^ m == 0

    @pytest.mark.parametrize("q, bit", [(1, 0), (3, 1)])
    def test_plain_int(self, q, bit):
        m = minus_one_class(CurveConfig(q, 2))
        assert type(m) is int
        assert m == bit
        assert repr(m) == str(bit)


class TestEnumerations:
    def test_sizes(self, cfg):
        pic, squares, brauer = enumerate_groups(cfg)
        n = cfg.pic_order
        assert len(pic) == n
        assert len(squares) == 4 * n
        assert len(brauer) == 2 * n

    def test_duplicate_free(self, cfg):
        pic, squares, brauer = enumerate_groups(cfg)
        assert len(set(pic)) == len(pic)
        assert len(set(squares)) == len(squares)
        assert len(set(brauer)) == len(brauer)

    @pytest.mark.parametrize("rank", range(5))
    def test_sizes_up_to_rank_four(self, rank):
        pic, squares, brauer = enumerate_groups(CurveConfig(3, rank))
        n = 2**rank
        assert (len(pic), len(squares), len(brauer)) == (n, 4 * n, 2 * n)


class TestGroupLaws:
    def test_every_element_self_inverse(self, cfg):
        pic, squares, brauer = enumerate_groups(cfg)
        for line in pic:
            assert (line + line).is_trivial
        for sq in squares:
            assert (sq * sq).is_trivial
        for cls in brauer:
            assert (cls + cls).is_trivial

    def test_addition_associative_and_commutative(self, cfg):
        _, squares, brauer = enumerate_groups(cfg)
        for group, op in ((squares, operator.mul), (brauer, operator.add)):
            for a, b in itertools.product(group, repeat=2):
                assert op(a, b) == op(b, a)
            for a, b, c in itertools.product(group, repeat=3):
                assert op(op(a, b), c) == op(a, op(b, c))

    def test_identity_elements(self, cfg):
        rank = cfg.picard_rank
        _, squares, brauer = enumerate_groups(cfg)
        zero_sq = Generator.one(rank)
        zero_br = BrauerClass.identity(rank)
        for sq in squares:
            assert sq * zero_sq == sq
        for cls in brauer:
            assert cls + zero_br == cls


class TestPicTorsion:
    def test_basis_labels(self):
        line = PicTorsionClass.basis(3, 1) + PicTorsionClass.basis(3, 3)
        assert str(line) == "L1*L3"
        assert line.mask == 0b101

    def test_basis_out_of_range(self):
        with pytest.raises(ValueError, match="unknown bundle label"):
            PicTorsionClass.basis(1, 2)
        with pytest.raises(ValueError, match="unknown bundle label"):
            PicTorsionClass.basis(1, 0)

    def test_mask_bounds(self):
        with pytest.raises(ValueError, match="out of range"):
            PicTorsionClass(1, 2)

    def test_huge_rank_allocates_no_rank_sized_int(self):
        tracemalloc.start()
        try:
            line = PicTorsionClass(10**8, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert line.is_trivial
        assert peak < 1 << 20
        with pytest.raises(ValueError, match="out of range"):
            PicTorsionClass(1, -1)

    def test_mixed_rank_addition_rejected(self):
        with pytest.raises(ValueError, match="config mismatch"):
            PicTorsionClass(1, 1) + PicTorsionClass(2, 1)


class TestUnitBit:
    @pytest.mark.parametrize("bit", [2, -1])
    def test_generator_rejects(self, bit):
        with pytest.raises(ValueError, match="unit square class bit must be 0 or 1"):
            Generator(bit, 0, PicTorsionClass.identity(1))

    @pytest.mark.parametrize("bit", [2, -1])
    def test_brauer_class_rejects(self, bit):
        with pytest.raises(ValueError, match="unit square class bit must be 0 or 1"):
            BrauerClass(bit, PicTorsionClass.identity(1))

    @pytest.mark.parametrize("bit", [2, -1])
    def test_residue_class_rejects(self, bit):
        cfg = CurveConfig(3, 1)
        with pytest.raises(ValueError, match="unit square class bit must be 0 or 1"):
            ResidueWittClass(cfg, 0, bit, PicTorsionClass.identity(1))

    def test_generator_keeps_pi_message(self):
        with pytest.raises(ValueError, match="pi exponent must be 0 or 1"):
            Generator(0, 2, PicTorsionClass.identity(1))


class TestRendering:
    def test_square_class_strings(self):
        rank = 2
        sq = Generator(1, 1, PicTorsionClass(rank, 0b01))
        assert str(sq) == "s*pi*L1"
        assert str(Generator.one(rank)) == "1"

    def test_brauer_strings(self):
        assert str(BrauerClass.identity(2)) == "(1, pi)"
        cls = BrauerClass(1, PicTorsionClass(2, 0b10))
        assert str(cls) == "(s*L2, pi)"
