"""Tests for diagonal form algebra: sums, tensors, discriminants, norm forms."""

import itertools
import random
from collections import Counter

import pytest

from wittcurve import (
    CurveConfig,
    DiagonalForm,
    Generator,
    PicTorsionClass,
    UnitSquareClass,
    enumerate_generators,
    minus_one_class,
    parse_form,
    quaternion_norm_form,
)

from helpers import generator_alphabet, random_form


class TestOrthogonalSum:
    def test_concatenates(self, q3r1):
        total = parse_form("<1>", q3r1) + parse_form("<-1>", q3r1)
        assert total.rank == 2
        assert total == parse_form("<1,-1>", q3r1)

    def test_empty_identity(self, cfg):
        rng = random.Random(7)
        for _ in range(25):
            form = random_form(rng, cfg)
            assert form + DiagonalForm.zero(cfg) == form

    def test_mixed_entries(self, q3r1):
        assert parse_form("<s*L1>", q3r1) + parse_form("<pi>", q3r1) == parse_form(
            "<s*L1,pi>", q3r1
        )

    def test_rank_adds(self, cfg):
        rng = random.Random(8)
        for _ in range(25):
            e = random_form(rng, cfg)
            f = random_form(rng, cfg)
            assert (e + f).rank == e.rank + f.rank

    def test_config_mismatch(self):
        e = parse_form("<1>", CurveConfig(3, 1))
        f = parse_form("<1>", CurveConfig(1, 1))
        with pytest.raises(ValueError, match="config mismatch"):
            e + f


class TestTensor:
    def test_pi_squared_is_one(self, cfg):
        pi = parse_form("<pi>", cfg)
        assert pi * pi == parse_form("<1>", cfg)

    def test_line_parts_cancel(self, q3r1):
        left = parse_form("<s*L1>", q3r1) * parse_form("<pi*L1>", q3r1)
        assert left == parse_form("<s*pi>", q3r1)

    def test_distributes_entrywise(self, cfg):
        if cfg.picard_rank < 1:
            pytest.skip("needs a bundle label")
        left = parse_form("<1,-1>", cfg) * parse_form("<s*L1>", cfg)
        assert left == parse_form("<s*L1,-s*L1>", cfg)

    def test_rank_multiplies(self, cfg):
        rng = random.Random(9)
        for _ in range(25):
            e = random_form(rng, cfg, max_rank=5)
            f = random_form(rng, cfg, max_rank=5)
            assert (e * f).rank == e.rank * f.rank

    def test_commutative_up_to_reordering(self, cfg):
        rng = random.Random(10)
        for _ in range(25):
            e = random_form(rng, cfg, max_rank=4)
            f = random_form(rng, cfg, max_rank=4)
            assert Counter((e * f).entries) == Counter((f * e).entries)

    def test_associative_up_to_reordering(self, q3r1):
        rng = random.Random(11)
        for _ in range(10):
            e = random_form(rng, q3r1, max_rank=3)
            f = random_form(rng, q3r1, max_rank=3)
            g = random_form(rng, q3r1, max_rank=3)
            assert Counter(((e * f) * g).entries) == Counter((e * (f * g)).entries)


class TestNegate:
    def test_minus_one_by_residue_class(self):
        assert -parse_form("<1>", CurveConfig(3, 0)) == parse_form("<s>", CurveConfig(3, 0))
        assert -parse_form("<1>", CurveConfig(1, 0)) == parse_form("<1>", CurveConfig(1, 0))

    def test_involution(self, cfg):
        rng = random.Random(12)
        for _ in range(25):
            form = random_form(rng, cfg)
            assert -(-form) == form


class TestDiscriminant:
    def test_norm_form_hand_expansion(self, cfg):
        # Expand <1, -s*L, -pi, s*pi*L> coordinatewise: unit bits are
        # 0, 1+m, m, 1 and cancel, the two pi bits cancel, the line appears
        # twice and cancels.
        if cfg.picard_rank < 1:
            pytest.skip("needs a bundle label")
        m = minus_one_class(cfg).bit
        unit = 0 ^ (1 ^ m) ^ m ^ 1
        pi_exp = 0 ^ 0 ^ 1 ^ 1
        mask = 0 ^ 1 ^ 0 ^ 1
        assert (unit, pi_exp, mask) == (0, 0, 0)
        form = parse_form("<1,-s*L1,-pi,s*pi*L1>", cfg)
        assert form.discriminant().is_trivial

    def test_pi_pi_trivial(self, cfg):
        assert parse_form("<pi,pi>", cfg).discriminant().is_trivial

    def test_single_entry(self, q3r1):
        disc = parse_form("<s*L1>", q3r1).discriminant()
        assert disc == Generator(UnitSquareClass(1), 0, PicTorsionClass(1, 1))

    def test_additive_under_orthogonal_sum(self, cfg):
        rng = random.Random(13)
        for _ in range(50):
            e = random_form(rng, cfg)
            f = random_form(rng, cfg)
            assert (e + f).discriminant() == e.discriminant() * f.discriminant()


class TestSignedDiscriminant:
    def test_one_one_gives_minus_one(self, cfg):
        # rank 2 twists by (-1)^3
        signed = parse_form("<1,1>", cfg).signed_discriminant()
        expected = Generator(
            minus_one_class(cfg), 0, PicTorsionClass.identity(cfg.picard_rank)
        )
        assert signed == expected

    def test_hyperbolic_plane_trivial(self, cfg):
        assert parse_form("<1,-1>", cfg).signed_discriminant().is_trivial

    def test_norm_form_trivial(self, cfg):
        if cfg.picard_rank < 1:
            pytest.skip("needs a bundle label")
        form = parse_form("<1,-s*L1,-pi,s*pi*L1>", cfg)
        assert form.signed_discriminant().is_trivial
        assert form.rank % 2 == 0

    @pytest.mark.parametrize("q", (1, 3))
    def test_cross_term_law_exhaustive(self, q):
        # signed(E + F) = signed(E) + signed(F) + (rank E * rank F) * [-1],
        # checked for every pair of forms of rank at most 2 at rank r = 1.
        cfg = CurveConfig(q, 1)
        minus_one = Generator(
            minus_one_class(cfg), 0, PicTorsionClass.identity(1)
        )
        gens = enumerate_generators(cfg)
        small_forms = [DiagonalForm.zero(cfg)]
        small_forms += [DiagonalForm(cfg, (g,)) for g in gens]
        small_forms += [DiagonalForm(cfg, pair) for pair in itertools.product(gens, repeat=2)]
        for e in small_forms:
            for f in small_forms:
                expected = e.signed_discriminant() * f.signed_discriminant()
                if e.rank * f.rank % 2:
                    expected = expected * minus_one
                assert (e + f).signed_discriminant() == expected

    def test_cross_term_law_random(self, cfg):
        rng = random.Random(14)
        minus_one = Generator(
            minus_one_class(cfg), 0, PicTorsionClass.identity(cfg.picard_rank)
        )
        for _ in range(200):
            e = random_form(rng, cfg)
            f = random_form(rng, cfg)
            expected = e.signed_discriminant() * f.signed_discriminant()
            if e.rank * f.rank % 2:
                expected = expected * minus_one
            assert (e + f).signed_discriminant() == expected


class TestQuaternionNormForm:
    def test_matches_template(self, q3r1, q1r1):
        for config in (q3r1, q1r1):
            form = quaternion_norm_form(
                config, UnitSquareClass(1), PicTorsionClass.basis(1, 1)
            )
            assert form == parse_form("<1,-s*L1,-pi,s*pi*L1>", config)

    def test_trivial_symbol_gives_double_hyperbolic(self, cfg):
        form = quaternion_norm_form(
            cfg, UnitSquareClass(0), PicTorsionClass.identity(cfg.picard_rank)
        )
        assert form == parse_form("<1,-1,-pi,pi>", cfg)

    def test_rank_always_four(self, cfg):
        for g in generator_alphabet(cfg):
            form = quaternion_norm_form(cfg, g.unit, g.line)
            assert form.rank == 4

    def test_config_mismatch(self, q3r1):
        with pytest.raises(ValueError, match="config mismatch"):
            quaternion_norm_form(q3r1, UnitSquareClass(0), PicTorsionClass(2, 0))


def test_generator_alphabet_size(cfg):
    gens = enumerate_generators(cfg)
    assert len(gens) == 4 * cfg.pic_order
    assert len(set(gens)) == len(gens)


def test_generator_product_is_coordinatewise(q3r1):
    a = Generator(UnitSquareClass(1), 0, PicTorsionClass(1, 1))
    b = Generator(UnitSquareClass(1), 1, PicTorsionClass(1, 1))
    assert a * b == Generator(UnitSquareClass(0), 1, PicTorsionClass(1, 0))
