"""Tests for the Brauer symbol, Hasse sum, and Witt invariant, which
wittcurve.engine computes."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittcurve import (
    BrauerClass,
    CurveConfig,
    DiagonalForm,
    Generator,
    hasse_invariant,
    parse_form,
    quaternion_norm_form,
    symbol,
    witt_invariant,
)

from helpers import (
    generator_alphabet,
    hyperbolic_pair,
    pairwise_hasse_sum,
    random_form,
    random_generator,
    random_ideal_square_form,
)


def _negated(cfg, g: Generator) -> Generator:
    return Generator(g.unit ^ cfg.minus_one, g.pi_exp, g.mask, g.rank)


class TestSymbolBaseCases:
    def test_pi_free_pairs_vanish(self, cfg):
        # both entries extend over the reduction, whose Brauer group is 0
        residue_gens = [g for g in generator_alphabet(cfg) if g.pi_exp == 0]
        for a, b in itertools.product(residue_gens, repeat=2):
            assert symbol(cfg, a, b).is_trivial

    def test_pi_with_pi(self, cfg):
        # (pi, pi) = (-1, pi)
        pi = Generator.pi(cfg.picard_rank)
        expected = BrauerClass(cfg.minus_one, 0, cfg.picard_rank)
        assert symbol(cfg, pi, pi) == expected

    def test_quaternion_pairing(self, q3r1, q1r1):
        for config in (q3r1, q1r1):
            a = Generator(1, 0, 1, 1)
            pi = Generator.pi(1)
            assert symbol(config, a, pi) == BrauerClass(1, 1, 1)


class TestSymbolLaws:
    def test_symmetric_exhaustive(self, cfg):
        gens = generator_alphabet(cfg)
        for a, b in itertools.product(gens, repeat=2):
            assert symbol(cfg, a, b) == symbol(cfg, b, a)

    def test_biadditive_exhaustive_rank_one(self, q3r1, q1r1):
        for config in (q3r1, q1r1):
            gens = generator_alphabet(config)
            for a, a2, b in itertools.product(gens, repeat=3):
                assert symbol(config, a * a2, b) == symbol(config, a, b) + symbol(
                    config, a2, b
                )

    def test_biadditive_sampled(self, cfg):
        rng = random.Random(21)
        for _ in range(300):
            a = random_generator(rng, cfg)
            a2 = random_generator(rng, cfg)
            b = random_generator(rng, cfg)
            assert symbol(cfg, a * a2, b) == symbol(cfg, a, b) + symbol(cfg, a2, b)

    def test_symbol_with_own_negative_vanishes(self, cfg):
        for g in generator_alphabet(cfg):
            assert symbol(cfg, g, _negated(cfg, g)).is_trivial

    def test_config_mismatch(self, q3r1):
        with pytest.raises(ValueError, match="config mismatch"):
            symbol(q3r1, Generator.one(1), Generator.one(2))

    def test_foreign_argument_is_a_type_error(self, q3r1):
        one = Generator.one(1)
        for args, got in [
            ((q3r1, 1, one), "CurveConfig, int and Generator"),
            ((q3r1, one, "pi"), "CurveConfig, Generator and str"),
            ((1, one, one), "int, Generator and Generator"),
        ]:
            with pytest.raises(
                TypeError, match=f"^symbol\\(\\) takes a CurveConfig and two Generator, got {got}$"
            ):
                symbol(*args)


class TestHasseInvariant:
    def test_norm_form_six_symbol_expansion(self, cfg):
        # Independent route: the six pairwise symbols of the four entries,
        # summed one by one; the pairs against <1> all vanish.
        if cfg.picard_rank < 1:
            pytest.skip("needs a bundle label")
        form = parse_form("<1,-s*L1,-pi,s*pi*L1>", cfg)
        total = BrauerClass.identity(cfg.picard_rank)
        for i, j in itertools.combinations(range(4), 2):
            total = total + symbol(cfg, form.entries[i], form.entries[j])
        assert total == BrauerClass(1, 1, cfg.picard_rank)
        assert hasse_invariant(form) == total

    def test_all_units_trivial(self, cfg):
        one = Generator.one(cfg.picard_rank)
        for length in range(7):
            form = DiagonalForm(cfg, (one,) * length)
            assert hasse_invariant(form).is_trivial

    def test_hyperbolic_plane_trivial(self, cfg):
        assert hasse_invariant(parse_form("<1,-1>", cfg)).is_trivial

    def test_matches_pairwise_symbol_sum(self, cfg):
        rng = random.Random(22)
        for _ in range(50):
            form = random_form(rng, cfg, max_rank=6)
            assert hasse_invariant(form) == pairwise_hasse_sum(form)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_scan_matches_pairwise_sum_property(self, data):
        cfg = CurveConfig(
            data.draw(st.sampled_from((1, 3)), label="q_mod_4"),
            data.draw(st.sampled_from((0, 1, 2, 5, 16)), label="picard_rank"),
        )
        rank = cfg.picard_rank
        generator = st.builds(
            lambda u, e, mask: Generator(u, e, mask, rank),
            st.integers(0, 1),
            st.integers(0, 1),
            st.integers(0, (1 << rank) - 1),
        )
        entries = data.draw(st.lists(generator, max_size=64), label="entries")
        form = DiagonalForm(cfg, tuple(entries))
        assert hasse_invariant(form) == pairwise_hasse_sum(form)


class TestWittInvariant:
    def test_norm_forms_realize_their_symbols(self, cfg):
        values = []
        for g in generator_alphabet(cfg):
            if g.pi_exp:
                continue
            form = quaternion_norm_form(cfg, g.unit, g.mask)
            value = witt_invariant(form)
            assert value == BrauerClass(g.unit, g.mask, g.rank)
            values.append(value)
        # the 2n values are pairwise distinct
        assert len(set(values)) == 2 * cfg.pic_order

    def test_witt_zero_form(self, cfg):
        assert witt_invariant(parse_form("<1,-1,1,-1>", cfg)).is_trivial

    def test_rejects_odd_rank(self, q3r1):
        with pytest.raises(ValueError, match="not in I-squared"):
            witt_invariant(parse_form("<s*L1>", q3r1))

    def test_rejects_nontrivial_signed_discriminant(self, q3r1):
        with pytest.raises(ValueError, match="not in I-squared"):
            witt_invariant(parse_form("<1,pi>", q3r1))

    def test_additive_on_ideal_square(self, cfg):
        rng = random.Random(23)
        for _ in range(100):
            e = random_ideal_square_form(rng, cfg)
            f = random_ideal_square_form(rng, cfg)
            assert witt_invariant(e + f) == witt_invariant(e) + witt_invariant(f)

    def test_unchanged_by_hyperbolic_padding(self, cfg):
        rng = random.Random(24)
        for _ in range(100):
            form = random_ideal_square_form(rng, cfg)
            padded = form + hyperbolic_pair(cfg, random_generator(rng, cfg))
            assert witt_invariant(padded) == witt_invariant(form)
