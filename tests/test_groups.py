"""Tests for the configuration type and the underlying 2-torsion groups."""

import itertools
import operator
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittcurve import (
    BrauerClass,
    CurveConfig,
    DiagonalForm,
    Generator,
    GroupRingElement,
    ResidueWittClass,
    check_ring_iso,
    enumerate_classes,
    enumerate_generators,
    enumerate_group_ring_elements,
    enumerate_groups,
    enumerate_residue_classes,
    invariant_profile,
    make_config,
    parse_form,
    quaternion_norm_form,
    rank_one_group_structure,
    to_group_ring,
    verify_generator_relations,
    verify_quaternion_distinctness,
)
from wittcurve import groups
from wittcurve.groups import label, line_label

from helpers import assert_same_view, set_bit_label


# Each public function that takes a config first, called with cfg.
CONFIG_FUNCTIONS = {
    "enumerate_generators": enumerate_generators,
    "enumerate_groups": enumerate_groups,
    "enumerate_residue_classes": enumerate_residue_classes,
    "enumerate_group_ring_elements": enumerate_group_ring_elements,
    "enumerate_classes": enumerate_classes,
    "DiagonalForm.zero": DiagonalForm.zero,
    "quaternion_norm_form": lambda cfg: quaternion_norm_form(cfg, 0, 0),
    "verify_quaternion_distinctness": verify_quaternion_distinctness,
    "rank_one_group_structure": rank_one_group_structure,
    "verify_generator_relations": verify_generator_relations,
    "check_ring_iso": check_ring_iso,
    "ResidueWittClass.from_packed": lambda cfg: ResidueWittClass.from_packed(cfg, 0),
    "ResidueWittClass.zero": ResidueWittClass.zero,
    "ResidueWittClass.one": ResidueWittClass.one,
    "GroupRingElement.from_packed": lambda cfg: GroupRingElement.from_packed(cfg, 0),
    "GroupRingElement.zero": GroupRingElement.zero,
    "GroupRingElement.one": GroupRingElement.one,
}


@pytest.mark.parametrize("value", [None, 3, (3, 1)], ids=lambda v: type(v).__name__)
@pytest.mark.parametrize("name", CONFIG_FUNCTIONS)
def test_config_functions_refuse_anything_but_a_config(name, value):
    with pytest.raises(TypeError) as exc:
        CONFIG_FUNCTIONS[name](value)
    assert str(exc.value) == f"{name}() takes a CurveConfig, got {type(value).__name__}"


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
        # Past the int-to-string limit the value prints as its bit length.
        with pytest.raises(
            ValueError,
            match="^dyadic or invalid residue class: q_mod_4 must be 1 or 3, "
            "got <int of 16610 bits>$",
        ):
            make_config(10**5000, 1)

    def test_rejects_negative_rank(self):
        with pytest.raises(ValueError, match="picard_rank"):
            make_config(3, -1)
        with pytest.raises(
            ValueError, match="^picard_rank must be >= 0, got <negative int of 16610 bits>$"
        ):
            make_config(3, -(10**5000))

    def test_rank_bound(self):
        assert groups.MAX_PICARD_RANK == 4096
        assert make_config(3, 4096).picard_rank == 4096
        with pytest.raises(ValueError, match="^picard_rank must be <= 4096, got 4097$"):
            make_config(3, 4097)
        with pytest.raises(
            ValueError, match="^picard_rank must be <= 4096, got <int of 16610 bits>$"
        ):
            make_config(3, 10**5000)

    @pytest.mark.parametrize("rank", [2.0, "2", True, None])
    def test_rejects_non_int_rank(self, rank):
        with pytest.raises(ValueError, match="^picard_rank must be an int, got "):
            make_config(3, rank)

    @pytest.mark.parametrize("q", [3.0, "3", True, None])
    def test_rejects_non_int_residue_class(self, q):
        with pytest.raises(ValueError, match="q_mod_4 must be 1 or 3"):
            make_config(q, 1)

    def test_float_rank_never_reaches_the_parser(self):
        # A float rank used to pass construction and fail later inside
        # parse_form with an AttributeError.
        with pytest.raises(ValueError, match="picard_rank must be an int"):
            parse_form("<L1,s>", make_config(3, 2.0))


class TestMinusOne:
    def test_square_iff_q_is_one_mod_four(self):
        assert CurveConfig(1, 0).minus_one == 0
        assert CurveConfig(3, 0).minus_one == 1

    def test_double_negation(self, cfg):
        m = cfg.minus_one
        assert m ^ m == 0

    @pytest.mark.parametrize("q, bit", [(1, 0), (3, 1)])
    def test_plain_int(self, q, bit):
        m = CurveConfig(q, 2).minus_one
        assert type(m) is int
        assert m == bit
        assert repr(m) == str(bit)

    def test_derived_bit_is_not_a_field(self):
        # minus_one follows from q_mod_4: ==, hash, repr and pickles read the
        # two fields only, and unpickling sets the bit again.
        cfg = CurveConfig(3, 1)
        assert repr(cfg) == "CurveConfig(q_mod_4=3, picard_rank=1)"
        assert cfg.__reduce__() == (CurveConfig, (3, 1))
        assert pickle.loads(pickle.dumps(cfg)).minus_one == 1
        with pytest.raises(AttributeError, match="^cannot assign to field 'minus_one'$"):
            cfg.minus_one = 0


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
            assert line ^ line == 0
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


# Each holder of a line bundle mask, built from (unit, mask, rank).
HOLDERS = {
    "Generator": lambda unit, mask, rank: Generator(unit, 0, mask, rank),
    "BrauerClass": lambda unit, mask, rank: BrauerClass(unit, mask, rank),
    "ResidueWittClass": lambda unit, mask, rank: ResidueWittClass(
        CurveConfig(3, rank), 0, unit, mask
    ),
}


class TestLineBundleMask:
    def test_labels(self):
        assert line_label(0b001 ^ 0b100) == "L1*L3"
        assert line_label(0) == "O"

    @pytest.mark.parametrize("holder", HOLDERS)
    def test_mask_bounds(self, holder):
        with pytest.raises(ValueError, match="out of range"):
            HOLDERS[holder](0, 2, 1)
        with pytest.raises(ValueError, match="out of range"):
            HOLDERS[holder](0, -1, 1)
        with pytest.raises(
            ValueError, match="^line bundle mask <int of 20001 bits> out of range for rank 1$"
        ):
            HOLDERS[holder](0, 1 << 20000, 1)
        with pytest.raises(
            ValueError,
            match="^line bundle mask <negative int of 16610 bits> out of range for rank 1$",
        ):
            HOLDERS[holder](0, -(10**5000), 1)

    @pytest.mark.parametrize("holder", HOLDERS)
    def test_huge_rank_allocates_no_rank_sized_int(self, holder):
        tracemalloc.start()
        try:
            trivial = HOLDERS[holder](0, 0, 4096)
            low = HOLDERS[holder](0, 1, 4096)
            top = HOLDERS[holder](0, 1 << 4095, 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "L" not in str(trivial)
        assert "L1" in str(low)
        assert "L4096" in str(top)
        assert peak < 1 << 20
        with pytest.raises(ValueError, match="out of range"):
            HOLDERS[holder](0, -1, 4096)
        with pytest.raises(ValueError, match="^line bundle mask .* out of range for rank 4096$"):
            HOLDERS[holder](0, 1 << 4096, 4096)
        # A larger rank is refused before any mask is checked.
        for rank in (4097, 10**8):
            with pytest.raises(ValueError, match=f"rank must be <= 4096, got {rank}$"):
                HOLDERS[holder](0, 0, rank)

    @pytest.mark.parametrize("holder", ["Generator", "BrauerClass"])
    def test_negative_rank_rejected(self, holder):
        with pytest.raises(ValueError, match="^rank must be >= 0, got -1$"):
            HOLDERS[holder](0, 0, -1)

    @pytest.mark.parametrize("holder", HOLDERS)
    @pytest.mark.parametrize("mask", [1.0, "1", True, None])
    def test_non_int_mask_rejected(self, holder, mask):
        with pytest.raises(ValueError, match="^line bundle mask must be an int, got "):
            HOLDERS[holder](0, mask, 1)

    @pytest.mark.parametrize("holder", ["Generator", "BrauerClass"])
    @pytest.mark.parametrize("rank", [1.0, "1", True, None])
    def test_non_int_rank_rejected(self, holder, rank):
        with pytest.raises(ValueError, match="^rank must be an int, got "):
            HOLDERS[holder](0, 0, rank)

    def test_mixed_rank_product_rejected(self):
        with pytest.raises(ValueError, match="config mismatch"):
            Generator(0, 0, 1, 1) * Generator(0, 0, 1, 2)

    def test_mixed_rank_sum_rejected(self):
        with pytest.raises(ValueError, match="config mismatch"):
            BrauerClass(0, 1, 1) + BrauerClass(0, 1, 2)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((1, 3)), st.sampled_from((0, 1, 2, 16)), st.data())
def test_packed_round_trip(q, rank, data):
    cfg = make_config(q, rank)
    p = data.draw(st.integers(0, (4 << rank) - 1))
    unit, bit, mask = p & 1, p >> 1 & 1, p >> 2
    g = Generator.from_packed(rank, p)
    assert g.packed == p
    # Every coordinate property reads back from packed.
    assert (g.unit, g.pi_exp, g.mask, g.rank) == (unit, bit, mask, rank)
    assert g == Generator(unit, bit, mask, rank)
    assert str(g) == str(Generator(unit, bit, mask, rank)) == label(p)
    assert label(p) == set_bit_label(unit, bit, mask)
    x = ResidueWittClass.from_packed(cfg, p)
    assert x.packed == p
    assert (x.config, x.parity, x.disc_unit, x.disc_mask) == (cfg, unit, bit, mask)
    assert x == ResidueWittClass(cfg, unit, bit, mask)
    assert str(x) == str(ResidueWittClass(cfg, unit, bit, mask))
    assert str(x) == f"(parity {unit}, disc {set_bit_label(bit, 0, mask)})"
    # Each from_packed view agrees in ==, hash, str, repr and pickle with the
    # coordinate constructor's.
    assert_same_view(g, Generator(unit, bit, mask, rank))
    assert_same_view(x, ResidueWittClass(cfg, unit, bit, mask))
    b = BrauerClass.from_packed(rank, p & ~2)
    assert (b.packed, b.unit, b.mask, b.rank) == (p & ~2, unit, mask, rank)
    assert_same_view(b, BrauerClass(unit, mask, rank))
    assert str(b) == f"({set_bit_label(unit, 0, mask)}, pi)"
    r = data.draw(st.integers(0, (4 << rank) - 1))
    y = GroupRingElement.from_packed(cfg, p | r << rank + 2)
    assert y.packed == p | r << rank + 2 and (y.a.packed, y.b.packed) == (p, r)
    assert_same_view(
        y,
        GroupRingElement(
            ResidueWittClass(cfg, unit, bit, mask),
            ResidueWittClass(cfg, r & 1, r >> 1 & 1, r >> 2),
        ),
    )


CFG31 = CurveConfig(3, 1)
RESIDUE_A = ResidueWittClass(CFG31, 1, 0, 1)
RESIDUE_B = ResidueWittClass(CFG31, 0, 1, 0)

# pickle.dumps(view, protocol=4) of one view of each class, made when each view
# stored its coordinates in its slots.  A view that stores its packed int
# pickles as its coordinate fields, so these still load, and to the same bytes.
OLD_PICKLES = [
    (
        Generator(1, 0, 1, 1),
        b"\x80\x04\x95/\x00\x00\x00\x00\x00\x00\x00\x8c\x10wittcurve.groups\x94"
        b"\x8c\tGenerator\x94\x93\x94(K\x01K\x00K\x01K\x01t\x94R\x94.",
    ),
    (
        BrauerClass(1, 1, 1),
        b"\x80\x04\x95.\x00\x00\x00\x00\x00\x00\x00\x8c\x10wittcurve.groups\x94"
        b"\x8c\x0bBrauerClass\x94\x93\x94K\x01K\x01K\x01\x87\x94R\x94.",
    ),
    (
        RESIDUE_A,
        b"\x80\x04\x95c\x00\x00\x00\x00\x00\x00\x00\x8c\x14wittcurve.group_ring\x94"
        b"\x8c\x10ResidueWittClass\x94\x93\x94(\x8c\x10wittcurve.groups\x94"
        b"\x8c\x0bCurveConfig\x94\x93\x94K\x03K\x01\x86\x94R\x94K\x01K\x00K\x01t\x94R\x94.",
    ),
    (
        GroupRingElement(RESIDUE_A, RESIDUE_B),
        b"\x80\x04\x95\x8d\x00\x00\x00\x00\x00\x00\x00\x8c\x14wittcurve.group_ring\x94"
        b"\x8c\x10GroupRingElement\x94\x93\x94h\x00\x8c\x10ResidueWittClass\x94\x93\x94("
        b"\x8c\x10wittcurve.groups\x94\x8c\x0bCurveConfig\x94\x93\x94K\x03K\x01\x86\x94R\x94"
        b"K\x01K\x00K\x01t\x94R\x94h\x04(h\tK\x00K\x01K\x00t\x94R\x94\x86\x94R\x94.",
    ),
]


@pytest.mark.parametrize("view, data", OLD_PICKLES, ids=[type(v).__name__ for v, _ in OLD_PICKLES])
def test_old_pickles_load_to_the_same_view_and_bytes(view, data):
    loaded = pickle.loads(data)
    assert_same_view(loaded, view)
    assert pickle.dumps(view, protocol=4) == data


class TestFromPacked:
    """A from_packed constructor checks its packed int with one test and
    refuses anything but an int in 0..2**(rank + 2) - 1 (bit 1 clear for a
    Brauer class) with one ValueError."""

    BUILDERS = {
        "generator": Generator.from_packed,
        "Brauer class": BrauerClass.from_packed,
        "residue class": lambda rank, packed: ResidueWittClass.from_packed(
            CurveConfig(3, rank), packed
        ),
    }

    @pytest.mark.parametrize("what", BUILDERS)
    @pytest.mark.parametrize(
        "packed, text",
        [
            pytest.param(1.0, "1.0", id="float"),
            pytest.param(True, "True", id="bool"),
            pytest.param(False, "False", id="false"),
            pytest.param("1", "'1'", id="str"),
            pytest.param(None, "None", id="none"),
            pytest.param(-1, "-1", id="negative"),
            pytest.param(16, "16", id="out-of-range"),
            pytest.param(10**5000, "<int of 16610 bits>", id="huge"),
            pytest.param(-(10**5000), "<negative int of 16610 bits>", id="huge-negative"),
        ],
    )
    def test_bad_packed_value(self, what, packed, text):
        with pytest.raises(ValueError) as exc:
            self.BUILDERS[what](2, packed)
        assert str(exc.value) == f"not a packed {what} of rank 2: {text}"

    def test_brauer_class_refuses_a_pi_bit(self):
        with pytest.raises(ValueError, match=r"^not a packed Brauer class of rank 2: 2$"):
            BrauerClass.from_packed(2, 2)

    def test_largest_packed_value_in_range(self):
        assert Generator.from_packed(2, 15) == Generator(1, 1, 3, 2)
        assert BrauerClass.from_packed(2, 13) == BrauerClass(1, 3, 2)

    @pytest.mark.parametrize("holder", [Generator, BrauerClass])
    @pytest.mark.parametrize(
        "rank, message",
        [
            (True, "rank must be an int, got True"),
            (2.0, "rank must be an int, got 2.0"),
            (-1, "rank must be >= 0, got -1"),
            (4097, "rank must be <= 4096, got 4097"),
            (10**5000, "rank must be <= 4096, got <int of 16610 bits>"),
        ],
        ids=["bool", "float", "negative", "past-bound", "huge"],
    )
    def test_bad_rank(self, holder, rank, message):
        with pytest.raises(ValueError) as exc:
            holder.from_packed(rank, 0)
        assert str(exc.value) == message

    # At rank 1 an element is a | b << 3 with a, b below 8: one int below 64.
    # The pairs and other sequences an element used to be are refused too.
    @pytest.mark.parametrize(
        "x", [(0, 0, 5), (0,), (), [0, 0], (0, 0), 1.0, True, 1 << 6, 7 << 6, -1], ids=repr
    )
    def test_group_ring_element_is_one_int_in_range(self, x):
        with pytest.raises(ValueError) as exc:
            GroupRingElement.from_packed(CurveConfig(3, 1), x)
        assert str(exc.value) == f"not a packed group ring element of rank 1: {x!r}"


# One operand of each binary operator of a value class; an int as the other
# operand gets NotImplemented, so Python raises TypeError.
FOREIGN_OPERAND_CASES = [
    pytest.param(lambda cfg: parse_form("<1,s>", cfg), operator.add, id="form+"),
    pytest.param(lambda cfg: parse_form("<1,s>", cfg), operator.mul, id="form*"),
    pytest.param(lambda cfg: Generator(1, 0, 1, 1), operator.mul, id="generator*"),
    pytest.param(lambda cfg: BrauerClass(1, 1, 1), operator.add, id="brauer+"),
    pytest.param(lambda cfg: ResidueWittClass.one(cfg), operator.add, id="residue+"),
    pytest.param(lambda cfg: ResidueWittClass.one(cfg), operator.mul, id="residue*"),
    pytest.param(lambda cfg: to_group_ring(parse_form("<1,pi>", cfg)), operator.add, id="ring+"),
    pytest.param(lambda cfg: to_group_ring(parse_form("<1,pi>", cfg)), operator.mul, id="ring*"),
]


@pytest.mark.parametrize("build, op", FOREIGN_OPERAND_CASES)
def test_a_foreign_operand_gets_not_implemented(build, op):
    value = build(CurveConfig(3, 1))
    assert getattr(value, f"__{op.__name__}__")(1) is NotImplemented
    with pytest.raises(TypeError, match="unsupported operand type"):
        op(value, 1)
    with pytest.raises(TypeError, match="unsupported operand type"):
        op(1, value)


# Bundle labels on each side of a byte boundary of the packed int (bit i of
# the mask is bit i + 2 there): L6/L7, L14/L15, and L62/L63, the last bytes
# the label table keeps.
BOUNDARY_LABELS = (1, 6, 7, 14, 15, 22, 23, 62, 63, 64, 70)


@st.composite
def label_cases(draw):
    """(unit, pi_exp, mask, rank) at a rank of 0 to 70: a random mask, or
    one of bundle labels on a byte boundary."""
    rank = draw(st.integers(0, 70), label="rank")
    unit = draw(st.integers(0, 1), label="unit")
    pi_exp = draw(st.integers(0, 1), label="pi_exp")
    boundary = [k for k in BOUNDARY_LABELS if k <= rank]
    mask = draw(
        st.one_of(
            st.integers(0, (1 << rank) - 1),
            st.lists(st.sampled_from(boundary or [0])).map(
                lambda ks: sum({1 << (k - 1) for k in ks if k})
            ),
        ),
        label="mask",
    )
    return unit, pi_exp, mask, rank


def _assert_labels_match_oracle(unit, pi_exp, mask, rank):
    text = set_bit_label(unit, pi_exp, mask)
    assert label(unit | pi_exp << 1 | mask << 2) == text
    assert str(Generator(unit, pi_exp, mask, rank)) == text
    assert str(BrauerClass(unit, mask, rank)) == f"({set_bit_label(unit, 0, mask)}, pi)"
    assert line_label(mask) == (set_bit_label(0, 0, mask) if mask else "O")


class TestLabelOracle:
    @settings(max_examples=400, deadline=None)
    @given(case=label_cases())
    def test_matches_set_bit_walk(self, case):
        _assert_labels_match_oracle(*case)

    @pytest.mark.parametrize("unit", (0, 1))
    @pytest.mark.parametrize("pi_exp", (0, 1))
    @pytest.mark.parametrize(
        "mask",
        [1 << 99, 1 << 4095, 1 << 4999, 1 << 200_000, 1 << 4095 | 1 << 99 | 1 << 62 | 1,
         (0b1011 << 4092) | 1 << 61],
        ids=["L100", "L4096", "L5000", "bit-200000", "mixed", "byte-above-cache"],
    )
    def test_sparse_high_bits(self, unit, pi_exp, mask):
        if mask.bit_length() <= groups.MAX_PICARD_RANK:
            _assert_labels_match_oracle(unit, pi_exp, mask, mask.bit_length())
        else:
            # No class holds such a mask, but label takes any int.
            assert label(unit | pi_exp << 1 | mask << 2) == set_bit_label(unit, pi_exp, mask)
            assert line_label(mask) == set_bit_label(0, 0, mask)

    def test_every_byte_position_below_the_cache_bound(self):
        for bit in range(80):
            for byte in (1, 0b10100101, 0xFF):
                mask = byte << bit
                _assert_labels_match_oracle(1, 0, mask, mask.bit_length())

    def test_byte_table_stays_within_its_bound(self):
        rng = random.Random(4096)
        rank = 4096
        for _ in range(4):
            form = DiagonalForm._from_packed(
                CurveConfig(3, rank),
                tuple(rng.getrandbits(rank + 2) for _ in range(256)),
            )
            str(form)
        assert len(groups._BYTE_TEXT) <= 1 + 8 * 255
        assert all(
            key.bit_length() <= groups._CACHED_BITS for key in groups._BYTE_TEXT
        )


class TestUnitBit:
    @pytest.mark.parametrize("bit", [2, -1])
    def test_generator_rejects(self, bit):
        with pytest.raises(ValueError, match="unit square class bit must be 0 or 1"):
            Generator(bit, 0, 0, 1)

    @pytest.mark.parametrize("bit", [2, -1])
    def test_brauer_class_rejects(self, bit):
        with pytest.raises(ValueError, match="unit square class bit must be 0 or 1"):
            BrauerClass(bit, 0, 1)

    @pytest.mark.parametrize("bit", [2, -1])
    def test_residue_class_rejects(self, bit):
        cfg = CurveConfig(3, 1)
        with pytest.raises(ValueError, match="unit square class bit must be 0 or 1"):
            ResidueWittClass(cfg, 0, bit, 0)

    def test_generator_keeps_pi_message(self):
        with pytest.raises(ValueError, match="pi exponent must be 0 or 1"):
            Generator(0, 2, 0, 1)

    # pytest builds a parameter id with str(), which refuses 10**5000.
    @pytest.mark.parametrize("bit", [2, -1, pytest.param(10**5000, id="10**5000")])
    def test_messages_name_the_value(self, bit):
        shown = "<int of 16610 bits>" if bit == 10**5000 else str(bit)
        with pytest.raises(ValueError) as exc:
            Generator(bit, 0, 0, 1)
        assert str(exc.value) == f"unit square class bit must be 0 or 1, got {shown}"
        with pytest.raises(ValueError) as exc:
            Generator(0, bit, 0, 1)
        assert str(exc.value) == f"pi exponent must be 0 or 1, got {shown}"

    # 1.0 and True compare equal to 1 but cannot be packed: each holder
    # rejects them up front instead of failing later with a TypeError.
    @pytest.mark.parametrize("bit", [1.0, 0.0, True, False])
    def test_only_int_bits(self, bit):
        cfg = CurveConfig(3, 1)
        unit = "unit square class bit must be 0 or 1"
        for build, message in (
            (lambda: Generator(bit, 0, 0, 1), unit),
            (lambda: Generator(0, bit, 0, 1), "pi exponent must be 0 or 1"),
            (lambda: BrauerClass(bit, 0, 1), unit),
            (lambda: ResidueWittClass(cfg, bit, 0, 0), "parity must be 0 or 1"),
            (lambda: ResidueWittClass(cfg, 0, bit, 0), unit),
            (lambda: quaternion_norm_form(cfg, bit, 0), unit),
        ):
            with pytest.raises(ValueError, match=f"{message}, got {bit!r}"):
                build()


class TestRendering:
    def test_square_class_strings(self):
        rank = 2
        sq = Generator(1, 1, 0b01, rank)
        assert str(sq) == "s*pi*L1"
        assert str(Generator.one(rank)) == "1"

    def test_brauer_strings(self):
        assert str(BrauerClass.identity(2)) == "(1, pi)"
        cls = BrauerClass(1, 0b10, 2)
        assert str(cls) == "(s*L2, pi)"

    def test_reprs_at_the_rank_bound_are_the_dataclass_text(self):
        # Every int a class holds prints within the int-to-string limit.
        high = 1 << 4095
        cfg = CurveConfig(3, 4096)
        assert repr(BrauerClass(0, high, 4096)) == (
            f"BrauerClass(unit=0, mask={high}, rank=4096)"
        )
        assert repr(ResidueWittClass(cfg, 0, 0, high)) == (
            "ResidueWittClass(config=CurveConfig(q_mod_4=3, picard_rank=4096), "
            f"parity=0, disc_unit=0, disc_mask={high})"
        )
        assert repr(invariant_profile(parse_form("<1,-1>", cfg))) == (
            "InvariantProfile(rank_parity=0, "
            "signed_disc=Generator(unit=0, pi_exp=0, mask=0, rank=4096), "
            "witt_inv=BrauerClass(unit=0, mask=0, rank=4096))"
        )

    def test_rank_past_the_int_string_limit_is_refused_by_bit_length(self):
        with pytest.raises(ValueError) as exc:
            BrauerClass(0, 1, 10**5000)
        assert str(exc.value) == "rank must be <= 4096, got <int of 16610 bits>"
