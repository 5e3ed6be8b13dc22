"""Tests for the residue Witt classes, the group ring, and the splitting map."""

import itertools
import operator
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittcurve import (
    CurveConfig,
    DiagonalForm,
    Generator,
    GroupRingElement,
    ResidueWittClass,
    check_ring_iso,
    enumerate_generators,
    enumerate_group_ring_elements,
    enumerate_residue_classes,
    equals,
    from_group_ring,
    inclusion,
    parse_form,
    quaternion_norm_form,
    rank_one_group_structure,
    splitting_map,
    to_group_ring,
)
from wittcurve import verify
from wittcurve.forms import Summary, summarize
from wittcurve.group_ring import (
    element_add,
    element_mul,
    element_neg,
    lane_law,
    packed_group_ring_elements,
    packed_representative,
    packed_residue_classes,
)

from helpers import (
    pairwise_ring_iso,
    random_form,
    residue_add,
    residue_class_of,
    residue_mul,
    residue_neg,
    residue_negative,
    residue_product,
    residue_sum,
)


def _residue_of(cfg, text: str) -> ResidueWittClass:
    """Residue class of a pi-free form given in concrete syntax."""
    return ResidueWittClass.from_generators(cfg, parse_form(text, cfg).entries)


class TestResidueAddition:
    def test_one_plus_one(self, cfg):
        total = ResidueWittClass.one(cfg) + ResidueWittClass.one(cfg)
        expected = ResidueWittClass(cfg, 0, cfg.minus_one, 0)
        assert total == expected

    def test_zero_identity(self, cfg):
        zero = ResidueWittClass.zero(cfg)
        for x in enumerate_residue_classes(cfg):
            assert x + zero == x

    def test_self_sum(self, cfg):
        m = cfg.minus_one
        for x in enumerate_residue_classes(cfg):
            doubled = x + x
            assert doubled.parity == 0
            assert doubled.disc_mask == 0
            expected_unit = m if x.parity else 0
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


@pytest.mark.parametrize("q", (1, 3))
@pytest.mark.parametrize("rank", (0, 1, 2, 3))
class TestPackedArithmeticMatchesOracle:
    """The packed closed forms against the object-level reference: the
    cross-term sum and the product of representatives."""

    def test_residue_classes_every_pair(self, q, rank):
        cfg = CurveConfig(q, rank)
        classes = enumerate_residue_classes(cfg)
        for x in classes:
            assert -x == residue_negative(x)
            for y in classes:
                assert x + y == residue_sum(x, y)
                assert x * y == residue_product(x, y)

    def test_residue_class_of_generators(self, q, rank):
        cfg = CurveConfig(q, rank)
        rng = random.Random(46)
        residue_gens = [g for g in enumerate_generators(cfg) if not g.pi_exp]
        for length in range(6):
            gens = [rng.choice(residue_gens) for _ in range(length)]
            assert ResidueWittClass.from_generators(cfg, gens) == residue_class_of(cfg, gens)


@pytest.mark.parametrize("q", (1, 3))
@pytest.mark.parametrize("rank", (0, 1))
def test_packed_group_ring_arithmetic_every_pair(q, rank):
    # (16n^2)^2 pairs: 4096 at rank 1.
    cfg = CurveConfig(q, rank)
    for x in enumerate_group_ring_elements(cfg):
        assert -x == GroupRingElement(residue_negative(x.a), residue_negative(x.b))
        for y in enumerate_group_ring_elements(cfg):
            assert x + y == GroupRingElement(residue_sum(x.a, y.a), residue_sum(x.b, y.b))
            assert x * y == GroupRingElement(
                residue_sum(residue_product(x.a, y.a), residue_product(x.b, y.b)),
                residue_sum(residue_product(x.a, y.b), residue_product(x.b, y.a)),
            )


def _assert_element_ops_are_residue_ops(cfg, a, b, c, d):
    """element_add, element_neg and element_mul on a | b << w and c | d << w
    against residue_add, residue_neg and residue_mul on the components:
    (a + <pi>b)(c + <pi>d) = (ac + bd) + <pi>(ad + bc)."""
    m = cfg.minus_one
    law = cfg._ring_law
    w = cfg.picard_rank + 2
    x, y = a | b << w, c | d << w
    assert element_add(law, x, y) == residue_add(m, a, c) | residue_add(m, b, d) << w
    assert element_neg(law, x) == residue_neg(m, a) | residue_neg(m, b) << w
    assert element_mul(law, x, y) == (
        residue_add(m, residue_mul(m, a, c), residue_mul(m, b, d))
        | residue_add(m, residue_mul(m, a, d), residue_mul(m, b, c)) << w
    )


@pytest.mark.parametrize("q", (1, 3))
@pytest.mark.parametrize("rank", (0, 1, 2))
def test_element_mul_writes_out_residue_mul(q, rank):
    # Every pair, with add and neg too: the int element operations work on
    # both components at once.
    cfg = CurveConfig(q, rank)
    classes = packed_residue_classes(cfg)
    for a, b, c, d in itertools.product(classes, repeat=4):
        _assert_element_ops_are_residue_ops(cfg, a, b, c, d)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), q=st.sampled_from((1, 3)), rank=st.integers(0, 300))
def test_element_ops_never_carry_between_components(data, q, rank):
    # Random components at ranks up to 300, odd and with the unit bit set
    # often, so that a twist or a product crossing bit w would show.
    component = st.integers(0, (4 << rank) - 1) | st.sampled_from((1, 3, (4 << rank) - 1))
    a, b, c, d = (data.draw(component) for _ in range(4))
    _assert_element_ops_are_residue_ops(CurveConfig(q, rank), a, b, c, d)


@pytest.mark.parametrize("q", (1, 3))
@pytest.mark.parametrize("rank", range(verify.RING_ISO_RANK_BOUND + 1))
def test_row_calls_on_byte_lanes_give_each_pair(q, rank):
    # check_ring_iso packs the elements one per byte and fills a table row
    # with one call: byte k of it is the single-element call on
    # (x, elements[k]).  A raised bound that no longer fits a byte fails here.
    assert 2 * (verify.RING_ISO_RANK_BOUND + 2) <= 8
    cfg = CurveConfig(q, rank)
    law = cfg._ring_law
    elements = packed_group_ring_elements(cfg)
    count = len(elements)
    ones = int.from_bytes(bytes([1]) * count, "little")
    column = int.from_bytes(bytes(elements), "little")
    row_law = lane_law(law, ones)
    for x in elements:
        add_row = element_add(row_law, x * ones, column).to_bytes(count, "little")
        mul_row = element_mul(row_law, x, column).to_bytes(count, "little")
        assert list(add_row) == [element_add(law, x, y) for y in elements]
        assert list(mul_row) == [element_mul(law, x, y) for y in elements]


@pytest.mark.parametrize("q", (1, 3))
@pytest.mark.parametrize("rank", (0, 1, 2))
def test_element_prints_as_its_components(q, rank):
    # An element prints from its packed pair, without building a, b.
    for x in enumerate_group_ring_elements(CurveConfig(q, rank)):
        assert str(x) == f"[{x.a} | pi: {x.b}]"


# Both views compute through the element operations on the config's law,
# with one operator path.
@pytest.mark.parametrize(
    "view, packed",
    [(ResidueWittClass, packed_residue_classes), (GroupRingElement, packed_group_ring_elements)],
    ids=["residue", "element"],
)
@pytest.mark.parametrize(
    "cfg, other_cfg",
    [(CurveConfig(3, 1), CurveConfig(1, 1)), (CurveConfig(1, 1), CurveConfig(1, 2))],
    ids=["q", "rank"],
)
def test_views_share_one_operator_path(view, packed, cfg, other_cfg):
    references = [(cfg._ring_law, (element_add, element_neg, element_mul))]
    if view is ResidueWittClass:
        # On a residue class, the element a + <pi>*0, the element operations
        # are the residue closed forms.
        references.append((cfg.minus_one, (residue_add, residue_neg, residue_mul)))
    for op in (operator.add, operator.mul):
        with pytest.raises(ValueError) as exc:
            op(view.one(cfg), view.one(other_cfg))
        assert str(exc.value) == f"config mismatch: {cfg} != {other_cfg}"
    assert view.zero(cfg) == view.from_packed(cfg, 0)
    xs = [view.from_packed(cfg, p) for p in packed(cfg)]
    for x in xs:
        assert x.is_zero == (x.packed == 0)
        copy = pickle.loads(pickle.dumps(x))
        assert copy == x and hash(copy) == hash(x) and repr(copy) == repr(x)
        for law, (add, neg, mul) in references:
            assert (-x).packed == neg(law, x.packed)
            for y in xs:
                assert (x + y).packed == add(law, x.packed, y.packed)
                assert (x * y).packed == mul(law, x.packed, y.packed)


class TestGroupRingCoordinates:
    def test_pi_maps_to_ramified_one(self, cfg):
        x = to_group_ring(parse_form("<pi>", cfg))
        assert x == GroupRingElement(ResidueWittClass.zero(cfg), ResidueWittClass.one(cfg))

    def test_one_pi_splits(self, cfg):
        x = to_group_ring(parse_form("<1,pi>", cfg))
        assert x == GroupRingElement(ResidueWittClass.one(cfg), ResidueWittClass.one(cfg))

    def test_norm_form_coordinates(self, q3r1):
        form = quaternion_norm_form(q3r1, 1, 1)
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

    def test_a_residue_class_is_the_element_with_no_pi_part(self, cfg):
        # The same int: the two views compute with one ring law.
        for x in enumerate_residue_classes(cfg):
            assert to_group_ring(inclusion(x)).packed == x.packed

    def test_inclusion_lands_in_pi_free_forms(self, cfg):
        for x in enumerate_residue_classes(cfg):
            assert all(g.pi_exp == 0 for g in inclusion(x).entries)


class TestRingIsomorphism:
    @pytest.mark.parametrize("q", (1, 3))
    @pytest.mark.parametrize("rank", (0, 1, 2))
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

    @pytest.mark.parametrize("q", (1, 3))
    @pytest.mark.parametrize("rank", (0, 1))
    def test_report_matches_pairwise_oracle(self, q, rank):
        cfg = CurveConfig(q, rank)
        _assert_same_report(check_ring_iso(cfg), pairwise_ring_iso(cfg))

    def test_rank_bound(self):
        assert verify.RING_ISO_RANK_BOUND == 2
        with pytest.raises(ValueError) as exc:
            check_ring_iso(CurveConfig(3, 3))
        assert str(exc.value) == (
            "bound exceeded: exhaustive ring comparison needs picard_rank <= 2, got 3"
        )
        with pytest.raises(ValueError) as exc:
            check_ring_iso(CurveConfig(3, 4096))
        assert str(exc.value) == (
            "bound exceeded: exhaustive ring comparison needs picard_rank <= 2, got 4096"
        )

    def test_engines_agree_on_equality(self, cfg):
        rng = random.Random(45)
        for _ in range(300):
            e = random_form(rng, cfg)
            f = random_form(rng, cfg)
            assert equals(e, f) == (to_group_ring(e) == to_group_ring(f))


# At r <= 1 the suites must still catch a fault in either engine.  With
# q = 3 the class of -1 is not a square, so every [-1] term is live.


def _drop_minus_one(operation):
    """The group-ring operation computed as if -1 were a square."""
    return lambda law, x, y: operation((0, *law[1:]), x, y)


def _shift_ramified(offset):
    """Summary.times with its ramified count off by offset."""
    times = Summary.times

    def shifted(self, other):
        product = times(self, other)
        return product._replace(ramified=product.ramified + offset)

    return shifted


def _pi_free_summaries(packed):
    """summarize as if no entry had a pi: the ramified count and
    discriminant are 0.  An orthogonal sum still adds the summaries."""
    return summarize(packed)._replace(ramified=0, ramified_disc=0)


def _assert_same_report(report, expected):
    for name in type(report)._fields:
        assert getattr(report, name) == getattr(expected, name), name


def _wrong_once(operation, elements, i, j):
    """operation with its result at the pair (i, j) replaced by another
    element, in a single call and in lane j of a row call whose left factor
    is elements[i] (a row call takes the column, one element per byte);
    distinct elements are Witt-distinct."""

    def replaced(result):
        return elements[elements.index(result) - 1]

    def wrong(law, x, y):
        result = operation(law, x, y)
        if (x, y) == (elements[i], elements[j]):
            return replaced(result)
        if y >> 8 and x & 255 == elements[i]:
            lanes = bytearray(result.to_bytes(len(elements), "little"))
            lanes[j] = replaced(lanes[j])
            return int.from_bytes(lanes, "little")
        return result

    return wrong


def _element(cfg, i):
    return GroupRingElement.from_packed(cfg, packed_group_ring_elements(cfg)[i])


class TestFaultInjection:
    # Every existing fault gives the report of the pairwise oracle.
    @pytest.mark.parametrize("rank", (0, 1))
    @pytest.mark.parametrize(
        "owner, name, fault",
        [
            (verify, "element_add", _drop_minus_one(verify.element_add)),
            (verify, "element_mul", _drop_minus_one(verify.element_mul)),
            (verify, "summarize", _pi_free_summaries),
        ],
        ids=["add", "mul", "summarize"],
    )
    def test_fault_report_matches_pairwise_oracle(self, monkeypatch, rank, owner, name, fault):
        monkeypatch.setattr(owner, name, fault)
        cfg = CurveConfig(3, rank)
        report = check_ring_iso(cfg)
        assert not report.passed
        _assert_same_report(report, pairwise_ring_iso(cfg))

    @pytest.mark.parametrize("q", (1, 3))
    @pytest.mark.parametrize("rank", (0, 1))
    def test_a_hyperbolic_padded_representative_passes(self, monkeypatch, q, rank):
        # The representative of each (c, 0), c nonzero, gains a hyperbolic
        # pair <1, -1>: every Witt class, and so every decision on the real
        # entries, still holds.
        representative = verify.packed_representative

        def padded(law, x):
            rep = representative(law, x)
            return rep + (0, law[0] & 1) if x & law[2] and not x >> law[1] else rep

        monkeypatch.setattr(verify, "packed_representative", padded)
        cfg = CurveConfig(q, rank)
        report = check_ring_iso(cfg)
        assert report.passed and report.mismatches == ()
        _assert_same_report(report, pairwise_ring_iso(cfg))

    @pytest.mark.parametrize("q", (1, 3))
    @pytest.mark.parametrize("rank", (0, 1))
    def test_injectivity_names_a_witt_equal_pair(self, monkeypatch, q, rank):
        cfg = CurveConfig(q, rank)
        m = cfg.minus_one
        law = cfg._ring_law
        elements = packed_group_ring_elements(cfg)
        i, j = 1, len(elements) - 2
        # The invariant engine calls the representatives of i and j equal.
        equal = summarize(packed_representative(law, elements[i])).plus(
            summarize(packed_representative(law, elements[j])).negated(m)
        )
        decide = verify.summary_is_trivial
        monkeypatch.setattr(
            verify, "summary_is_trivial", lambda summary, m: summary == equal or decide(summary, m)
        )
        report = check_ring_iso(cfg)
        assert not report.passed
        assert not report.injective
        assert report.mismatches[0] == (
            f"distinct elements {_element(cfg, i)} and {_element(cfg, j)} gave equal forms"
        )

    # Within a row, the addition mismatch of a pair comes before its
    # multiplication mismatch.
    @pytest.mark.parametrize("q", (1, 3))
    @pytest.mark.parametrize("rank", (0, 1))
    @pytest.mark.parametrize(
        "kinds", [("addition",), ("multiplication",), ("addition", "multiplication")]
    )
    def test_one_wrong_entry_is_named(self, monkeypatch, q, rank, kinds):
        cfg = CurveConfig(q, rank)
        elements = packed_group_ring_elements(cfg)
        i, j = 5, len(elements) - 3
        for kind in kinds:
            name = {"addition": "element_add", "multiplication": "element_mul"}[kind]
            monkeypatch.setattr(verify, name, _wrong_once(getattr(verify, name), elements, i, j))
        report = check_ring_iso(cfg)
        assert report.roundtrip_ok and report.injective
        assert report.mismatches == tuple(
            f"{kind} mismatch at {_element(cfg, i)}, {_element(cfg, j)}" for kind in kinds
        )
        assert not report.passed

    @pytest.mark.parametrize("q", (1, 3))
    @pytest.mark.parametrize("rank", (0, 1))
    def test_roundtrip_fault_is_reported(self, monkeypatch, q, rank):
        # The group-ring engine reads the last representative as zero.
        cfg = CurveConfig(q, rank)
        last = packed_representative(cfg._ring_law, packed_group_ring_elements(cfg)[-1])
        coordinates = verify.packed_coordinates
        monkeypatch.setattr(
            verify,
            "packed_coordinates",
            lambda law, rep: 0 if rep == last else coordinates(law, rep),
        )
        report = check_ring_iso(cfg)
        assert not report.roundtrip_ok
        assert report.injective
        assert report.mismatches == ("from_group_ring does not invert to_group_ring",)
        assert not report.passed

    @pytest.mark.parametrize("rank", (0, 1))
    def test_a_row_failing_on_spread_summaries_only_is_reported(self, monkeypatch, rank):
        # A codec fault fails every table entry although each entry holds.
        # The pairs are named from the spread decisions, so the report holds
        # the first pairs of row 0, the addition of each pair before its
        # multiplication.
        summary = verify._Spreads.summary
        monkeypatch.setattr(
            verify._Spreads, "summary", lambda self, key: summary(self, key)._replace(rank=1)
        )
        cfg = CurveConfig(3, rank)
        report = check_ring_iso(cfg)
        assert not report.passed
        assert report.injective
        x = _element(cfg, 0)
        assert report.mismatches == tuple(
            f"{kind} mismatch at {x}, {_element(cfg, j)}"
            for j in range(verify.MAX_MISMATCHES // 2)
            for kind in ("addition", "multiplication")
        )

    @pytest.mark.parametrize("rank", (0, 1))
    @pytest.mark.parametrize(
        "name, kind", [("element_add", "addition"), ("element_mul", "multiplication")]
    )
    def test_table_fault_is_reported(self, monkeypatch, rank, name, kind):
        monkeypatch.setattr(verify, name, _drop_minus_one(getattr(verify, name)))
        report = check_ring_iso(CurveConfig(3, rank))
        assert not report.passed
        assert report.mismatches
        assert all(m.startswith(f"{kind} mismatch at ") for m in report.mismatches)

    @pytest.mark.parametrize("rank", (0, 1))
    def test_rank_one_suite_catches_a_wrong_tensor_summary(self, monkeypatch, rank):
        times, shifted = Summary.times, _shift_ramified(1)
        monkeypatch.setattr(Summary, "times", shifted)
        report = rank_one_group_structure(CurveConfig(3, rank))
        assert not report.passed
        assert not report.exponent_two
        assert not report.homomorphism_ok
        # Wrong off the diagonal only: the squares g * g still decide exponent two.
        monkeypatch.setattr(Summary, "times", lambda a, b: (times if a == b else shifted)(a, b))
        report = rank_one_group_structure(CurveConfig(3, rank))
        assert not report.passed
        assert report.exponent_two
        assert not report.homomorphism_ok


@pytest.mark.parametrize("view", (ResidueWittClass, GroupRingElement))
def test_config_mismatch_prints_a_huge_rank_as_its_bit_length(view):
    # At the largest rank each config prints in full.
    x = view.one(CurveConfig(3, 4096))
    y = view.one(CurveConfig(1, 4096))
    for op in (operator.add, operator.mul):
        with pytest.raises(ValueError) as exc:
            op(x, y)
        assert str(exc.value) == (
            "config mismatch: CurveConfig(q_mod_4=3, picard_rank=4096) "
            "!= CurveConfig(q_mod_4=1, picard_rank=4096)"
        )


def test_element_rejects_components_of_two_configs():
    with pytest.raises(ValueError) as exc:
        GroupRingElement(
            ResidueWittClass.zero(CurveConfig(3, 1)), ResidueWittClass.zero(CurveConfig(1, 1))
        )
    assert str(exc.value) == "config mismatch: mixed group ring components"


def _foreign_arguments():
    """(call, message, value): each call takes one value where it needs a
    group-ring view or a config, the message formatted with the value's type
    name.  The form and the other view have a config and a packed value, as
    the view that is needed does; <1,s> used to give from_group_ring <s*pi>."""
    cfg = CurveConfig(3, 1)
    form = parse_form("<1,s>", cfg)
    element = GroupRingElement.one(cfg)
    residue = ResidueWittClass.one(cfg)
    cases = [
        ("from_group_ring", from_group_ring,
         "from_group_ring() takes a GroupRingElement, got {}", [form, residue]),
        ("inclusion", inclusion, "inclusion() takes a ResidueWittClass, got {}", [form, element]),
        ("GroupRingElement-a", lambda v: GroupRingElement(v, residue),
         "GroupRingElement() takes two ResidueWittClass, got {} and ResidueWittClass",
         [form, element]),
        ("GroupRingElement-b", lambda v: GroupRingElement(residue, v),
         "GroupRingElement() takes two ResidueWittClass, got ResidueWittClass and {}",
         [form, element]),
        ("ResidueWittClass", lambda v: ResidueWittClass(v, 0, 0, 0),
         "ResidueWittClass() takes a CurveConfig, got {}", [form, element]),
    ]
    for name, call, message, wrong in cases:
        for value in [1, None, *wrong]:
            yield pytest.param(call, message, value, id=f"{name}-{type(value).__name__}")


@pytest.mark.parametrize("call, message, value", _foreign_arguments())
def test_a_foreign_argument_raises_type_error(call, message, value):
    with pytest.raises(TypeError) as exc:
        call(value)
    assert str(exc.value) == message.format(type(value).__name__)


def test_residue_class_count_matches_square_root_of_total(cfg):
    assert len(enumerate_residue_classes(cfg)) ** 2 == len(
        enumerate_group_ring_elements(cfg)
    )


def test_residue_requires_pi_free_generators(q3r1):
    with pytest.raises(ValueError, match="pi-free"):
        ResidueWittClass.from_generators(q3r1, (Generator.pi(1),))


def test_from_generators_rejects_a_generator_of_another_rank():
    with pytest.raises(ValueError, match="config mismatch"):
        ResidueWittClass.from_generators(CurveConfig(3, 2), [Generator(0, 0, 1, 1)])
    with pytest.raises(
        ValueError, match="^config mismatch: entry line bundle rank 1 != picard_rank 4096$"
    ):
        ResidueWittClass.from_generators(CurveConfig(3, 4096), [Generator(0, 0, 1, 1)])
