"""Tests for the rank bounds of the verification suites, their failure
reports, and the spread summaries that check_ring_iso decides its tables on."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittcurve import (
    CurveConfig,
    rank_one_group_structure,
    verify_generator_relations,
    verify_quaternion_distinctness,
)
from wittcurve import verify
from wittcurve.forms import Summary, quaternion_norm_form, summarize
from wittcurve.group_ring import (
    packed_group_ring_elements,
    packed_representative,
    packed_residue_classes,
)

from helpers import pairwise_relations


@pytest.mark.parametrize(
    "suite, name",
    [
        (verify_quaternion_distinctness, "quaternion distinctness suite"),
        (rank_one_group_structure, "rank-1 structure suite"),
        (verify_generator_relations, "generator relation suite"),
    ],
)
def test_suite_rejects_a_rank_above_its_bound(suite, name):
    assert verify.SUITE_RANK_BOUND == 7
    with pytest.raises(ValueError) as exc:
        suite(CurveConfig(3, verify.SUITE_RANK_BOUND + 1))
    assert str(exc.value) == f"bound exceeded: {name} needs picard_rank <= 7, got 8"
    # The largest rank a configuration takes is refused unrun.
    with pytest.raises(ValueError) as exc:
        suite(CurveConfig(3, 4096))
    assert str(exc.value) == f"bound exceeded: {name} needs picard_rank <= 7, got 4096"


def _summaries(bits):
    disc = st.integers(0, 2**bits - 1)
    count = st.integers(0, 20)
    return st.builds(Summary, count, count, disc, disc)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    rank=st.integers(0, verify.RING_ISO_RANK_BOUND),
    minus_one=st.integers(0, 1),
)
def test_masked_sum_of_three_spreads_is_the_summed_summary(data, rank, minus_one):
    bits = rank + 2
    spreads = verify._Spreads(minus_one, bits)
    a, b, c = (data.draw(_summaries(bits)) for _ in range(3))
    total = sum(map(spreads.spread, (a, b, c)))
    assert spreads.summary(total & spreads.keep) == a.plus(b).plus(c)


@pytest.mark.parametrize("q", (1, 3))
def test_table_totals_fit_their_counters_at_the_rank_bound(q):
    # The largest count any table total reaches: an addition total adds three
    # representatives' summaries, a product total four products of component
    # summaries and one negated summary.
    cfg = CurveConfig(q, verify.RING_ISO_RANK_BOUND)
    law = cfg._ring_law
    w = cfg.picard_rank + 2
    summaries = [summarize(packed_representative(law, x)) for x in packed_group_ring_elements(cfg)]
    classes = packed_residue_classes(cfg)
    left = [summarize(packed_representative(law, c)) for c in classes]
    right = [summarize(packed_representative(law, d << w)) for d in classes]
    components = left + right
    rank = max(s.rank for s in summaries)
    largest = max(3 * rank, 4 * max(x.times(y).rank for x in components for y in components) + rank)
    assert largest == 20
    assert largest < 256
    assert all(s.ramified <= s.rank for s in summaries)


def _refusing(calls):
    """verify.summary_is_trivial with its decisions number calls (from 1) refused."""
    decide = verify.summary_is_trivial
    count = itertools.count(1)
    return lambda summary, m: next(count) not in calls and decide(summary, m)


def test_relation_suite_names_each_refused_relation_in_order(monkeypatch):
    # The suite decides u, v, L, M in nested order and, for each, the residue
    # relation before the ramified one: 2 * 2 * 2 * 2 * 2 = 32 decisions at r = 1.
    monkeypatch.setattr(verify, "summary_is_trivial", _refusing({1, 6, 32}))
    report = verify_generator_relations(CurveConfig(3, 1))
    assert report.checked == 32
    assert report.failures == (
        "residue relation failed at <1,1>",
        "ramified relation failed at <pi*L1,pi>",
        "ramified relation failed at <s*pi*L1,s*pi*L1>",
    )
    assert not report.passed


def test_relation_suite_counts_every_claim(monkeypatch, cfg):
    monkeypatch.setattr(verify, "summary_is_trivial", lambda summary, m: False)
    report = verify_generator_relations(cfg)
    assert report.checked == len(report.failures) == 8 * cfg.pic_order**2
    assert report.failures[:2] == (
        "residue relation failed at <1,1>",
        "ramified relation failed at <pi,pi>",
    )
    assert not report.passed


def test_relation_suite_agrees_with_equals_on_the_two_forms(cfg):
    # The suite decides each claim on the summary of one difference form;
    # the reference builds both sides and calls equals.
    report = verify_generator_relations(cfg)
    assert report == pairwise_relations(cfg)
    assert report.checked == 8 * cfg.pic_order**2 and report.passed


def test_quaternion_suite_reports_an_equal_pair(monkeypatch, cfg):
    expected = verify_quaternion_distinctness(cfg)
    assert expected.pairwise_distinct and expected.passed
    # The engine calls the norm forms of (s, pi) and (L1*...*Lr, pi) equal;
    # at r = 0 the second is (1, pi).
    pair = {
        quaternion_norm_form(cfg, 1, 0).packed,
        quaternion_norm_form(cfg, 0, cfg.pic_order - 1).packed,
    }
    equals = verify.equals
    monkeypatch.setattr(
        verify, "equals", lambda e, f: {e.packed, f.packed} == pair or equals(e, f)
    )
    report = verify_quaternion_distinctness(cfg)
    assert report.class_count == expected.class_count == 2 * cfg.pic_order
    assert not report.pairwise_distinct
    assert report.trivial_symbols == expected.trivial_symbols == ("(1, pi)",)
    assert not report.passed


def test_quaternion_suite_fails_on_a_second_trivial_form(monkeypatch, cfg):
    # The engine calls the norm form of (s, pi) trivial too; the forms stay
    # pairwise distinct, so only the trivial symbols fail the suite.
    second = quaternion_norm_form(cfg, 1, 0).packed
    is_trivial = verify.is_trivial
    monkeypatch.setattr(
        verify, "is_trivial", lambda form: form.packed == second or is_trivial(form)
    )
    report = verify_quaternion_distinctness(cfg)
    assert report.pairwise_distinct
    assert report.trivial_symbols == ("(1, pi)", "(s, pi)")
    assert not report.passed


def test_rank_one_suite_fails_on_two_classes_called_equal(monkeypatch, cfg):
    # The engine calls <1> and the last generator equal; every product
    # still agrees, so only classes_distinct fails the suite.
    m = cfg.minus_one
    gens = verify.enumerate_generators(cfg)
    p, q = gens[0].packed, gens[-1].packed
    equal = summarize((p,)).plus(summarize((q,)).negated(m))
    decide = verify.summary_is_trivial
    monkeypatch.setattr(
        verify, "summary_is_trivial", lambda summary, m: summary == equal or decide(summary, m)
    )
    report = rank_one_group_structure(cfg)
    assert p != q
    assert not report.classes_distinct
    assert report.homomorphism_ok and report.exponent_two
    assert report.order == 4 * cfg.pic_order
    assert not report.passed


def test_rank_one_suite_fails_on_a_wrong_generator_count(monkeypatch, cfg):
    # One generator listed twice: every class is distinct and every product
    # agrees, so only the count fails the suite.
    enumerate_generators = verify.enumerate_generators

    def repeating_one(c):
        gens = enumerate_generators(c)
        return gens + gens[:1]

    monkeypatch.setattr(verify, "enumerate_generators", repeating_one)
    report = rank_one_group_structure(cfg)
    assert report.order == 4 * cfg.pic_order + 1
    assert report.classes_distinct and report.exponent_two and report.homomorphism_ok
    assert not report.passed
