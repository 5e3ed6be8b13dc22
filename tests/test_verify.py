"""Tests for the rank bounds of the verification suites and for the spread
summaries that check_ring_iso decides its tables on."""

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
from wittcurve.forms import Summary, summarize
from wittcurve.group_ring import (
    packed_group_ring_elements,
    packed_representative,
    packed_residue_classes,
)
from wittcurve.groups import minus_one_class


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
    # Past the int-to-string limit the rank prints as its bit length.
    with pytest.raises(ValueError) as exc:
        suite(CurveConfig(3, 10**5000))
    assert str(exc.value) == (
        f"bound exceeded: {name} needs picard_rank <= 7, got <int of 16610 bits>"
    )


def _summaries(bits):
    disc = st.integers(0, 2**bits - 1)
    count = st.integers(0, 20)
    return st.builds(Summary, count, count, disc, disc)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), rank=st.integers(0, verify.RING_ISO_RANK_BOUND))
def test_masked_sum_of_three_spreads_is_the_summed_summary(data, rank):
    bits = rank + 2
    table = verify._spread_table(bits)
    a, b, c = (data.draw(_summaries(bits)) for _ in range(3))
    total = sum(verify._spread(s, bits, table) for s in (a, b, c))
    assert verify._unspread(total & verify._keep(bits, table), bits) == a.plus(b).plus(c)


@pytest.mark.parametrize("q", (1, 3))
def test_table_totals_fit_their_counters_at_the_rank_bound(q):
    # The largest count any table total reaches: an addition total adds three
    # representatives' summaries, a product total two products by component
    # summaries and one negated summary.
    cfg = CurveConfig(q, verify.RING_ISO_RANK_BOUND)
    m = minus_one_class(cfg)
    summaries = [summarize(packed_representative(m, x)) for x in packed_group_ring_elements(cfg)]
    classes = packed_residue_classes(cfg)
    left = [summarize(packed_representative(m, (c, 0))) for c in classes]
    right = [summarize(packed_representative(m, (0, d))) for d in classes]
    rank = max(s.rank for s in summaries)
    largest = max(
        3 * rank,
        max(
            max(x.times(a).rank for a in left) + max(x.times(b).rank for b in right)
            for x in summaries
        )
        + rank,
    )
    assert largest == 20
    assert largest < 256
    assert all(s.ramified <= s.rank for s in summaries)
