"""Tests for the Witt-class decisions: triviality and equality (engine),
canonical shapes and the census (group_ring)."""

import importlib
import itertools
import random
import sys
import time
from pathlib import Path

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
    Shape,
    canonical_form,
    check_ring_iso,
    enumerate_classes,
    enumerate_generators,
    equals,
    hasse_invariant,
    invariant_profile,
    is_trivial,
    parse_form,
    quaternion_norm_form,
    rank_one_group_structure,
    splitting_map,
    symbol,
    to_group_ring,
    verify_generator_relations,
    verify_quaternion_distinctness,
    witt_invariant,
)
from wittcurve import verify
from wittcurve.engine import summary_is_trivial
from wittcurve.group_ring import packed_coordinates

from helpers import (
    assert_same_view,
    enumerated_census,
    generator_alphabet,
    hyperbolic_pair,
    pairwise_hasse_sum,
    random_form,
    random_generator,
    residue_class_of,
    revalidated,
    scan_hasse_sum,
)


def _neg(cfg, g: Generator) -> Generator:
    return Generator(g.unit ^ cfg.minus_one, g.pi_exp, g.mask, g.rank)


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
            form = quaternion_norm_form(cfg, g.unit, g.mask)
            expected_trivial = g.unit == 0 and g.mask == 0
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
        units = (0, 1)
        for u_s, u_t, line, line_m in itertools.product(
            units, units, range(cfg.pic_order), range(cfg.pic_order)
        ):
            s_l = Generator(u_s, 0, line, cfg.picard_rank)
            t_m = Generator(u_t, 0, line_m, cfg.picard_rank)
            lhs = DiagonalForm(cfg, (one, _neg(cfg, s_l), t_m, pi, _neg(cfg, pi * s_l)))
            rhs = DiagonalForm(cfg, (s_l * t_m, pi, _neg(cfg, pi * s_l)))
            assert equals(lhs, rhs)

    def test_ramified_discriminant_case(self, q):
        # <1, -sL, t*pi*M, pi, -pi*sL> = <1, -sL, st*pi*LM>
        cfg = CurveConfig(q, 1)
        pi = Generator.pi(1)
        one = Generator.one(1)
        units = (0, 1)
        for u_s, u_t, line, line_m in itertools.product(
            units, units, range(cfg.pic_order), range(cfg.pic_order)
        ):
            s_l = Generator(u_s, 0, line, cfg.picard_rank)
            t_pi_m = Generator(u_t, 1, line_m, cfg.picard_rank)
            lhs = DiagonalForm(cfg, (one, _neg(cfg, s_l), t_pi_m, pi, _neg(cfg, pi * s_l)))
            rhs = DiagonalForm(cfg, (one, _neg(cfg, s_l), s_l * t_pi_m))
            assert equals(lhs, rhs)


class TestInvariantProfile:
    def test_odd_rank_generator(self, q3r1, q1r1):
        for config in (q3r1, q1r1):
            profile = invariant_profile(parse_form("<s*L1>", config))
            assert profile.rank_parity == 1
            expected = Generator(1 ^ config.minus_one, 0, 1, 1)
            assert profile.signed_disc == expected
            assert profile.witt_inv is None

    def test_kernel_ideal_generator(self, cfg):
        profile = invariant_profile(parse_form("<1,-pi>", cfg))
        assert profile.rank_parity == 0
        assert profile.signed_disc == Generator(0, 1, 0, cfg.picard_rank)
        assert profile.witt_inv is None

    def test_norm_form(self, q3r1):
        form = quaternion_norm_form(q3r1, 1, 1)
        profile = invariant_profile(form)
        assert profile.rank_parity == 0
        assert profile.signed_disc.is_trivial
        assert profile.witt_inv == BrauerClass(1, 1, 1)


class TestCanonicalForm:
    def test_zero(self, cfg):
        shape = canonical_form(parse_form("<1,-1>", cfg))
        assert shape.tag is Shape.ZERO
        assert shape.payload.rank == 0

    def test_is_zero_exactly_for_the_zero_shape(self, cfg):
        assert canonical_form(parse_form("<1,-1>", cfg)).is_zero
        assert canonical_form(DiagonalForm.zero(cfg)).is_zero
        assert not canonical_form(parse_form("<1>", cfg)).is_zero
        assert not canonical_form(parse_form("<pi,-1>", cfg)).is_zero

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

    @pytest.mark.parametrize("q", (1, 3))
    @pytest.mark.parametrize("rank", (0, 1, 2, 3, 4))
    def test_closed_form_matches_enumeration(self, q, rank):
        cfg = CurveConfig(q, rank)
        census = enumerate_classes(cfg)
        assert (census.total, census.shape_counts) == enumerated_census(cfg)

    def test_rank_bound(self):
        # The census takes every rank a configuration takes; its total at the
        # largest has 2468 digits, within the default limit of 4300.
        census = enumerate_classes(CurveConfig(3, 4096))
        assert census.total == 16 * 4**4096
        assert len(str(census.total)) == 2468
        assert census.nontrivial_total == census.total - 1
        with pytest.raises(ValueError, match="^picard_rank must be <= 4096, got 4097$"):
            enumerate_classes(CurveConfig(3, 4097))

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
        a = quaternion_norm_form(q3r1, 1, 0)
        b = quaternion_norm_form(q3r1, 1, 1)
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


def _draw_strategies(data, q_values=(1, 3)):
    """A configuration, at q in q_values and rank 0, 1, 2 or 16, with
    strategies for its generators and for forms of up to 32 of them."""
    cfg = CurveConfig(
        data.draw(st.sampled_from(q_values), label="q_mod_4"),
        data.draw(st.sampled_from((0, 1, 2, 16)), label="picard_rank"),
    )
    rank = cfg.picard_rank
    generator = st.builds(
        lambda u, e, mask: Generator(u, e, mask, rank),
        st.integers(0, 1),
        st.integers(0, 1),
        # small masks too, so that entries repeat at rank 16
        st.one_of(st.integers(0, min(3, (1 << rank) - 1)), st.integers(0, (1 << rank) - 1)),
    )
    forms = st.lists(generator, max_size=32).map(lambda gs: DiagonalForm(cfg, tuple(gs)))
    return cfg, generator, forms


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_engines_agree_property(data):
    # The invariant engine (equals) against the group-ring engine, on random
    # pairs, on Witt-equal pairs e and a shuffled e + <g,-g>, and on near
    # misses that also change one entry of e.
    cfg, generator, forms = _draw_strategies(data)
    e = data.draw(forms, label="e")
    kind = data.draw(st.sampled_from(("random", "hyperbolic", "near miss")), label="kind")
    if kind == "random":
        f = data.draw(forms, label="f")
    else:
        entries = list(e.entries)
        if kind == "near miss" and entries:
            at = data.draw(st.integers(0, len(entries) - 1), label="changed entry")
            entries[at] = data.draw(generator, label="new entry")
        entries += hyperbolic_pair(cfg, data.draw(generator, label="g")).entries
        f = DiagonalForm(cfg, tuple(data.draw(st.permutations(entries), label="order")))
    same = equals(e, f)
    assert same == (to_group_ring(e) == to_group_ring(f))
    assert same == (canonical_form(e) == canonical_form(f))
    if kind == "hyperbolic":
        assert same


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_views_equal_the_validated_ones(data):
    # Every view an engine builds from packed ints equals, in ==, hash, str,
    # repr and pickle, the view the validating constructor builds from the
    # same coordinates; that constructor refuses a coordinate out of range.
    cfg, generator, forms = _draw_strategies(data)
    e = data.draw(forms, label="e")
    f = data.draw(forms, label="f")
    g = data.draw(generator, label="g")
    h = data.draw(generator, label="h")
    profile = invariant_profile(e)
    x, y = to_group_ring(e), to_group_ring(f)
    u, v = splitting_map(e), splitting_map(f)
    views = [
        *e.entries,
        e.discriminant(),
        e.signed_discriminant(),
        profile.signed_disc,
        symbol(cfg, g, h),
        hasse_invariant(e),
        hasse_invariant(e) + hasse_invariant(f),
        g * h,
        x, x + y, -x, x * y,
        u, u + v, -u, u * v,
    ]
    if profile.witt_inv is not None:
        views.append(profile.witt_inv)
    for view in views:
        assert_same_view(view, revalidated(view))


# Every module of the package that might bind a coordinate check.
MODULES = sorted(
    p.stem
    for p in (Path(__file__).resolve().parent.parent / "src" / "wittcurve").glob("*.py")
    if p.stem not in ("__init__", "__main__")
)


def test_hot_paths_do_not_revalidate(monkeypatch):
    # Views built from packed ints are checked once in from_packed; the
    # coordinate checks stay off the hot path.
    calls = []
    for name in MODULES:
        module = importlib.import_module(f"wittcurve.{name}")
        for check in ("check_bit", "check_mask"):
            if hasattr(module, check):

                def counted(*args, _check=getattr(module, check), _name=check):
                    calls.append(_name)
                    return _check(*args)

                monkeypatch.setattr(module, check, counted)
    cfg = CurveConfig(3, 2)
    form = parse_form("<1,s*L1,pi*L2,s*pi,L1*L2,pi,-1,-s>", cfg)
    g, h = form.entries[:2]
    to_group_ring(form)
    splitting_map(form)
    invariant_profile(form)
    invariant_profile(parse_form("<1,-1>", cfg))
    form.entries
    g * h
    assert calls == []
    # The counters count: the coordinate constructor checks each coordinate.
    Generator(0, 1, 2, 2)
    assert calls == ["check_bit", "check_bit", "check_mask"]


@pytest.mark.parametrize("q", (1, 3))
@pytest.mark.parametrize("rank", (0, 1))
def test_ring_check_calls_each_operation_once_per_row(monkeypatch, q, rank):
    # check_ring_iso fills a table row with one call of each operation, so
    # it makes 16n^2 calls of each, not one per pair, and still checks
    # (16n^2)^2 pairs of each table.
    calls = dict.fromkeys(("element_add", "element_mul"), 0)
    for name in calls:

        def counted(*args, _operation=getattr(verify, name), _name=name):
            calls[_name] += 1
            return _operation(*args)

        monkeypatch.setattr(verify, name, counted)
    cfg = CurveConfig(q, rank)
    report = check_ring_iso(cfg)
    count = 16 * cfg.pic_order**2
    assert report.passed
    assert report.addition_pairs_checked == report.multiplication_pairs_checked == count**2
    assert calls == {"element_add": count, "element_mul": count}


def _reference_signed_discriminant(form: DiagonalForm) -> Generator:
    """The product of the entries on Generator objects, twisted by
    (-1)^(rank*(rank+1)/2)."""
    cfg = form.config
    disc = Generator.one(cfg.picard_rank)
    for g in form.entries:
        disc = disc * g
    twist = (form.rank * (form.rank + 1) // 2) & 1 & cfg.minus_one
    return Generator(disc.unit ^ twist, disc.pi_exp, disc.mask, disc.rank)


def _reference_is_trivial(form: DiagonalForm, hasse_sum) -> bool:
    """Even rank, trivial signed discriminant and trivial Hasse sum, each
    computed entry by entry on Generator objects."""
    signed = _reference_signed_discriminant(form)
    return form.rank % 2 == 0 and signed.is_trivial and hasse_sum(form).is_trivial


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_summary_decision_agrees_with_symbol_oracles(data):
    # is_trivial reads the summary; the oracles are the pairwise symbol sum
    # and the one-scan Hasse loop.  Besides random forms, the Witt-trivial
    # e + (-e) and the difference of e and a shuffled e + <g,-g>.
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
    e = DiagonalForm(cfg, data.draw(st.lists(generator, max_size=24), label="e"))
    kind = data.draw(st.sampled_from(("random", "e + (-e)", "hyperbolic")), label="kind")
    if kind == "random":
        form = e
    elif kind == "e + (-e)":
        form = e + (-e)
    else:
        padded = list((e + hyperbolic_pair(cfg, data.draw(generator, label="g"))).entries)
        padded = DiagonalForm(cfg, data.draw(st.permutations(padded), label="order"))
        assert equals(e, padded) and equals(padded, e)
        form = e + (-padded)
    expected = _reference_is_trivial(form, pairwise_hasse_sum)
    assert expected == _reference_is_trivial(form, scan_hasse_sum)
    assert is_trivial(form) == expected
    if kind != "random":
        assert expected
    assert hasse_invariant(form) == pairwise_hasse_sum(form) == scan_hasse_sum(form)


# The sign twist (-1)^(k*(k+1)/2) of k entries depends on k mod 4, so each
# case takes c pi-free and d ramified entries, c + d <= 12, with (c, d)
# congruent mod 4 to the case.
@pytest.mark.parametrize("counts_mod_4", list(itertools.product(range(4), repeat=2)), ids=str)
@pytest.mark.parametrize("q", (1, 3))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_sign_twist_at_every_count_mod_4(data, q, counts_mod_4):
    cfg, generator, _ = _draw_strategies(data, (q,))
    c_mod, d_mod = counts_mod_4
    c = data.draw(st.sampled_from(range(c_mod, 13 - d_mod, 4)), label="pi-free count")
    d = data.draw(st.sampled_from(range(d_mod, 13 - c, 4)), label="ramified count")
    rank = cfg.picard_rank

    def draw_entries(pi_exp, count, label):
        with_pi_exp = generator.map(lambda g: Generator(g.unit, pi_exp, g.mask, rank))
        return data.draw(st.lists(with_pi_exp, min_size=count, max_size=count), label=label)

    pi_free = draw_entries(0, c, "pi-free")
    ramified = draw_entries(1, d, "ramified")
    entries = data.draw(st.permutations(pi_free + ramified), label="order")
    m = cfg.minus_one

    # The group-ring coordinates against residue classes built entry by entry.
    unramified = [Generator(g.unit, 0, g.mask, rank) for g in ramified]
    expected = (
        residue_class_of(cfg, pi_free).packed
        | residue_class_of(cfg, unramified).packed << rank + 2
    )
    assert packed_coordinates(cfg._ring_law, [g.packed for g in entries]) == expected

    # The summary decision against the reference, also after the last entry
    # takes on the signed discriminant: that keeps both counts and, when d is
    # even, leaves the Hasse sum to decide.
    form = DiagonalForm(cfg, entries)
    forms = [form]
    signed = _reference_signed_discriminant(form)
    if entries and not signed.pi_exp:
        forms.append(DiagonalForm(cfg, entries[:-1] + [entries[-1] * signed]))
    for f in forms:
        assert summary_is_trivial(f.summary, m) == _reference_is_trivial(f, pairwise_hasse_sum)


# Anything but a form, among them the group-ring views, which have a config
# and a packed value as a form does.
NOT_FORMS = [
    1,
    None,
    GroupRingElement.one(CurveConfig(3, 1)),
    ResidueWittClass.one(CurveConfig(3, 1)),
]


@pytest.mark.parametrize("value", NOT_FORMS, ids=lambda v: type(v).__name__)
@pytest.mark.parametrize(
    "function",
    [
        is_trivial,
        canonical_form,
        invariant_profile,
        to_group_ring,
        splitting_map,
        hasse_invariant,
        witt_invariant,
    ],
    ids=lambda f: f.__name__,
)
def test_form_functions_refuse_anything_but_a_form(function, value):
    with pytest.raises(TypeError) as exc:
        function(value)
    name = type(value).__name__
    assert str(exc.value) == f"{function.__name__}() takes a DiagonalForm, got {name}"


@pytest.mark.parametrize("value", NOT_FORMS, ids=lambda v: type(v).__name__)
def test_equals_refuses_anything_but_two_forms(value):
    form = parse_form("<1,pi>", CurveConfig(3, 1))
    for e, f in ((form, value), (value, form)):
        with pytest.raises(TypeError) as exc:
            equals(e, f)
        assert str(exc.value) == (
            f"equals() takes two DiagonalForm, got {type(e).__name__} and {type(f).__name__}"
        )


def _python_frames(call) -> list[str]:
    """Names of the Python functions that call() enters, call itself not
    counted: the "call" events of sys.setprofile, which also count each
    resume of a generator."""
    names = []

    def profile(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(previous)
    return names[1:]


# The Python frames of each library call on a warm 8-entry form, and of each
# view operator on views of it, the called function included.  A helper added
# on one of these paths fails here.
HOT_PATH_FRAMES = {
    "parse_form": 3,
    "parse_form('<>')": 2,
    "parse_form (tab, L01)": 3,
    "equals": 8,
    "canonical_form": 7,
    "invariant_profile": 7,
    "splitting_map": 4,
    "to_group_ring(e * f)": 6,
    "x * y": 4,
    "x + y": 4,
    "-x": 3,
    "x.a": 2,
    "str(x)": 5,
    "a * b": 4,
    "g * h": 1,
    "b + c": 1,
    "symbol": 2,
    "g == h": 1,
    "hash(g)": 1,
    "a == b": 1,
}


def test_hot_paths_open_few_frames():
    cfg = CurveConfig(3, 2)
    # In I^2 with a nontrivial Clifford class, and both group-ring components
    # even and nonzero: every branch of the calls below runs.
    form = parse_form("<s*pi*L1,pi*L1,s,s*pi*L2,s*L1,s*pi*L2,s*pi*L1*L2,pi*L2>", cfg)
    assert not invariant_profile(form).witt_inv.is_trivial
    assert canonical_form(form).tag is Shape.EVEN_EVEN
    x = to_group_ring(form)
    y = GroupRingElement.one(cfg)
    a, b = x.a, x.b
    # The label table learns the texts of x's components.
    str(x)
    g, h = form.entries[:2]
    c = invariant_profile(form).witt_inv
    # A small, singly spaced text whose terms the config has seen.
    text = "<s*L1, -pi*L2*s, L1*L2, pi>"
    parse_form(text, cfg)
    # Unusual spellings, few enough that the config keeps its table.
    unusual = "<s\t*L1, L01, pi  * L2>"
    parse_form(unusual, cfg)
    calls = {
        "parse_form": lambda: parse_form(text, cfg),
        "parse_form('<>')": lambda: parse_form("<>", cfg),
        "parse_form (tab, L01)": lambda: parse_form(unusual, cfg),
        "equals": lambda: equals(form, form),
        "canonical_form": lambda: canonical_form(form),
        "invariant_profile": lambda: invariant_profile(form),
        "splitting_map": lambda: splitting_map(form),
        "to_group_ring(e * f)": lambda: to_group_ring(form * form),
        "x * y": lambda: x * y,
        "x + y": lambda: x + y,
        "-x": lambda: -x,
        "x.a": lambda: x.a,
        "str(x)": lambda: str(x),
        "a * b": lambda: a * b,
        "g * h": lambda: g * h,
        "b + c": lambda: c + c,
        "symbol": lambda: symbol(cfg, g, h),
        "g == h": lambda: g == h,
        "hash(g)": lambda: hash(g),
        "a == b": lambda: a == b,
    }
    for name, call in calls.items():
        frames = _python_frames(call)
        assert len(frames) == HOT_PATH_FRAMES[name], (name, frames)
    assert cfg._terms is not None
