"""Property and fuzz tests of the form parser."""

import pickle
import random
import sys
import threading
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittcurve import (
    CurveConfig,
    DiagonalForm,
    Generator,
)
from wittcurve import syntax
from wittcurve.groups import MAX_PICARD_RANK, label
from wittcurve.syntax import FormSyntaxError, _parse_with_cursor, parse_form

CONFIGS = st.builds(
    CurveConfig, st.sampled_from((1, 3)), st.sampled_from((0, 1, 2, 16))
)

WHITESPACE = " \t\n\x1c"
# The characters of the syntax, whitespace, and a few that never belong.
ALPHABET = "<>⟨⟩,-*1spiL0123456789" + WHITESPACE + "x#² ;q"
TOKENS = ["<", ">", "⟨", "⟩", ",", "-", "*", "1", "s", "pi", "p", "L", "L1",
          "L2", "L16", "L17", "L01", "0", "9", " ", "\t", "\x1c", "x", "q", "²",
          "0" * 40, "9" * 25, "L" + "0" * 40 + "2", "- ", " * ", " , "]
TEXTS = st.one_of(
    st.text(alphabet=ALPHABET, max_size=40),
    st.lists(st.sampled_from(TOKENS), max_size=30).map("".join),
)


def generators(rank: int):
    return st.builds(
        lambda u, e, mask: Generator(u, e, mask, rank),
        st.integers(0, 1),
        st.integers(0, 1),
        st.integers(0, (1 << rank) - 1),
    )


def respell(form: DiagonalForm, rng: random.Random) -> str:
    """A random spelling of a form that parses back to it.

    Each entry may take a '-' (with its unit term adjusted), gets its terms
    shuffled, may gain redundant '1' terms and zero-padded labels, and every
    separator gets random whitespace on both sides.
    """
    minus = form.config.minus_one
    rank = form.config.picard_rank

    def ws() -> str:
        return "".join(rng.choice(WHITESPACE) for _ in range(rng.randint(0, 2)))

    spelled = []
    for g in form.entries:
        sign = rng.random() < 0.5
        terms = ["s"] * (g.unit ^ (sign & minus)) + ["pi"] * g.pi_exp
        terms += [
            "L" + "0" * rng.randint(0, 2) + str(i + 1)
            for i in range(rank)
            if g.mask >> i & 1
        ]
        terms += ["1"] * rng.randint(0 if terms else 1, 2)
        rng.shuffle(terms)
        entry = terms[0] + "".join(ws() + "*" + ws() + term for term in terms[1:])
        if sign:
            entry = "-" + ws() + entry
        spelled.append(ws() + entry + ws())
    return ws() + rng.choice("<⟨") + ",".join(spelled) + ws() + rng.choice(">⟩") + ws()


@st.composite
def spelled_forms(draw, max_entries=8):
    cfg = draw(CONFIGS, label="config")
    entries = draw(
        st.lists(generators(cfg.picard_rank), max_size=max_entries), label="entries"
    )
    form = DiagonalForm(cfg, tuple(entries))
    # A seeded Random rather than st.randoms(): shrinking a failure then
    # stays quick.
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    return respell(form, random.Random(seed)), cfg, form


@st.composite
def damaged_spellings(draw):
    """A spelled form with one character inserted, deleted or replaced."""
    text, cfg, _ = draw(spelled_forms(max_entries=4))
    at = draw(st.integers(0, len(text)))
    ch = draw(st.sampled_from(ALPHABET))
    edit = draw(st.sampled_from(("insert", "delete", "replace")))
    if edit == "insert":
        text = text[:at] + ch + text[at:]
    elif edit == "delete":
        text = text[:at] + text[at + 1:]
    else:
        text = text[:at] + ch + text[at + 1:]
    return text, cfg


# Terms the syntax takes (some only at the head of an entry, some only at
# rank 16 or 4096) and terms one step away from it.
TERMS = ["1", "s", "pi", "L1", "L2", "L16", "L01", "L" + "0" * 30 + "1", "-1",
         "- s", "-\x1cpi", "L", "L0", "L00", "L17", "L99999", "L" + "9" * 30,
         "p", "i", "p i", "", "--1", "-", "1 1", "q", "L²", "L1x", "Ls", "0",
         "L4096", "L04096", "L4097", "L04097"]
ALMOST_FORMS = st.builds(
    lambda entries, space: "<" + ",".join(
        (space + "*" + space).join(terms) for terms in entries
    ) + ">",
    st.lists(st.lists(st.sampled_from(TERMS), min_size=1, max_size=3), max_size=4),
    st.sampled_from(("", " ", "\t")),
)

DIFFERENTIAL_CASES = st.one_of(
    st.tuples(TEXTS, CONFIGS),
    st.tuples(ALMOST_FORMS, CONFIGS),
    spelled_forms().map(lambda case: case[:2]),
    damaged_spellings(),
)


def _outcome(parse, text, cfg):
    try:
        return parse(text, cfg)
    except FormSyntaxError as err:
        return str(err), err.position


@settings(max_examples=500, deadline=None)
@given(text=TEXTS, cfg=CONFIGS)
def test_parser_returns_a_form_or_raises_syntax_error(text, cfg):
    try:
        form = parse_form(text, cfg)
    except FormSyntaxError as err:
        assert 0 <= err.position <= len(text)
    else:
        assert isinstance(form, DiagonalForm)
        assert form.config == cfg


@settings(max_examples=600, deadline=None)
@given(case=DIFFERENTIAL_CASES)
def test_parse_form_agrees_with_cursor_parser(case):
    # The cursor parser is the reference: the same form, or the same error
    # message at the same position.
    text, cfg = case
    assert _outcome(parse_form, text, cfg) == _outcome(_parse_with_cursor, text, cfg)


@pytest.mark.parametrize("q", (1, 3))
# str() cannot print 10**5000, so that rank is given an id.
@pytest.mark.parametrize(
    "rank",
    (0, 1, 2, 16, 4095, 4096, 4097, 10**8, pytest.param(10**5000, id="10**5000")),
)
def test_each_term_in_each_place_agrees_with_cursor_parser(q, rank):
    if rank > MAX_PICARD_RANK:
        # No text reaches either parser at this rank.
        with pytest.raises(ValueError, match="^picard_rank must be <= 4096, got "):
            CurveConfig(q, rank)
        return
    cfg = CurveConfig(q, rank)
    for term in TERMS:
        for text in (f"<{term}>", f"<1,{term}>", f"< {term} *1>", f"<s* {term}>"):
            assert _outcome(parse_form, text, cfg) == _outcome(
                _parse_with_cursor, text, cfg
            ), text


@settings(max_examples=300, deadline=None)
@given(case=spelled_forms())
def test_spelling_parses_to_its_form(case):
    text, cfg, form = case
    assert parse_form(text, cfg) == form


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_printed_form_parses_back(data):
    cfg = data.draw(CONFIGS, label="config")
    entries = data.draw(st.lists(generators(cfg.picard_rank), max_size=64), label="entries")
    form = DiagonalForm(cfg, tuple(entries))
    assert parse_form(str(form), cfg) == form


@pytest.mark.parametrize("q", (1, 3))
def test_printed_form_parses_back_at_the_rank_bound(q):
    rng = random.Random(q)
    cfg = CurveConfig(q, MAX_PICARD_RANK)
    # L4096, random masks that reach it, and sparse bits near it.
    top = 1 << MAX_PICARD_RANK - 1
    masks = [top, top | 1] + [rng.getrandbits(MAX_PICARD_RANK) | top for _ in range(32)]
    masks += [1 << rng.randrange(4000, MAX_PICARD_RANK) for _ in range(32)]
    form = DiagonalForm(
        cfg,
        [Generator(rng.randint(0, 1), rng.randint(0, 1), m, MAX_PICARD_RANK) for m in masks],
    )
    assert "L4096" in str(form)
    assert parse_form(str(form), cfg) == form
    assert _parse_with_cursor(str(form), cfg) == form


def test_long_form_parses_in_bounded_memory():
    rng = random.Random(4096)
    cfg = CurveConfig(3, 16)
    form = DiagonalForm(
        cfg,
        tuple(
            Generator(
                rng.randint(0, 1),
                rng.randint(0, 1),
                rng.getrandbits(16),
                16,
            )
            for _ in range(4096)
        ),
    )
    text = respell(form, rng)
    tracemalloc.start()
    try:
        parsed = parse_form(text, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed == form
    # About 1.4 MB; one regular expression over the whole text took 13 MB.
    assert peak < 4 << 20


PATHOLOGICAL_TEXTS = [
    "<" + " " * 200_000 + "1>",
    "<" + "1*" * 100_000 + "1>",
    "<" + "1," * 100_000,
    "<L" + "0" * 100_000 + "1>",
    # 2^16 entries, fewer than the 4n = 2^18 distinct entries a form has at
    # r = 16, so no dedupe runs there: each copy is decided afresh, and the
    # label, longer than a kept spelling, goes through the table's
    # __missing__ each time.
    "<" + ",".join([" - s * pi "] * 65_536) + ">",
    "<" + ",".join(["L" + "0" * 20 + "1"] * 65_536) + ">",
]


@pytest.mark.parametrize(
    "text",
    PATHOLOGICAL_TEXTS,
    ids=["spaces", "terms", "unclosed", "zero-run", "signed-copies", "label-copies"],
)
@pytest.mark.parametrize("rank", (0, 16))
def test_long_pathological_text_is_linear(text, rank):
    start = time.perf_counter()
    try:
        parse_form(text, CurveConfig(3, rank))
    except FormSyntaxError:
        pass
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize(
    "text, cfg, got",
    [
        (1, CurveConfig(3, 1), "int and CurveConfig"),
        (b"<1>", CurveConfig(3, 1), "bytes and CurveConfig"),
        ("<1>", None, "str and NoneType"),
    ],
)
def test_foreign_argument_is_a_type_error(text, cfg, got):
    with pytest.raises(
        TypeError, match=rf"^parse_form\(\) takes a str and a CurveConfig, got {got}$"
    ):
        parse_form(text, cfg)


def test_rank_past_the_int_string_limit():
    # A rank of more than 4300 digits, which str() refuses, never reaches the
    # parser; at the largest rank a label too long for int() is refused unread.
    with pytest.raises(
        ValueError, match="^picard_rank must be <= 4096, got <int of 16610 bits>$"
    ):
        CurveConfig(3, 10**5000)
    cfg = CurveConfig(3, MAX_PICARD_RANK)
    assert parse_form("<1>", cfg) == DiagonalForm(cfg, (Generator.one(cfg.picard_rank),))
    assert str(parse_form("<s*L3, L01>", cfg)) == "<s*L3,L1>"
    for text in ("<L" + "9" * 4400 + ">", "<L" + "9" * 5001 + ">", "<L5000>", "<L0>"):
        for parse in (parse_form, _parse_with_cursor):
            with pytest.raises(FormSyntaxError, match="^unknown bundle label L"):
                parse(text, cfg)


@pytest.mark.parametrize(
    "rank",
    [0, 1, 9, 10, 99, 100, 4096, 10**8, 2**64, 10**100 - 1, 10**100,
     10**4299, 10**4300 - 1],
)
def test_label_digit_bound_is_the_rank_digit_count(rank):
    if rank > MAX_PICARD_RANK:
        with pytest.raises(ValueError, match="^picard_rank must be <= 4096, got "):
            CurveConfig(1, rank)
        return
    # A label of as many significant digits as the rank is read; one more
    # digit is refused unread.
    digits = len(str(rank))
    cfg = CurveConfig(1, rank)
    for parse in (parse_form, _parse_with_cursor):
        try:
            parse("<L" + "9" * digits + ">", cfg)
        except FormSyntaxError as err:
            assert str(err) == f"unknown bundle label L{'9' * digits} at position 1"
        with pytest.raises(FormSyntaxError, match=rf"\({digits + 1} digits\) at"):
            parse("<L" + "7" * (digits + 1) + ">", cfg)


# -- the term table of each configuration ------------------------------------------


def test_tables_do_not_outlive_a_call():
    # The same texts, alternately under both residue classes and two ranks:
    # what one call learned must not answer for the next.
    texts = ["<-s>", "<L2>", "<-s*L1, - s ,L2>", "< -1 >"]
    configs = [CurveConfig(q, r) for _ in range(3) for q in (1, 3) for r in (2, 1)]
    for cfg in configs:
        for text in texts:
            assert _outcome(parse_form, text, cfg) == _outcome(
                _parse_with_cursor, text, cfg
            ), (text, cfg)
        minus_s = parse_form("<-s>", cfg).packed
        assert minus_s == ((0,) if cfg.q_mod_4 == 3 else (1,))
        if cfg.picard_rank == 1:
            with pytest.raises(FormSyntaxError, match="^unknown bundle label L2 at position 1$"):
                parse_form("<L2>", cfg)
        else:
            assert parse_form("<L2>", cfg).packed == (1 << 3,)


def _assert_table_is_bounded(cfg: CurveConfig) -> None:
    table = cfg._terms
    if table is not None:
        assert len(table) <= 4 * (cfg.picard_rank + 3)
        assert max(map(len, table)) <= 16


# More distinct term spellings than a table at rank 16 may keep, each short
# enough to be kept: L1 to L16 with 0 to 4 spaces after.  (Spaces before an
# entry are stripped before its terms are looked up.)
OVERFLOWING = "<" + ",".join(f"L{i}" + " " * k for k in range(5) for i in range(1, 17)) + ">"


# Configurations whose term tables stay warm from one example to the next.
SHARED_CONFIGS = {(q, r): CurveConfig(q, r) for q in (1, 3) for r in (0, 1, 2, 16)}
# Labels in the usual spellings, each valid at some ranks of SHARED_CONFIGS only.
LABEL_TEXTS = ["<L1>", "<L2>", "< L16 >", "<s * L16, L2>", "<-L2 ,L1 * pi>", "<L17>"]


@settings(max_examples=300, deadline=None)
@given(
    cases=st.lists(
        st.one_of(DIFFERENTIAL_CASES, st.tuples(st.sampled_from(LABEL_TEXTS), CONFIGS)),
        min_size=1,
        max_size=6,
    )
)
def test_warm_shared_tables_agree_with_cursor_parser(cases):
    # Every shared configuration has seen every label text, so L16 is in the
    # table at rank 16 when rank 2 meets it.
    for cfg in SHARED_CONFIGS.values():
        for text in LABEL_TEXTS:
            _outcome(parse_form, text, cfg)
    for text, cfg in cases:
        shared = SHARED_CONFIGS[cfg.q_mod_4, cfg.picard_rank]
        assert _outcome(parse_form, text, shared) == _outcome(_parse_with_cursor, text, cfg)
        _assert_table_is_bounded(shared)


def test_equal_configs_parse_alike():
    a, b = CurveConfig(3, 2), CurveConfig(3, 2)
    texts = ["<s*L1, -pi*L2*s, L1*L2, pi>", "< -1 >", "<L01>", "<s\t* L2>", "<L3>"]
    for text in texts * 2:
        expected = _outcome(_parse_with_cursor, text, CurveConfig(3, 2))
        assert _outcome(parse_form, text, a) == _outcome(parse_form, text, b) == expected
    # Each config has its own table.
    assert a._terms is not None and b._terms is not None and a._terms is not b._terms


def test_term_table_is_bounded_after_any_text():
    rank = 16
    cfg, spaced_cfg = CurveConfig(1, rank), CurveConfig(1, rank)
    rng = random.Random(24)
    for _ in range(100):
        entries = tuple(
            Generator(rng.randint(0, 1), rng.randint(0, 1), rng.getrandbits(rank), rank)
            for _ in range(rng.randint(0, 8))
        )
        form = DiagonalForm(cfg, entries)
        assert parse_form(respell(form, rng), cfg) == form
        _assert_table_is_bounded(cfg)
        # The spellings str() and the usual separators give fit the bound,
        # so a config that meets only those keeps its table.
        spaced = str(form).replace(",", ", ").replace("*", " * ")
        assert parse_form(spaced, spaced_cfg) == form
        assert spaced_cfg._terms is not None
        _assert_table_is_bounded(spaced_cfg)
    for text in PATHOLOGICAL_TEXTS:
        try:
            parse_form(text, cfg)
        except FormSyntaxError:
            pass
        _assert_table_is_bounded(cfg)
    # A short text of unusual spellings keeps the table, also when it is
    # refused; a text of more spellings than the bound leaves no table, so a
    # long respelled text decides its spellings afresh on each call.
    long_form = DiagonalForm._from_packed(
        cfg, tuple(rng.getrandbits(rank + 2) for _ in range(4096))
    )
    for text in ("<L01>", "<s\t>", "<s  *L1>", "<s\t* L17>"):
        cfg = CurveConfig(1, rank)
        _outcome(parse_form, text, cfg)
        assert cfg._terms is not None, text
        _assert_table_is_bounded(cfg)
    for text in (OVERFLOWING, OVERFLOWING[:-1] + ", L17>", respell(long_form, rng)):
        cfg = CurveConfig(1, rank)
        parse_form("<s>", cfg)
        _outcome(parse_form, text, cfg)
        assert cfg._terms is None, text


def test_threads_sharing_a_config_leave_a_kept_table():
    # Threads that share one config and switch often, with texts that keep
    # the table and one that overflows it in flight at once: every parse is
    # right, and what is left is no table or a table within the bound.
    cfg = CurveConfig(3, 16)
    texts = ["<s * L1, -pi * L16>", "<L01, s\t* L2>", "< L3 ,1>", "<L17>", "<s  *pi>",
             OVERFLOWING]
    expected = {text: _outcome(_parse_with_cursor, text, cfg) for text in texts}
    wrong = []

    def work(offset):
        for i in range(400):
            text = texts[(i + offset) % len(texts)]
            if _outcome(parse_form, text, cfg) != expected[text]:
                wrong.append(text)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    _assert_table_is_bounded(cfg)


def test_a_kept_term_table_holds_no_long_spelling():
    # Labels with long zero runs are decided on every call and never kept:
    # when every spelling was kept, these 70 parses left about 7 MB in the table.
    cfg = CurveConfig(1, 16)
    parse_form("<s>", cfg)
    tracemalloc.start()
    try:
        for k in range(70):
            assert parse_form("<L" + "0" * (100_000 + k) + "1>", cfg).packed == (1 << 2,)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert cfg._terms is not None
    _assert_table_is_bounded(cfg)
    assert held < 100_000


def test_term_table_stays_out_of_equality_repr_and_pickles():
    cfg = CurveConfig(3, 2)
    before = pickle.dumps(cfg)
    parse_form("<s * L1, L2>", cfg)
    assert cfg._terms is not None
    assert pickle.dumps(cfg) == before
    # The bytes CurveConfig(3, 2) pickled to before it had a term table slot.
    assert pickle.dumps(cfg, protocol=4) == (
        b"\x80\x04\x95,\x00\x00\x00\x00\x00\x00\x00\x8c\x10wittcurve.groups"
        b"\x94\x8c\x0bCurveConfig\x94\x93\x94K\x03K\x02\x86\x94R\x94."
    )
    assert pickle.loads(before)._terms is None
    assert repr(cfg) == "CurveConfig(q_mod_4=3, picard_rank=2)"
    assert cfg == CurveConfig(3, 2) and hash(cfg) == hash(CurveConfig(3, 2))


@pytest.mark.parametrize(
    "text, position",
    [
        ("<s, s*, s, s*>", 6),
        ("<- s,-s, s ,- s*>", 16),
        ("<-s,- s,--s,-s>", 9),
        ("< s , s ,s*s*, s >", 13),
        ("<-s,-s,s*-s,-s>", 9),
        ("<-s,- s, s ,-s, s*- s>", 18),
    ],
)
def test_repeated_malformed_entries_keep_the_cursor_message(text, position):
    message = f"expected term '1', 's', 'pi' or 'L<k>' at position {position}"
    for parse in (parse_form, _parse_with_cursor):
        with pytest.raises(FormSyntaxError) as err:
            parse(text, CurveConfig(3, 1))
        assert (str(err.value), err.value.position) == (message, position)


# Entry spellings, some malformed, to repeat many times in one text.
ENTRY_POOL = st.one_of(
    st.lists(st.sampled_from(TERMS), min_size=1, max_size=3).map("*".join),
    st.sampled_from(["- s", "-s", " s ", "s ", "\ts*pi", "s*\tpi", " -s*L1"]),
)


@settings(max_examples=300, deadline=None)
@given(
    pool=st.lists(ENTRY_POOL, min_size=1, max_size=4),
    picks=st.lists(st.integers(0, 3), min_size=1, max_size=40),
    cfg=CONFIGS,
)
def test_repeated_entries_agree_with_cursor_parser(pool, picks, cfg):
    text = "<" + ",".join(pool[i % len(pool)] for i in picks) + ">"
    assert _outcome(parse_form, text, cfg) == _outcome(_parse_with_cursor, text, cfg)


@pytest.mark.parametrize("rank", (16, 62))
def test_term_deltas_are_single_bits(rank):
    # An entry is packed as the sum of its deltas when that sum has one bit
    # per term, which is its XOR only if every delta is 0 or a single bit.
    rng = random.Random(rank)
    cfg = CurveConfig(3, rank)
    for _ in range(20):
        parse_form("<s>", cfg)
        table = cfg._terms
        form = DiagonalForm._from_packed(
            cfg, tuple(rng.getrandbits(rank + 2) for _ in range(rng.randint(1, 8)))
        )
        # A respelled text adds its spellings to the table, which the call
        # keeps or, past the bound, drops; its values are checked either way.
        assert parse_form(respell(form, rng), cfg) == form
        assert cfg._terms is None or cfg._terms is table
        assert len(table) > 3
        assert all(delta.bit_count() <= 1 for delta in table.values())


@pytest.mark.parametrize("rank", (16, 62))
@pytest.mark.parametrize(
    "text",
    ["<s*s>", "<L3*L3*L3>", "<1*L1>", "<-1*s>", "<s*1*s*pi>", "<L1*L1*L2, pi*s*pi>",
     "<- L2*1*L2*L16 , 1*1>", "<L62*L61*L62*s>", "<1*s*s, 1*1*pi>", "<s* 1 *pi*s>"],
)
def test_ones_and_repeated_terms_agree_with_cursor_parser(text, rank):
    # Their deltas do not sum to their XOR: such an entry is XOR-ed term by term.
    cfg = CurveConfig(3, rank)
    parse_form("<s>", cfg)
    assert _outcome(parse_form, text, cfg) == _outcome(_parse_with_cursor, text, cfg)


# Entries with a sign after whitespace, with whitespace after the sign, and
# with a '-' that is not a sign.
SIGN_ENTRIES = ["- s", "\t-L1", " -\tpi*s", "s*-L1", "s -L1", "--s", "-", "pi-"]


@pytest.mark.parametrize(
    "times, plus", [(1, -1), (1, 0), (1, 1), (3, 0)], ids=["4n-1", "4n", "4n+1", "3*4n"]
)
@pytest.mark.parametrize("rank", (0, 1, 2))
@pytest.mark.parametrize("q", (1, 3))
def test_entry_counts_across_the_dedupe_threshold_agree_with_cursor_parser(
    q, rank, times, plus
):
    # parse_form dedupes the entry texts of a text of at least 4n = 2^(r + 2)
    # entries, and decides the entries of a shorter one in order.
    cfg = CurveConfig(q, rank)
    entries = times * 4 * cfg.pic_order + plus
    rng = random.Random(f"{q} {rank} {times} {plus}")
    pool = [Generator(rng.randint(0, 1), rng.randint(0, 1), rng.getrandbits(rank), rank)
            for _ in range(3)]
    texts = []
    for _ in range(4):
        form = DiagonalForm(cfg, tuple(rng.choice(pool) for _ in range(entries)))
        for text in (str(form), respell(form, rng)):
            assert parse_form(text, cfg) == form
            at = rng.randrange(len(text))
            texts += [text, text[:at] + rng.choice(ALPHABET) + text[at:],
                      text[:at] + text[at + 1:]]
        for odd in SIGN_ENTRIES:
            parts = str(form)[1:-1].split(",")
            # Twice, so a deduped text repeats it.
            for at in rng.sample(range(entries), min(2, entries)):
                parts[at] = odd
            texts.append("<" + ",".join(parts) + ">")
    for text in texts:
        assert _outcome(parse_form, text, cfg) == _outcome(_parse_with_cursor, text, cfg)


# -- the form-length limit -----------------------------------------------------------

LIMIT = syntax.MAX_FORM_ENTRIES


def test_form_length_limit_is_at_least_two_to_the_sixteen():
    assert LIMIT >= 1 << 16


@pytest.mark.parametrize("parse", [parse_form, _parse_with_cursor])
def test_form_at_the_limit_parses(parse):
    cfg = CurveConfig(3, 1)
    form = parse("<" + ",".join(["s*L1"] * LIMIT) + ">", cfg)
    assert form.packed == (1 | 1 << 2,) * LIMIT


@pytest.mark.parametrize("parse", [parse_form, _parse_with_cursor])
@pytest.mark.parametrize(
    "head, entry, tail",
    [("<", "1,", "1>"), ("<", "1,", "pi >"), ("< ", " s ,", " L1 ,x"), ("<", "-s,", "1")],
)
def test_entry_past_the_limit_is_a_syntax_error(parse, head, entry, tail):
    # At the first character of the first entry past the limit, whatever
    # follows, and the same message from both parsers.
    text = head + entry * LIMIT + tail
    position = len(head) + len(entry) * LIMIT
    with pytest.raises(FormSyntaxError) as err:
        parse(text, CurveConfig(3, 1))
    assert str(err.value) == (
        f"form entry {LIMIT + 1} exceeds the limit of {LIMIT} entries "
        f"at position {position}"
    )
    assert err.value.position == position


def test_fault_before_the_limit_is_reported_first():
    text = "<1,s*," + "1," * LIMIT + "1>"
    for parse in (parse_form, _parse_with_cursor):
        with pytest.raises(FormSyntaxError, match="^expected term .* at position 5$"):
            parse(text, CurveConfig(3, 1))


# -- printing ------------------------------------------------------------------------


def test_long_form_prints_in_bounded_memory():
    rng = random.Random(4096)
    cfg = CurveConfig(3, 16)
    form = DiagonalForm._from_packed(
        cfg, tuple(rng.getrandbits(18) for _ in range(4096))
    )
    str(form)  # fill the label table first
    tracemalloc.start()
    try:
        text = str(form)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parse_form(text, cfg) == form
    assert peak < 1 << 20


def test_high_sparse_bits_print_in_linear_time():
    rank = MAX_PICARD_RANK
    form = DiagonalForm(CurveConfig(3, rank), (Generator(0, 0, 1 << rank - 1, rank),) * 1000)
    start = time.perf_counter()
    text = str(form)
    # label takes a class of any height: one step per non-zero byte.
    high = [label(1 << 200_002) for _ in range(1000)]
    assert time.perf_counter() - start < 2.0
    assert text == "<" + ",".join(["L4096"] * 1000) + ">"
    assert high == ["L200001"] * 1000


# Ranks on each side of the byte-column bounds of str(): one byte (r + 2 <= 8),
# three bytes (forms._COLUMN_BITS) and the 64 bits of the byte-text table.
PRINT_RANKS = (0, 6, 7, 16, 22, 23, 62, 63, 64, 200)


@st.composite
def packed_forms(draw):
    rank = draw(st.sampled_from(PRINT_RANKS), label="rank")
    top = rank + 2
    entry = st.one_of(
        st.just(0),
        st.integers(0, (1 << top) - 1),
        st.integers(0, (1 << top) - 1).map(lambda p: p & -256),  # low byte zero
        st.integers(0, top - 1).map(lambda i: 1 << i),
    )
    cfg = CurveConfig(draw(st.sampled_from((1, 3)), label="q"), rank)
    return DiagonalForm._from_packed(cfg, tuple(draw(st.lists(entry, max_size=12))))


@settings(max_examples=400, deadline=None)
@given(form=packed_forms())
def test_form_prints_its_labels_at_the_byte_column_bounds(form):
    text = str(form)
    assert text == "<" + ",".join(map(label, form.packed)) + ">"
    assert parse_form(text, form.config) == form
