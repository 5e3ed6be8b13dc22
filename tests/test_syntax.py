"""Property and fuzz tests of the form parser."""

from hypothesis import given, settings
from hypothesis import strategies as st

from wittcurve import (
    CurveConfig,
    DiagonalForm,
    Generator,
    PicTorsionClass,
    UnitSquareClass,
)
from wittcurve.syntax import FormSyntaxError, parse_form

CONFIGS = st.builds(
    CurveConfig, st.sampled_from((1, 3)), st.sampled_from((0, 1, 2, 16))
)

# The characters of the syntax, whitespace, and a few that never belong.
ALPHABET = "<>⟨⟩,-*1spiL0123456789 \t\n" + "x#² ;"
TOKENS = ["<", ">", "⟨", "⟩", ",", "-", "*", "1", "s", "pi", "p", "L", "L1",
          "L2", "L16", "L17", "L01", "0", "9", " ", "\t", "x", "²"]
TEXTS = st.one_of(
    st.text(alphabet=ALPHABET, max_size=40),
    st.lists(st.sampled_from(TOKENS), max_size=30).map("".join),
)


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


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_printed_form_parses_back(data):
    cfg = data.draw(CONFIGS, label="config")
    rank = cfg.picard_rank
    generator = st.builds(
        lambda u, e, mask: Generator(UnitSquareClass(u), e, PicTorsionClass(rank, mask)),
        st.integers(0, 1),
        st.integers(0, 1),
        st.integers(0, (1 << rank) - 1),
    )
    entries = data.draw(st.lists(generator, max_size=64), label="entries")
    form = DiagonalForm(cfg, tuple(entries))
    assert parse_form(str(form), cfg) == form
