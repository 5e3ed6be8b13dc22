"""Value semantics of the package's immutable classes: repr, ==, hash,
pickling, copying and the refusal to assign or delete a field."""

import copy
import pickle

import pytest

from wittcurve import (
    BrauerClass,
    CurveConfig,
    DiagonalForm,
    Generator,
    GroupRingElement,
    ResidueWittClass,
    canonical_form,
    check_ring_iso,
    enumerate_classes,
    invariant_profile,
    parse_form,
    rank_one_group_structure,
    verify_generator_relations,
    verify_quaternion_distinctness,
)
from wittcurve.groups import _Frozen

CFG = CurveConfig(3, 1)
Z = CurveConfig(1, 0)
A = ResidueWittClass(CFG, 1, 0, 1)
B = ResidueWittClass(CFG, 0, 1, 0)
CFG_REPR = "CurveConfig(q_mod_4=3, picard_rank=1)"
Z_REPR = "CurveConfig(q_mod_4=1, picard_rank=0)"
A_REPR = f"ResidueWittClass(config={CFG_REPR}, parity=1, disc_unit=0, disc_mask=1)"
B_REPR = f"ResidueWittClass(config={CFG_REPR}, parity=0, disc_unit=1, disc_mask=0)"

# One instance of each value class, with its repr as the frozen dataclasses
# of earlier versions printed it.
VALUES = {
    "CurveConfig": (CFG, CFG_REPR),
    "Generator": (Generator(1, 0, 1, 1), "Generator(unit=1, pi_exp=0, mask=1, rank=1)"),
    "BrauerClass": (BrauerClass(1, 1, 1), "BrauerClass(unit=1, mask=1, rank=1)"),
    "DiagonalForm": (
        DiagonalForm(CFG, [Generator(1, 0, 1, 1), Generator(0, 1, 0, 1)]),
        f"DiagonalForm(config={CFG_REPR}, entries=(Generator(unit=1, pi_exp=0, mask=1, rank=1), "
        "Generator(unit=0, pi_exp=1, mask=0, rank=1)))",
    ),
    "ResidueWittClass": (A, A_REPR),
    "GroupRingElement": (GroupRingElement(A, B), f"GroupRingElement(a={A_REPR}, b={B_REPR})"),
    "InvariantProfile": (
        invariant_profile(parse_form("<1,-1>", CFG)),
        "InvariantProfile(rank_parity=0, signed_disc=Generator(unit=0, pi_exp=0, mask=0, rank=1), "
        "witt_inv=BrauerClass(unit=0, mask=0, rank=1))",
    ),
    "CanonicalShape": (
        canonical_form(parse_form("<1,s*L1,pi>", CFG)),
        "CanonicalShape(tag=<Shape.EVEN_ODD: '<1,s*L,t*pi*M>'>, payload=DiagonalForm("
        f"config={CFG_REPR}, entries=(Generator(unit=0, pi_exp=0, mask=0, rank=1), "
        "Generator(unit=1, pi_exp=0, mask=1, rank=1), Generator(unit=0, pi_exp=1, mask=0, rank=1))))",
    ),
    "CensusReport": (
        enumerate_classes(Z),
        f"CensusReport(config={Z_REPR}, total=16, shape_counts=("
        "(<Shape.ODD_ZERO: '<s*L>'>, 2), (<Shape.ZERO_ODD: '<t*pi*M>'>, 2), "
        "(<Shape.EVEN_ZERO: '<1,s*L>'>, 1), (<Shape.ODD_ODD: '<s*L,t*pi*M>'>, 4), "
        "(<Shape.ZERO_EVEN: '<pi,t*pi*M>'>, 1), (<Shape.EVEN_ODD: '<1,s*L,t*pi*M>'>, 2), "
        "(<Shape.ODD_EVEN: '<s*L,pi,t*pi*M>'>, 2), (<Shape.EVEN_EVEN: '<1,s*L,pi,t*pi*M>'>, 1)))",
    ),
    "QuaternionDistinctnessReport": (
        verify_quaternion_distinctness(Z),
        f"QuaternionDistinctnessReport(config={Z_REPR}, class_count=2, pairwise_distinct=True, "
        "trivial_symbols=('(1, pi)',), passed=True)",
    ),
    "RankOneStructureReport": (
        rank_one_group_structure(Z),
        f"RankOneStructureReport(config={Z_REPR}, order=4, classes_distinct=True, "
        "exponent_two=True, homomorphism_ok=True, witness=(('1', ('1', 'O')), "
        "('s', ('s', 'O')), ('pi', ('pi', 'O')), ('s*pi', ('s*pi', 'O'))), passed=True)",
    ),
    "RelationSuiteReport": (
        verify_generator_relations(Z),
        f"RelationSuiteReport(config={Z_REPR}, checked=8, failures=(), passed=True)",
    ),
    "RingIsoReport": (
        check_ring_iso(Z),
        f"RingIsoReport(config={Z_REPR}, element_count=16, addition_pairs_checked=256, "
        "multiplication_pairs_checked=256, roundtrip_ok=True, injective=True, mismatches=(), "
        "passed=True)",
    ),
}


def _values(value):
    return tuple(getattr(value, name) for name in type(value)._fields)


@pytest.mark.parametrize("name", VALUES)
def test_value_semantics(name):
    value, text = VALUES[name]
    cls = type(value)
    assert cls.__name__ == name
    assert repr(value) == text

    # Equal copies, by pickle at every protocol and by copy and deepcopy,
    # have the same class, repr and hash.
    copies = [pickle.loads(pickle.dumps(value, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(value), copy.deepcopy(value)]
    for other in copies:
        assert type(other) is cls
        assert other == value and not other != value
        assert hash(other) == hash(value)
        assert repr(other) == text

    # Another class with the same fields and values, and the plain tuple of
    # the values, are not equal to it.
    fields = _values(value)
    twin = type(name, (_Frozen,), {"__slots__": cls._fields})(*fields)
    assert _values(twin) == fields
    for other in (twin, fields):
        assert value != other and other != value
        assert not value == other

    for field, held in zip(cls._fields, fields):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
            setattr(value, field, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
            delattr(value, field)
        # A group ring element builds its components when they are read.
        if cls is GroupRingElement:
            assert type(getattr(value, field)) is type(held)
            assert getattr(value, field) == held
        else:
            assert getattr(value, field) is held


def test_report_fields_are_taken_by_position_or_keyword():
    report = VALUES["RelationSuiteReport"][0]
    assert type(report)(Z, 8, failures=(), passed=True) == report
    for args, kwargs in [
        ((Z, 8, ()), {}),  # a field missing
        ((Z, 8, (), True, None), {}),  # one too many
        ((Z, 8, ()), {"checked": 8}),  # a field twice
        ((Z, 8, ()), {"extra": 1}),  # an unknown field
    ]:
        with pytest.raises(TypeError, match=r"^RelationSuiteReport\(\) takes the fields "
                           "config, checked, failures, passed$"):
            type(report)(*args, **kwargs)
