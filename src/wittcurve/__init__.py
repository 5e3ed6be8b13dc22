"""Exact Witt ring calculator for smooth projective curves with good reduction
over non-dyadic local fields.

Two independent decision engines are provided and cross-checked: one based on
the classifying invariants (rank parity, signed discriminant, Clifford class)
and one based on the group-ring model over the residue Witt classes.
"""

from .engine import (
    CanonicalShape,
    CensusReport,
    InvariantProfile,
    Shape,
    canonical_form,
    enumerate_classes,
    equals,
    invariant_profile,
    is_trivial,
)
from .forms import DiagonalForm, quaternion_norm_form
from .group_ring import (
    GroupRingElement,
    ResidueWittClass,
    enumerate_group_ring_elements,
    enumerate_residue_classes,
    from_group_ring,
    inclusion,
    splitting_map,
    to_group_ring,
)
from .groups import (
    BrauerClass,
    CurveConfig,
    Generator,
    enumerate_generators,
    enumerate_groups,
    make_config,
    minus_one_class,
)
from .symbols import hasse_invariant, symbol, witt_invariant
from .syntax import FormSyntaxError, parse_form

__version__ = "0.1.0"

# Names loaded on first use.  Only `wittcurve verify` runs the suites, and
# verify is the largest module to compile; run_command needs cli, which
# imports argparse, and a library user does not.
_VERIFY_NAMES = frozenset(
    {
        "QuaternionDistinctnessReport",
        "RankOneStructureReport",
        "RelationSuiteReport",
        "RingIsoReport",
        "check_ring_iso",
        "rank_one_group_structure",
        "verify_generator_relations",
        "verify_quaternion_distinctness",
    }
)


def __getattr__(name: str):
    """Import the module of run_command or of a verify name when the name is
    first read (PEP 562), and bind the name here, so that later reads do not
    come back."""
    if name == "run_command":
        from . import cli as module
    elif name in _VERIFY_NAMES:
        from . import verify as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _VERIFY_NAMES | {"run_command"})

__all__ = [
    "BrauerClass",
    "CanonicalShape",
    "CensusReport",
    "CurveConfig",
    "DiagonalForm",
    "FormSyntaxError",
    "Generator",
    "GroupRingElement",
    "InvariantProfile",
    "QuaternionDistinctnessReport",
    "RankOneStructureReport",
    "RelationSuiteReport",
    "ResidueWittClass",
    "RingIsoReport",
    "Shape",
    "canonical_form",
    "check_ring_iso",
    "enumerate_classes",
    "enumerate_generators",
    "enumerate_group_ring_elements",
    "enumerate_groups",
    "enumerate_residue_classes",
    "equals",
    "from_group_ring",
    "hasse_invariant",
    "inclusion",
    "invariant_profile",
    "is_trivial",
    "make_config",
    "minus_one_class",
    "parse_form",
    "quaternion_norm_form",
    "rank_one_group_structure",
    "run_command",
    "splitting_map",
    "symbol",
    "to_group_ring",
    "verify_generator_relations",
    "verify_quaternion_distinctness",
    "witt_invariant",
]
