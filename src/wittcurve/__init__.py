"""Exact Witt ring calculator for smooth projective curves with good reduction
over non-dyadic local fields.

Two independent decision engines are provided and cross-checked: one based on
the classifying invariants (rank parity, signed discriminant, Clifford class)
and one based on the group-ring model over the residue Witt classes.
"""

from .cli import run_command
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
    PicTorsionClass,
    UnitSquareClass,
    enumerate_generators,
    enumerate_groups,
    enumerate_pic,
    make_config,
    minus_one_class,
)
from .symbols import hasse_invariant, symbol, witt_invariant
from .syntax import FormSyntaxError, parse_form
from .verify import (
    QuaternionDistinctnessReport,
    RankOneStructureReport,
    RelationSuiteReport,
    RingIsoReport,
    check_ring_iso,
    rank_one_group_structure,
    verify_generator_relations,
    verify_quaternion_distinctness,
)

__version__ = "0.1.0"

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
    "PicTorsionClass",
    "QuaternionDistinctnessReport",
    "RankOneStructureReport",
    "RelationSuiteReport",
    "ResidueWittClass",
    "RingIsoReport",
    "Shape",
    "UnitSquareClass",
    "canonical_form",
    "check_ring_iso",
    "enumerate_classes",
    "enumerate_generators",
    "enumerate_group_ring_elements",
    "enumerate_groups",
    "enumerate_pic",
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
