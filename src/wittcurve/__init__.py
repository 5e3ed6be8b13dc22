"""Exact Witt ring calculator for smooth projective curves with good reduction
over non-dyadic local fields.

Two independent decision engines are provided and cross-checked: one based on
the classifying invariants (rank parity, signed discriminant, Clifford class)
and one based on the group-ring model over the residue Witt classes.
"""

import sys

__version__ = "0.1.0"

# Each exported name and the submodule that defines it.  A submodule is
# imported when one of its names, or its own name, is first read (PEP 562), so
# `import wittcurve` compiles only this file and a caller loads only the
# modules it uses.
_MODULE_OF = {
    "BrauerClass": "groups",
    "CanonicalShape": "group_ring",
    "CensusReport": "group_ring",
    "CurveConfig": "groups",
    "DiagonalForm": "forms",
    "FormSyntaxError": "syntax",
    "Generator": "groups",
    "GroupRingElement": "group_ring",
    "InvariantProfile": "engine",
    "QuaternionDistinctnessReport": "verify",
    "RankOneStructureReport": "verify",
    "RelationSuiteReport": "verify",
    "ResidueWittClass": "group_ring",
    "RingIsoReport": "verify",
    "Shape": "group_ring",
    "canonical_form": "group_ring",
    "check_ring_iso": "verify",
    "enumerate_classes": "group_ring",
    "enumerate_generators": "groups",
    "enumerate_group_ring_elements": "group_ring",
    "enumerate_groups": "groups",
    "enumerate_residue_classes": "group_ring",
    "equals": "engine",
    "from_group_ring": "group_ring",
    "hasse_invariant": "engine",
    "inclusion": "group_ring",
    "invariant_profile": "engine",
    "is_trivial": "engine",
    "make_config": "groups",
    "parse_form": "syntax",
    "quaternion_norm_form": "forms",
    "rank_one_group_structure": "verify",
    "run_command": "cli",
    "splitting_map": "group_ring",
    "symbol": "engine",
    "to_group_ring": "group_ring",
    "verify_generator_relations": "verify",
    "verify_quaternion_distinctness": "verify",
    "witt_invariant": "engine",
}
_SUBMODULES = frozenset(_MODULE_OF.values())

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import the submodule of an exported name, or the named submodule, when
    the name is first read, and bind the name here, so that later reads do not
    come back."""
    module = _MODULE_OF.get(name, name)
    if module not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Not `from . import ...`, which would look the submodule up through this
    # function again, nor importlib, which `python -S` has not loaded and
    # which would load warnings with it.
    __import__(f"{__name__}.{module}")
    value = sys.modules[f"{__name__}.{module}"]
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _MODULE_OF.keys() | _SUBMODULES)
