"""Span tracer for the traced run, and the per-layer metrics it yields.

The tracer wraps the package's public functions and operator methods from
outside, patching each one in every ``wittcurve`` module that holds it (for
example ``engine.hasse_invariant`` as well as ``symbols.hasse_invariant``).
Each wrapped call records a span: name, start, end and parent.  Spans are
kept in compact arrays and written out when the run ends.

The two hottest functions, ``symbol`` and the 2-group additions, are leaves
that call nothing traced.  They are counted and timed but not logged one by
one: their time is charged to the enclosing span as time its children cover.
A leaf called inside another leaf of the same kind (a square-class sum adds
its unit and bundle parts) is counted, and its time stays with the outer one.

A span's self time is its duration minus the time its child spans and leaves
cover.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter


def _rank_of_result(args, result) -> int:
    return result.rank


def _rank_of_first_arg(args, result) -> int:
    return args[0].rank


def _pairs_of_report(args, result) -> int:
    return result.addition_pairs_checked + result.multiplication_pairs_checked


# (package attribute, span name, units counter or None); looked up on the
# package and patched in every module that holds the same object.
FUNCTIONS = [
    ("parse_form", "cli.parse_form", _rank_of_result),
    ("run_command", "cli.run_command", None),
    ("hasse_invariant", "symbols.hasse_invariant", _rank_of_first_arg),
    ("is_trivial", "engine.is_trivial", None),
    ("equals", "engine.equals", None),
    ("canonical_form", "engine.canonical_form", None),
    ("invariant_profile", "engine.invariant_profile", None),
    ("enumerate_classes", "engine.enumerate_classes", None),
    ("verify_quaternion_distinctness", "engine.verify_quaternion_distinctness", None),
    ("rank_one_group_structure", "engine.rank_one_group_structure", None),
    ("verify_generator_relations", "engine.verify_generator_relations", None),
    ("to_group_ring", "group_ring.to_group_ring", None),
    ("from_group_ring", "group_ring.from_group_ring", None),
    ("check_ring_iso", "group_ring.check_ring_iso", _pairs_of_report),
]

# (package class, method, span name, units counter or None)
METHODS = [
    ("DiagonalForm", "__add__", "forms.add", None),
    ("DiagonalForm", "__neg__", "forms.neg", None),
    ("DiagonalForm", "__mul__", "forms.tensor", _rank_of_result),
    ("DiagonalForm", "signed_discriminant", "forms.signed_discriminant", None),
    ("GroupRingElement", "__mul__", "group_ring.element_mul", None),
]

LEAF_FUNCTIONS = [("symbol", "symbols.symbol")]
LEAF = object()  # marks a leaf in the method list that ``install`` walks
LEAF_METHODS = [
    (cls, "__add__", "groups.add")
    for cls in ("UnitSquareClass", "PicTorsionClass", "GlobalSquareClass", "BrauerClass")
]

# Per-layer metric names and units, in report order.
PER_LAYER = [
    ("cli.import_ms", "ms"),
    ("cli.parse_form.us_per_entry", "us"),
    ("cli.run_command.self_ms", "ms"),
    ("forms.add.calls", "count"),
    ("forms.add.self_s", "s"),
    ("forms.neg.self_s", "s"),
    ("forms.tensor.self_s", "s"),
    ("forms.tensor.entries_built", "count"),
    ("forms.signed_discriminant.self_s", "s"),
    ("symbols.hasse_invariant.calls", "count"),
    ("symbols.hasse_invariant.self_s", "s"),
    ("symbols.symbol.calls", "count"),
    ("symbols.symbol.self_s", "s"),
    ("symbols.symbol_calls_per_entry", "ratio"),
    ("engine.is_trivial.calls", "count"),
    ("engine.is_trivial.slow_path_ratio", "ratio"),
    ("engine.equals.self_s", "s"),
    ("engine.canonical_form.self_s", "s"),
    ("engine.invariant_profile.self_s", "s"),
    ("engine.enumerate_classes.self_s", "s"),
    ("engine.verify_quaternion_distinctness.self_s", "s"),
    ("engine.rank_one_group_structure.self_s", "s"),
    ("engine.verify_generator_relations.self_s", "s"),
    ("group_ring.to_group_ring.calls", "count"),
    ("group_ring.to_group_ring.self_s", "s"),
    ("group_ring.from_group_ring.self_s", "s"),
    ("group_ring.element_mul.calls", "count"),
    ("group_ring.element_mul.self_s", "s"),
    ("group_ring.check_ring_iso.self_s", "s"),
    ("group_ring.check_ring_iso.equals_calls_per_pair", "ratio"),
    ("groups.add.calls", "count"),
    ("groups.add.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


class Tracer:
    """Records spans of the wrapped calls while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.leaf_cover = array("d")  # leaf time directly under each span
        self.stack = [-1]
        self.units: Counter[str] = Counter()
        self.leaf_calls: Counter[str] = Counter()
        self.leaf_time: Counter[str] = Counter()
        self._in_leaf = [False]
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _span(self, name: str, fn, units):
        nid = self._name_id(name)
        names, parents, starts, ends, cover = (
            self.name, self.parent, self.start, self.end, self.leaf_cover)
        stack = self.stack
        counted = self.units

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            cover.append(0.0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if units is not None:
                counted[name] += units(args, result)
            return result

        return wrapper

    def _leaf(self, name: str, fn):
        calls, spent, cover, stack, in_leaf = (
            self.leaf_calls, self.leaf_time, self.leaf_cover, self.stack, self._in_leaf)

        def wrapper(*args):
            calls[name] += 1
            if in_leaf[0]:
                return fn(*args)
            in_leaf[0] = True
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                dt = perf_counter() - t0
                in_leaf[0] = False
                spent[name] += dt
                if stack[-1] >= 0:
                    cover[stack[-1]] += dt

        return wrapper

    def _patch_everywhere(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "wittcurve" and not mod_name.startswith("wittcurve."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self, wc) -> list[str]:
        """Wrap every traced name the package has; return the names it lacks."""
        missing = []
        for attr, name, units in FUNCTIONS:
            original = getattr(wc, attr, None)
            if original is None:
                missing.append(attr)
            else:
                self._patch_everywhere(original, self._span(name, original, units))
        for attr, name in LEAF_FUNCTIONS:
            original = getattr(wc, attr, None)
            if original is None:
                missing.append(attr)
            else:
                self._patch_everywhere(original, self._leaf(name, original))
        methods = list(METHODS)
        methods += [(cls, method, name, LEAF) for cls, method, name in LEAF_METHODS]
        for cls_name, method, name, units in methods:
            cls = getattr(wc, cls_name, None)
            if cls is None or method not in vars(cls):
                missing.append(f"{cls_name}.{method}")
                continue
            original = vars(cls)[method]
            self._patches.append((cls, method, original))
            wrapper = self._leaf(name, original) if units is LEAF else self._span(name, original, units)
            setattr(cls, method, wrapper)
        return missing

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def per_name(self) -> tuple[Counter, Counter, Counter]:
        """Calls and self time per span name, and span counts per (parent, child) name."""
        n = len(self.name)
        covered = array("d", self.leaf_cover)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        calls: Counter[str] = Counter(self.leaf_calls)
        self_time: Counter[str] = Counter(self.leaf_time)
        edges: Counter[tuple[str, str]] = Counter()
        for i in range(n):
            name = self.names[self.name[i]]
            calls[name] += 1
            self_time[name] += self.end[i] - self.start[i] - covered[i]
            p = self.parent[i]
            if p >= 0:
                edges[(self.names[self.name[p]], name)] += 1
        return calls, self_time, edges

    def write(self, path: Path) -> None:
        """Write every logged span as a tab-separated line, times relative to the first."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = min(self.start, default=0.0)
        with path.open("w", encoding="utf-8") as out:
            out.write("span\tname\tparent\tstart_s\tend_s\tleaf_s\n")
            for i in range(len(self.name)):
                out.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.parent[i]}\t"
                    f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\t{self.leaf_cover[i]:.9f}\n"
                )


def per_layer_metrics(tracer: Tracer, cycles: int, import_ms: float, overhead: float) -> dict:
    """Every per-layer metric, per traced cycle where it is a count or a time."""
    calls, self_time, edges = tracer.per_name()
    units = tracer.units

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values = {
        "cli.import_ms": import_ms,
        "cli.parse_form.us_per_entry": 1e6 * ratio(self_time["cli.parse_form"], units["cli.parse_form"]),
        "cli.run_command.self_ms": 1e3 * self_time["cli.run_command"] / cycles,
        "forms.tensor.entries_built": units["forms.tensor"] / cycles,
        "symbols.symbol_calls_per_entry": ratio(
            calls["symbols.symbol"], units["symbols.hasse_invariant"]),
        "engine.is_trivial.slow_path_ratio": ratio(
            edges[("engine.is_trivial", "symbols.hasse_invariant")], calls["engine.is_trivial"]),
        "group_ring.check_ring_iso.equals_calls_per_pair": ratio(
            edges[("group_ring.check_ring_iso", "engine.equals")], units["group_ring.check_ring_iso"]),
        "trace.overhead_ratio": overhead,
    }
    for metric, unit in PER_LAYER:
        if metric in values:
            continue
        span, _, kind = metric.rpartition(".")
        values[metric] = (calls[span] if kind == "calls" else self_time[span]) / cycles
    return {metric: {"value": values[metric], "unit": unit} for metric, unit in PER_LAYER}
