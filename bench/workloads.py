"""The operations of each workload: how they call the program and how their
outputs are checked.

Library operations call the package's public functions through the module
object, so a traced run sees the wrapped names.  Every output is checked
against the oracle or against a property the method must have; nothing is
compared with a stored copy of earlier output.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle
from inputs import OpSpec

# How long one CLI child may take before it is killed.
CLI_TIMEOUT_S = 60


@dataclass
class Op:
    """One operation of a cycle.

    ``check`` returns True when the output is right.  A ``known_fault``
    operation that fails its check is counted as failed rather than wrong.
    ``figure`` names the workload figure the operation's ``work`` adds to.
    ``child_peak_kb`` is the largest peak resident memory (KiB) of the child
    processes it has run, if it runs any.
    """

    spec: OpSpec
    run: Callable[[], object]
    check: Callable[[object], bool]
    figure: str | None = None
    work: Callable[[object], int] | None = None
    known_fault: bool = False
    child_peak_kb: int = 0


def build(workload: str, specs: list[OpSpec], wc, root: Path, in_process: bool = False,
          configs: dict[tuple[int, int], object] | None = None) -> list[Op]:
    """Turn a cycle's specs into operations on library objects.

    This is the set-up the benchmark times: every form is parsed by the
    program here.  CLI operations run ``python -m wittcurve`` in a child
    process unless ``in_process`` asks for ``run_command`` in this one.
    Configurations are made once per ``(q, r)`` and kept in ``configs``, so
    a caller that builds a cycle a few specs at a time can pass one dict.
    """
    if configs is None:
        configs = {}

    def config(spec):
        key = (spec.q, spec.r)
        if key not in configs:
            configs[key] = wc.make_config(spec.q, spec.r)
        return configs[key]

    ops = []
    for spec in specs:
        cfg = config(spec)
        if workload == "cli":
            # The child processes parse their own arguments; parsing them
            # here too keeps set-up comparable across workloads.
            for text in spec.texts:
                if text.startswith("<"):
                    wc.parse_form(text, cfg)
            ops.append(_cli_op(spec, root, wc if in_process else None))
        else:
            # A round trip parses its own text, the text of a random pair.
            texts = () if spec.kind == "round_trip" else spec.texts
            forms = [wc.parse_form(text, cfg) for text in texts]
            ops.append(_LIBRARY[spec.kind](spec, wc, cfg, forms))
    return ops


# -- library operations ----------------------------------------------------------------


def _decided_entries(spec: OpSpec) -> Callable[[object], int]:
    entries = spec.entries * (2 if spec.kind == "equals_self" else 1)
    return lambda _result: entries


def _equals(spec, wc, cfg, forms):
    e, f = forms
    return Op(spec, lambda: wc.equals(e, f), lambda res: res is spec.expect,
              "decide_entries_per_s", _decided_entries(spec))


def _equals_self(spec, wc, cfg, forms):
    (e,) = forms
    return Op(spec, lambda: wc.equals(e, e), lambda res: res is True,
              "decide_entries_per_s", _decided_entries(spec))


def _canonical_form(spec, wc, cfg, forms):
    (form,) = forms
    verified: set[str] = set()

    def check(res) -> bool:
        if res.tag.name != spec.expect:
            return False
        text = str(res.payload)
        if text not in verified:
            # The payload must have the same shape and be Witt-equal to the input.
            payload = oracle.parse_form(text)
            if oracle.shape(payload, spec.q) != spec.expect:
                return False
            if not oracle.witt_equal(payload, spec.forms[0], spec.q):
                return False
            verified.add(text)
        return True

    return Op(spec, lambda: wc.canonical_form(form), check)


def _invariant_profile(spec, wc, cfg, forms):
    (form,) = forms

    def check(res) -> bool:
        witt = None if res.witt_inv is None else str(res.witt_inv)
        return (res.rank_parity, str(res.signed_disc), witt) == spec.expect

    return Op(spec, lambda: wc.invariant_profile(form), check)


def _tensor_to_group_ring(spec, wc, cfg, forms):
    e, f = forms
    return Op(spec, lambda: wc.to_group_ring(e * f), lambda res: str(res) == spec.expect)


def _splitting_map(spec, wc, cfg, forms):
    (form,) = forms
    return Op(spec, lambda: wc.splitting_map(form), lambda res: str(res) == spec.expect)


def _round_trip(spec, wc, cfg, forms):
    (text,) = spec.texts

    def run():
        form = wc.parse_form(text, cfg)
        printed = str(form)
        return printed, wc.parse_form(printed, cfg) == form

    return Op(spec, run, lambda res: res == (spec.expect, True),
              "parse_entries_per_s", lambda _res: spec.entries)


def _check_ring_iso(spec, wc, cfg, forms):
    r = spec.r

    def check(rep) -> bool:
        return (
            rep.passed
            and rep.roundtrip_ok
            and rep.injective
            and not rep.mismatches
            and rep.element_count == oracle.class_count(r)
            and rep.addition_pairs_checked == oracle.ring_pairs(r)
            and rep.multiplication_pairs_checked == oracle.ring_pairs(r)
        )

    return Op(spec, lambda: wc.check_ring_iso(cfg), check, "verify_pairs_per_s",
              lambda rep: rep.addition_pairs_checked + rep.multiplication_pairs_checked)


def _quaternion_distinctness(spec, wc, cfg, forms):
    n = 1 << spec.r

    def check(rep) -> bool:
        return (
            rep.passed
            and rep.pairwise_distinct
            and rep.class_count == 2 * n
            and tuple(rep.trivial_symbols) == ("(1, pi)",)
        )

    return Op(spec, lambda: wc.verify_quaternion_distinctness(cfg), check,
              "verify_pairs_per_s", lambda rep: rep.class_count * (rep.class_count - 1) // 2)


def _rank_one_structure(spec, wc, cfg, forms):
    n = 1 << spec.r

    def check(rep) -> bool:
        return (
            rep.passed
            and rep.classes_distinct
            and rep.exponent_two
            and rep.homomorphism_ok
            and rep.order == 4 * n
            and len(rep.witness) == 4 * n
        )

    # Distinct pairs, squares, and ordered pairs for the homomorphism.
    return Op(spec, lambda: wc.rank_one_group_structure(cfg), check, "verify_pairs_per_s",
              lambda rep: rep.order * (rep.order - 1) // 2 + rep.order + rep.order ** 2)


def _generator_relations(spec, wc, cfg, forms):
    def check(rep) -> bool:
        return rep.passed and not rep.failures and rep.checked == oracle.relation_checks(spec.r)

    return Op(spec, lambda: wc.verify_generator_relations(cfg), check,
              "verify_pairs_per_s", lambda rep: rep.checked)


def _enumerate_classes(spec, wc, cfg, forms):
    def check(census) -> bool:
        counts = {shape.name: count for shape, count in census.shape_counts}
        return census.total == oracle.class_count(spec.r) and counts == oracle.census(spec.r)

    return Op(spec, lambda: wc.enumerate_classes(cfg), check,
              "census_classes_per_s", lambda census: census.total)


_LIBRARY = {
    "equals": _equals,
    "equals_self": _equals_self,
    "canonical_form": _canonical_form,
    "invariant_profile": _invariant_profile,
    "tensor_to_group_ring": _tensor_to_group_ring,
    "splitting_map": _splitting_map,
    "round_trip": _round_trip,
    "check_ring_iso": _check_ring_iso,
    "verify_quaternion_distinctness": _quaternion_distinctness,
    "rank_one_group_structure": _rank_one_structure,
    "verify_generator_relations": _generator_relations,
    "enumerate_classes": _enumerate_classes,
}


# -- CLI operations ---------------------------------------------------------------------


def child_env(root: Path) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def run_child(command: list[str], root: Path, env: dict[str, str]) -> tuple[int, str, str, int]:
    """Run one CLI child to its end; return its exit code, stdout, stderr and
    peak resident memory (KiB).

    The child is reaped with ``os.wait4`` so that its own peak resident
    memory is read, and not that of other children of this process.
    """
    with subprocess.Popen(command, cwd=root, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        err: list[str] = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        killer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        reader.start()
        killer.start()
        try:
            out = proc.stdout.read()
            reader.join()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, err[0], usage.ru_maxrss


def _cli_op(spec: OpSpec, root: Path, wc) -> Op:
    argv = list(spec.texts)
    check = _CLI_CHECKS[spec.kind]
    op = Op(spec, None, lambda res: check(spec, *res), known_fault=spec.kind == "cli-out-error")
    if wc is None:
        env = child_env(root)
        command = [sys.executable, "-m", "wittcurve", *argv]

        def run():
            code, out, err, peak_kb = run_child(command, root, env)
            op.child_peak_kb = max(op.child_peak_kb, peak_kb)
            return code, out, err
    else:
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = wc.run_command(argv)
            return code, out.getvalue(), err.getvalue()

    op.run = run
    return op


def _check_reduce(spec, code, out, err) -> bool:
    lines = out.splitlines()
    if code != 0 or len(lines) != 2 or not lines[1].startswith("payload "):
        return False
    want = oracle.shape(spec.forms[0], spec.q)
    payload = oracle.parse_form(lines[1].removeprefix("payload "))
    return (
        lines[0] == f"shape   {oracle.TEMPLATES[want]}"
        and oracle.shape(payload, spec.q) == want
        and oracle.witt_equal(payload, spec.forms[0], spec.q)
    )


def _check_equal(spec, code, out, err) -> bool:
    return code == (0 if spec.expect else 1) and out.strip() == str(spec.expect).lower()


def _check_invariants(spec, code, out, err) -> bool:
    return code == 0 and json.loads(out) == spec.expect


def _check_enumerate(spec, code, out, err) -> bool:
    counts = oracle.census(spec.r)
    want = [["shape", "count"]]
    want += [[oracle.TEMPLATES[name], str(count)] for name, count in counts.items()]
    want.append(["total", str(oracle.class_count(spec.r))])
    return code == 0 and list(csv.reader(io.StringIO(out))) == want


def _check_verify(spec, code, out, err) -> bool:
    lines = out.splitlines()
    return (
        code == 0
        and len(lines) == 5
        and lines[-1].split()[0] == "overall"
        and all(line.split()[-1] == "PASS" for line in lines)
    )


def _check_out_error(spec, code, out, err) -> bool:
    """An unwritable --out path is an I/O failure: exit 2, one-line message."""
    return code == 2 and out == "" and len(err.strip().splitlines()) == 1


_CLI_CHECKS = {
    "cli-reduce": _check_reduce,
    "cli-equal": _check_equal,
    "cli-invariants": _check_invariants,
    "cli-enumerate": _check_enumerate,
    "cli-verify": _check_verify,
    "cli-out-error": _check_out_error,
}
