"""Time of each verify suite and of the census: the README table.

    python3 tools/measure_suites.py
    python3 tools/measure_suites.py --parent ../other-checkout

Times check_ring_iso, the three other verify suites and enumerate_classes at
r = 0, 1, 2 for q = 1 and q = 3.  Each figure is the best of ROUNDS rounds,
with the garbage collector off, of the time per call of as many calls in a row
as take about CALL_SECONDS.  A case runs its rounds one after another, after
one untimed call of each version.

With --parent, the package under DIR/src is loaded too, under another name (as
tools/measure_syntax.py loads it), and each round times both versions, taking
turns at going first; the parent's figure follows in brackets, and the last
table is the median per-round ratio, this version over the parent.  Both
versions must give the same reports, compared by repr.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
from pathlib import Path
from time import perf_counter

from measure_syntax import ROOT, load

SUITES = (
    "check_ring_iso", "verify_quaternion_distinctness", "rank_one_group_structure",
    "verify_generator_relations", "enumerate_classes",
)
RANKS = (0, 1, 2)
ROUNDS = 15
# A figure times as many calls in a row as take about this long, at least one.
CALL_SECONDS = 2e-3


def text(seconds: float) -> str:
    return f"{seconds * 1e3:.3g} ms" if seconds >= 1e-4 else f"{seconds * 1e6:.3g} µs"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, help="a checkout to measure beside this one")
    args = parser.parse_args()
    versions = [load(ROOT / "src", "wittcurve")]
    if args.parent is not None:
        versions.append(load(args.parent / "src", "wittcurve_parent"))
    cases = [(suite, q, r) for suite in SUITES for r in RANKS for q in (1, 3)]
    times = {case: [[] for _ in versions] for case in cases}
    gc.disable()
    for case in cases:
        suite, q, r = case
        start = perf_counter()
        reports = {repr(getattr(p, suite)(p.CurveConfig(q, r))) for p in versions}
        if len(reports) != 1:
            raise SystemExit(f"{suite} at q = {q}, r = {r}: the versions' reports differ")
        calls = max(1, int(CALL_SECONDS * len(versions) / (perf_counter() - start)))
        for i in range(ROUNDS):
            for side in (0, 1)[: len(versions)][:: -1 if i % 2 else 1]:
                call, cfg = getattr(versions[side], suite), versions[side].CurveConfig(q, r)
                start = perf_counter()
                for _ in range(calls):
                    call(cfg)
                times[case][side].append((perf_counter() - start) / calls)
    gc.enable()

    def row(suite: str, cell) -> str:
        return f"| `{suite}` | " + " | ".join(
            " / ".join(cell(times[suite, q, r]) for q in (1, 3)) for r in RANKS
        ) + " |"

    def best(runs: list[list[float]]) -> str:
        return text(min(runs[0])) + "".join(f" ({text(min(other))})" for other in runs[1:])

    def ratio(runs: list[list[float]]) -> str:
        return f"{statistics.median(a / b for a, b in zip(*runs)):.3f}"

    head = "| Suite | " + " | ".join(f"`r = {r}`" for r in RANKS) + " |"
    rule = "|---" * (len(RANKS) + 1) + "|"
    print(f"Python {sys.version.split()[0]}, best of {ROUNDS} rounds, q = 1 / q = 3")
    print()
    print("\n".join([head, rule, *(row(suite, best) for suite in SUITES)]))
    if len(versions) > 1:
        print()
        print("Median per-round ratio, this version over the parent:")
        print()
        print("\n".join([head, rule, *(row(suite, ratio) for suite in SUITES)]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
