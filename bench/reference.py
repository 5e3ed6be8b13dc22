"""One-off reference figures for the costs the ROADMAP baseline table lists.

    python3 bench/reference.py

Takes about a minute, most of it in check_ring_iso at r=2.  Each figure is the
median of a few calls (one call for those over a second), on inputs from the
benchmark's seeded generator, and every answer is checked against the oracle.
The times are as measured, except the import's, which comes from the set-up
probe and is scaled to the reference host speed of ``hostspeed.py``.
"""

from __future__ import annotations

import random
import statistics
import sys
from time import perf_counter

import inputs
import oracle
import run
from probe import import_program


def timed(fn, repeats: int) -> tuple[float, object]:
    times, result = [], None
    for _ in range(repeats):
        t0 = perf_counter()
        result = fn()
        times.append(perf_counter() - t0)
    return statistics.median(times), result


def main() -> int:
    wc = import_program()
    rng = random.Random("reference")
    cfg = wc.make_config(3, 2)
    rows = []

    for k in (64, 256, 1024):
        e = wc.parse_form(inputs.form_text(rng, inputs.random_form(rng, 2, k), 3), cfg)
        seconds, same = timed(lambda: wc.equals(e, e), 3 if k < 1024 else 1)
        assert same is True
        rows.append((f"`equals(e, e)`, `r=2`, `k={k}`", seconds))

    a, b = inputs.random_pair(rng, 3, 2, 2048, 2048, "disc")
    e, f = (wc.parse_form(inputs.form_text(rng, x, 3), cfg) for x in (a, b))
    seconds, equal = timed(lambda: wc.equals(e, f), 5)
    assert equal is oracle.witt_equal(a, b, 3)
    rows.append(("`equals(e, f)`, random `e, f`, `k=2048`", seconds))

    for r in (1, 2):
        report_cfg = wc.make_config(3, r)
        seconds, report = timed(lambda: wc.check_ring_iso(report_cfg), 1)
        assert report.passed and report.addition_pairs_checked == oracle.ring_pairs(r)
        rows.append((f"`check_ring_iso`, `r={r}`", seconds))

    census_cfg = wc.make_config(3, 4)
    seconds, census = timed(lambda: wc.enumerate_classes(census_cfg), 5)
    assert {s.name: c for s, c in census.shape_counts} == oracle.census(4)
    rows.append(("`enumerate_classes`, `r=4`", seconds))

    _, import_ms = run.measure_setup("verify", 1)
    rows.append(("`import wittcurve`", import_ms / 1e3))

    print("| Operation | Time |\n|---|---|")
    for label, seconds in rows:
        shown = f"{seconds:.2f} s" if seconds >= 1 else f"{1e3 * seconds:.3g} ms"
        print(f"| {label} | {shown} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
