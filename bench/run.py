"""Run one workload of the wittcurve benchmark and print its metrics.

    python3 bench/run.py --workload short-mix --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is taken from ``src/`` of the checkout that
holds this file.  Each workload is a closed loop in one process that repeats
a fixed, seeded cycle of operations and only ever runs whole cycles.  With
``--trace 0`` the operations run for ``--seconds``, set-ups are timed in fresh
interpreters at evenly spaced times between them, and the run reports
end-to-end metrics, every timing scaled to the reference host speed of
``hostspeed.py``; with ``--trace 1`` it runs a fixed number of cycles
untraced and then traced, and reports per-layer metrics.  The last line of
output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import hostspeed
import inputs
import oracle
import tracer
import workloads
from probe import import_program

ROOT = Path(__file__).resolve().parent.parent
# Set-ups timed in fresh interpreters per run, spread evenly over the run;
# setup_s is their median.
SETUP_PROBES = 21
# Whole cycles in a traced run, so its counts repeat exactly.
TRACE_CYCLES = {"short-mix": 5, "long-forms": 1, "verify": 1, "cli": 4}
FIGURE_UNITS = {
    "decide_entries_per_s": "entries/s",
    "parse_entries_per_s": "entries/s",
    "verify_pairs_per_s": "pairs/s",
    "census_classes_per_s": "classes/s",
}


# Latencies kept per operation; beyond this the kept ones are thinned so that
# the benchmark's memory does not grow with the length of a run.
SAMPLES_KEPT = 512


class Samples:
    """Latencies of one operation, at most SAMPLES_KEPT, evenly spaced over the run.

    When the store fills, every other kept latency is dropped and from then
    on only every other new one is kept, so the kept ones stay spread over
    the whole run.
    """

    def __init__(self) -> None:
        self.kept = array("d")
        self.stride = 1
        self.seen = 0

    def add(self, seconds: float) -> None:
        if self.seen % self.stride == 0:
            self.kept.append(seconds)
            if len(self.kept) == SAMPLES_KEPT:
                self.kept = self.kept[::2]
                self.stride *= 2
        self.seen += 1


@dataclass
class Outcome:
    """What a run did: count, total and sampled latencies of each distinct operation of the cycle.

    Totals are as measured; the samples and their sum ``scaled_s`` are scaled
    to reference speed when a HostSpeed is given.
    """

    count: Counter = field(default_factory=Counter)
    total: Counter = field(default_factory=Counter)
    samples: defaultdict = field(default_factory=lambda: defaultdict(Samples))
    cycles: int = 0
    failed: int = 0
    wrong: Counter = field(default_factory=Counter)
    work: Counter = field(default_factory=Counter)
    work_time: Counter = field(default_factory=Counter)
    scaled_s: float = 0.0

    @property
    def attempted(self) -> int:
        return sum(self.count.values())

    @property
    def busy_s(self) -> float:
        return sum(self.total.values())

    def record(self, key: tuple, dt: float, speed: hostspeed.HostSpeed | None) -> None:
        self.count[key] += 1
        self.total[key] += dt
        if speed is not None:
            dt = speed.scale(dt)
        self.scaled_s += dt
        self.samples[key].add(dt)

    def median_s(self) -> dict[tuple, float]:
        return {key: statistics.median(kept.kept) for key, kept in self.samples.items()}


class SetupProbes:
    """Set-ups timed in fresh interpreters, due at evenly spaced times of a run.

    The host runs faster and slower in spells of a second or more, so set-ups
    timed back to back all fall in one spell; spread over the run, their
    median sees the same mix of spells as the operations do.
    """

    def __init__(self, workload: str, seed: int, count: int, seconds: float) -> None:
        self.workload, self.seed = workload, seed
        self.due = [i * seconds / count for i in range(count)]
        self.setups: list[float] = []
        self.unscaled: list[float] = []
        self.imports: list[float] = []

    def run_due(self, elapsed: float | None = None) -> float:
        """Run every probe due by ``elapsed`` seconds (all of them if None); return the time taken."""
        t0 = perf_counter()
        while self.due and (elapsed is None or self.due[0] <= elapsed):
            self.due.pop(0)
            sample = probe_setup(self.workload, self.seed)
            self.setups.append(sample["import_s"] + sample["build_s"])
            self.imports.append(sample["import_s"])
            self.unscaled.append(sample["unscaled_s"])
        return perf_counter() - t0

    def medians(self) -> tuple[float, float]:
        """Median set-up time (s) and median import time (ms), at reference speed."""
        return statistics.median(self.setups), 1e3 * statistics.median(self.imports)


def run_cycles(ops: list[workloads.Op], seconds: float | None = None,
               cycles: int | None = None, probes: SetupProbes | None = None,
               speed: hostspeed.HostSpeed | None = None) -> Outcome:
    """Repeat the cycle for ``seconds`` (finishing the cycle under way) or ``cycles`` times.

    ``probes`` are run between operations when due; their time does not count
    towards ``seconds``.  With ``speed``, the sampled latencies are scaled to
    the reference host speed; totals stay as measured.
    """
    out = Outcome()
    keys = [op.spec.key for op in ops]
    reported: set[str] = set()
    start = perf_counter()
    probing = 0.0
    while (out.cycles < cycles) if cycles is not None else (
        out.cycles == 0 or perf_counter() - start - probing < seconds
    ):
        for op, key in zip(ops, keys):
            if probes is not None:
                probing += probes.run_due(perf_counter() - start - probing)
            t0 = perf_counter()
            try:
                result = op.run()
            except Exception:  # a raising operation is a failed one; keep going
                dt = perf_counter() - t0
                out.record(key, dt, speed)
                out.failed += 1
                if op.spec.kind not in reported:
                    reported.add(op.spec.kind)
                    print(f"operation {op.spec.kind} raised:", file=sys.stderr)
                    traceback.print_exc(file=sys.stderr)
                continue
            dt = perf_counter() - t0
            out.record(key, dt, speed)
            if op.check(result):
                if op.figure is not None:
                    out.work[op.figure] += op.work(result)
                    out.work_time[op.figure] += dt
            elif op.known_fault:
                out.failed += 1
            else:
                out.wrong[op.spec.kind] += 1
        out.cycles += 1
    return out


def probe_setup(workload: str, seed: int) -> dict[str, float]:
    """One set-up timed in a fresh interpreter, as ``probe.py`` prints it."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "probe.py"), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure_setup(workload: str, seed: int, count: int = SETUP_PROBES) -> tuple[float, float]:
    """Median set-up time (s) and median import time (ms) over ``count`` set-ups in a row."""
    probes = SetupProbes(workload, seed, count, 0.0)
    probes.run_due()
    return probes.medians()


def peak_rss_mb(workload: str, ops: list[workloads.Op]) -> float:
    """Peak resident memory of this process, or of the largest CLI child for ``cli``."""
    if workload == "cli":
        return max(op.child_peak_kb for op in ops) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(out: Outcome, setup_s: float, peak_mb: float) -> dict:
    """The end-to-end metrics of an untraced run.

    Each distinct operation of the cycle is taken at its median latency over
    the run, scaled to the reference host speed.  ``ops_per_s`` is the
    operations of one cycle over the time the cycle takes at those
    latencies, and the percentiles are over the cycle's operations, so the
    mix behind them is the same in every run.  Medians rather than means, so
    that a repeat slowed by an interrupt or a garbage collection does not
    move them.
    """
    median = out.median_s()
    per_cycle = {key: n / out.cycles for key, n in out.count.items()}
    cycle_s = sum(median[key] * n for key, n in per_cycle.items())
    typical = sorted(median.values())
    values = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (sum(per_cycle.values()) / cycle_s, "ops/s"),
        "op_ms_p50": (1e3 * statistics.median(typical), "ms"),
        "op_ms_p90": (1e3 * statistics.quantiles(typical, n=10, method="inclusive")[8], "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def report_outcome(out: Outcome, label: str) -> None:
    print(f"{label}: {out.cycles} cycles, {out.attempted} operations, "
          f"{out.failed} failed, {sum(out.wrong.values())} wrong, {out.busy_s:.3f} s busy")
    for kind, count in sorted(out.wrong.items()):
        print(f"  WRONG {kind}: {count}")
    for figure, work in sorted(out.work.items()):
        print(f"  {figure} {work / out.work_time[figure]:.6g} {FIGURE_UNITS[figure]}")
    count: Counter = Counter()
    total: Counter = Counter()
    for key, n in out.count.items():
        count[key[0]] += n
        total[key[0]] += out.total[key]
    for kind in sorted(count):
        print(f"  {kind}: {count[kind]} operations, mean {1e3 * total[kind] / count[kind]:.4g} ms")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wittcurve" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'wittcurve'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    oracle.self_check()

    specs = inputs.generate(args.workload, args.seed)
    print(f"inputs {args.workload} seed {args.seed}: {len(specs)} operations per cycle, "
          f"sha256 {inputs.digest(specs)}")
    wc = import_program()

    if args.trace:
        _, import_ms = measure_setup(args.workload, args.seed)
        ops = workloads.build(args.workload, specs, wc, ROOT, in_process=True)
        cycles = TRACE_CYCLES[args.workload]
        # The overhead compares two passes run at different times, so both
        # are scaled to reference speed.
        speed = hostspeed.HostSpeed()
        plain = run_cycles(ops, cycles=cycles, speed=speed)
        spans = tracer.Tracer()
        for name in spans.install(wc):
            print(f"warning: the package has no {name}; its per-layer metrics read 0",
                  file=sys.stderr)
        try:
            traced = run_cycles(ops, cycles=cycles, speed=speed)
        finally:
            spans.uninstall()
        overhead = traced.scaled_s / plain.scaled_s
        report_outcome(plain, "untraced")
        report_outcome(traced, "traced")
        print(f"tracing overhead: traced run takes {overhead:.3f}x the untraced run, "
              f"at reference speed")
        path = ROOT / "bench" / "out" / f"spans-{args.workload}-seed{args.seed}.tsv"
        spans.write(path)
        print(f"{len(spans.name)} spans written to {path.relative_to(ROOT)}")
        metrics = tracer.per_layer_metrics(spans, cycles, import_ms, overhead)
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
        correct = not plain.wrong and not traced.wrong
    else:
        ops = workloads.build(args.workload, specs, wc, ROOT)
        probes = SetupProbes(args.workload, args.seed, SETUP_PROBES, args.seconds)
        speed = hostspeed.HostSpeed()
        out = run_cycles(ops, seconds=args.seconds, probes=probes, speed=speed)
        probes.run_due()
        setup_s, _ = probes.medians()
        report_outcome(out, "run")
        print(f"host speed: {speed.count} measurements taking {speed.spent:.3f} s; unscaled, "
              f"{out.attempted / out.busy_s:.6g} operations per busy second and "
              f"set-up {statistics.median(probes.unscaled):.6g} s")
        metrics = end_to_end(out, setup_s, peak_rss_mb(args.workload, ops))
        attempted, failed, correct = out.attempted, out.failed, not out.wrong

    for name, metric in metrics.items():
        print(f"  {name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
