"""Run each workload repeatedly and report how steady its metrics are.

    python3 bench/steady.py                      # 10 seeds per workload
    python3 bench/steady.py --runs 1             # every metric of every workload once
    python3 bench/steady.py --workloads cli --runs 5 --first-seed 11

For each end-to-end metric it prints the median and quartiles over the runs
(``statistics.quantiles(values, n=4)``), the spread (q3 - q1) / median, and the
metric's bound from BENCHMARK.json.  A spread within a third of the bound is
steady; a spread above the bound makes the command exit 1.  It also checks
that the share of failed operations is the same in every run and that each
run reports exactly the declared metrics.  With
``--trace 1`` it repeats the traced run of the first seed and reports which
per-layer figures repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(command)} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(workload: str, results: list[dict], declared: list[dict]) -> bool:
    """Print the table for one workload; return False if a run was not valid
    or the spread of an end-to-end metric is above its bound."""
    ok = True
    shares = {(r["failed"], r["attempted"]) for r in results}
    ratios = {f / a for f, a in shares}
    correct = all(r["correct"] for r in results)
    print(f"\n{workload}: {len(results)} runs, correct={correct}, "
          f"attempted {[r['attempted'] for r in results]}, failed {[r['failed'] for r in results]}, "
          f"failed share {'same in every run' if len(ratios) == 1 else 'DIFFERS'}")
    ok &= correct and len(ratios) == 1
    names = [m["name"] for m in declared]
    for r in results:
        if list(r["metrics"]) != names:
            print(f"  metrics {list(r['metrics'])} differ from BENCHMARK.json {names}")
            ok = False
    print(f"  {'metric':<48} {'unit':<7} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    for m in declared:
        values = [r["metrics"][m["name"]]["value"] for r in results if m["name"] in r["metrics"]]
        if not values:
            continue
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else 0.0
        bound = m.get("bound")
        if bound is None:  # per-layer: counts of one seed should repeat exactly
            verdict = "repeats" if len(set(values)) == 1 else ""
        else:
            verdict = "steady" if spread <= bound / 3 else ("within" if spread <= bound else "WIDE")
            ok &= spread <= bound
        print(f"  {m['name']:<48} {m['unit']:<7} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>7.3f} {bound if bound is not None else '':>6} {verdict}")
    return ok


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    ok = True
    for workload in args.workloads.split(","):
        results = []
        # Traced runs repeat one seed, since their counts must repeat exactly.
        seeds = [args.first_seed + (0 if args.trace else i) for i in range(args.runs)]
        for seed in seeds:
            start = time.perf_counter()
            results.append(run_once(workload, seed, args.seconds, args.trace))
            print(f"{workload} seed {seed}: {time.perf_counter() - start:.1f} s wall", flush=True)
        ok &= summarize(workload, results, declared)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
