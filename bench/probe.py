"""Time one set-up in a fresh interpreter: import the package, then build a
workload's inputs as library objects.

    python3 bench/probe.py <workload> <seed>

Prints one JSON line with ``import_s`` and ``build_s``, both scaled to the
reference host speed of ``hostspeed.py``, and ``unscaled_s``, their sum as
measured.  The import and then each spec's build are scaled as they end,
by ``HostSpeed.scale``.
Before the import is timed, only ``sys``, ``time``, ``os`` and ``hostspeed``
are loaded, and ``hostspeed`` loads nothing the interpreter has not loaded
at start-up but the built-in ``gc``, so the import costs what a user's first
``import wittcurve`` costs; generating the inputs is not timed.
"""

import os
import sys
import time

import hostspeed

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))


def import_program():
    """Import the package from this checkout's ``src``, and no other copy."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import wittcurve

    if os.path.dirname(os.path.realpath(wittcurve.__file__)) != os.path.join(src, "wittcurve"):
        raise SystemExit(f"error: imported {wittcurve.__file__}, not the checkout's package")
    return wittcurve


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    speed = hostspeed.HostSpeed()
    t0 = time.perf_counter()
    wc = import_program()
    unscaled_s = time.perf_counter() - t0
    import_s = speed.scale(unscaled_s)

    import json
    from pathlib import Path

    import inputs
    import workloads

    specs = inputs.generate(workload, seed)
    configs: dict = {}
    build_s = 0.0
    for spec in specs:
        t1 = time.perf_counter()
        workloads.build(workload, [spec], wc, Path(ROOT), configs=configs)
        dt = time.perf_counter() - t1
        build_s += speed.scale(dt)
        unscaled_s += dt
    print(json.dumps({"import_s": import_s, "build_s": build_s, "unscaled_s": unscaled_s}))


if __name__ == "__main__":
    main()
