"""Host speed, measured by a fixed pure-Python snippet, to scale timings by.

The benchmark runs on shared virtual machines whose speed drops by up to
half, for spells from milliseconds to minutes, as other tenants come and go.
Every timing the benchmark reports is therefore scaled to a reference speed:
a latency ``dt`` measured while the snippet below takes ``c`` seconds is
reported as ``dt * REFERENCE_S / c``, the time it would take on a host where
the snippet takes ``REFERENCE_S``.  For work longer than ``EVERY_S``, ``c`` is
the mean of the snippet's time just before and just after it.

The snippet does what the package does most (small objects with ``__slots__``
and ``__add__``, XOR on small integers, tuple keys in a dict, string
formatting) and imports nothing, so it costs the same in every checkout and
in a fresh interpreter.  This module loads nothing that a fresh interpreter
has not loaded already, apart from the built-in ``gc``, so a set-up probe can
measure before it imports the package.

    speed = HostSpeed()           # measures the speed before the first timing
    ...
    scaled = speed.scale(dt)      # just after each timed piece of work
"""

import gc
from collections import deque
from time import perf_counter

# Seconds the snippet takes at the reference speed (about what it takes on
# the 2-vCPU Xeon VM the benchmark was written on, with CPython 3.11).
REFERENCE_S = 0.75e-3
# Seconds between measurements while operations run.
EVERY_S = 0.01
# Measurements whose median gives the current speed.
KEEP = 3


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def __add__(self, other: "_Pair") -> "_Pair":
        return _Pair(self.a ^ other.a, self.b ^ other.b)


def snippet() -> str:
    """The fixed work whose duration measures the host's speed."""
    acc = _Pair(0, 0)
    seen: dict[tuple[int, int], int] = {}
    for i in range(400):
        acc = acc + _Pair(i & 7, (i >> 3) & 15)
        key = (acc.a, acc.b)
        seen[key] = seen.get(key, 0) + 1
    bits = [(i * 2654435761) & 0xFFFF for i in range(200)]
    parity = 0
    for x in bits:
        parity ^= x.bit_count() & 1
    return ",".join(f"{a}.{b}:{n}" for (a, b), n in sorted(seen.items())) + str(parity)


def measure(times: int = 1) -> float:
    """Median seconds the snippet takes over ``times`` runs.

    The garbage collector is off meanwhile: a collection would cost what the
    caller's heap holds, not what the host's speed is.
    """
    samples = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(times):
            t0 = perf_counter()
            snippet()
            samples.append(perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return median(samples)


class HostSpeed:
    """The host's current speed, re-measured at most every EVERY_S seconds."""

    def __init__(self) -> None:
        self.recent: deque[float] = deque(maxlen=KEEP)
        self.count = 0
        self.spent = 0.0
        self.last = 0.0
        measure(3)  # warm the snippet up before it is trusted
        self._measure(KEEP)

    def _measure(self, times: int) -> None:
        t0 = perf_counter()
        for _ in range(times):
            self.recent.append(measure())
        self.last = perf_counter()
        self.count += times
        self.spent += self.last - t0

    def scale(self, dt: float) -> float:
        """``dt``, the time of work that has just ended, at reference speed.

        Work shorter than EVERY_S is scaled by the current speed, measured
        again if EVERY_S has passed.  Longer work is scaled by the mean of
        the speed just before it and just after it, so that a change of speed
        while it ran counts half.
        """
        if dt < EVERY_S:
            if perf_counter() - self.last >= EVERY_S:
                self._measure(1)
            return dt * REFERENCE_S / median(self.recent)
        before = median(self.recent)
        self._measure(KEEP)
        return dt * REFERENCE_S / ((before + median(self.recent)) / 2)


def median(values) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2
