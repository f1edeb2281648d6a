"""Host-speed reference and normalised stopwatches.

The benchmark runs on a shared 2-core host whose speed drifts by tens of
percent over minutes because of contention from other tenants.  Process
CPU time does not remove that drift (it tracks wall time), so every
timed stretch of workload is interleaved with a short *reference loop*
of fixed work, and workload time is reported at reference host speed:

    normalised = raw * NOMINAL_REF_MS / mean(reference slices around it)

A reference slice has two parts.  An integer LCG measures the share of
a core the process gets.  A pointer chase through an 8 MB table
measures how much the neighbours' cache and memory traffic slows
memory-bound work: the ALU part alone under-corrects the workloads,
whose working sets are far larger than a core's caches.  The slice is
pure Python, allocates no GC-tracked objects (only ints; the table is an
``array`` built once), never calls into ``repro`` and only runs while
the main thread is the only thread alive, so neither the program's
garbage collection nor another thread is ever paid inside it.
"""

from __future__ import annotations

import threading
from array import array
from statistics import fmean
from time import perf_counter

#: LCG iterations and pointer-chase steps of one reference slice.
REF_ITERATIONS = 10_000
REF_CHASE_STEPS = 6_000

#: Entries of the chase table (8 MB of int64).
CHASE_SIZE = 1 << 20

#: Duration of one reference slice on the quiet reference host, in ms: the
#: fastest slices on a 2-vCPU x86-64 VM running CPython 3.11 took ~1.6 ms.
NOMINAL_REF_MS = 1.6


def _chase_table() -> array:
    """A single-cycle permutation of the table's indices (a full-period
    LCG), so following ``i -> table[i]`` jumps across the table."""
    mask = CHASE_SIZE - 1
    return array("q", ((i * 1103515245 + 12345) & mask for i in range(CHASE_SIZE)))


def _reference_loop(n: int, steps: int, table: array) -> int:
    x = 0
    for _ in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    i = 0
    for _ in range(steps):
        i = table[i]
    return x ^ i


def assert_single_thread() -> None:
    """Raise unless the main thread is the only thread alive."""
    count = threading.active_count()
    if count != 1:
        raise RuntimeError(
            f"{count} threads alive while timing; the benchmark must be "
            "single-threaded"
        )


class HostClock:
    """Takes reference slices and keeps their series (``host.ref_ms``)."""

    def __init__(self) -> None:
        self.ref_ms: list[float] = []
        self._table = _chase_table()

    def reference(self) -> float:
        """Time one reference slice; returns and records it in ms."""
        assert_single_thread()
        t0 = perf_counter()
        _reference_loop(REF_ITERATIONS, REF_CHASE_STEPS, self._table)
        elapsed = (perf_counter() - t0) * 1e3
        self.ref_ms.append(elapsed)
        return elapsed

    def stopwatch(self) -> "Stopwatch":
        return Stopwatch(self)


class Stopwatch:
    """Accumulates raw host time of workload calls.

    Each :meth:`call` is preceded by one reference slice; :meth:`close`
    takes the closing slice.  ``factor`` converts raw seconds measured
    between these slices to reference host speed.
    """

    def __init__(self, clock: HostClock) -> None:
        self.clock = clock
        self.raw = 0.0
        self.refs: list[float] = []
        #: Raw time of the calls tagged ``inner=True`` (a subset of raw).
        self.inner_raw = 0.0
        #: Raw duration of each call, in call order.
        self.times: list[float] = []

    def call(self, fn, *args, inner: bool = False, **kwargs):
        self.refs.append(self.clock.reference())
        assert_single_thread()
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - t0
            self.raw += elapsed
            self.times.append(elapsed)
            if inner:
                self.inner_raw += elapsed

    def close(self) -> "Stopwatch":
        self.refs.append(self.clock.reference())
        return self

    @property
    def factor(self) -> float:
        return NOMINAL_REF_MS / fmean(self.refs)

    @property
    def seconds(self) -> float:
        """Raw time at reference host speed."""
        return self.raw * self.factor

    @property
    def inner_seconds(self) -> float:
        return self.inner_raw * self.factor
