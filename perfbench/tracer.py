"""Traced mode: per-layer self time from the benchmark's own files.

The tracer wraps the public entry points of each ``repro`` layer (class
attributes, patched for the traced repetition only and restored after
it) and keeps a stack of open calls.  A call's *self time* is its
duration minus the time its timed child calls cover, so nested layers
(``Runtime.execute`` -> ``VersionRouter.route`` -> ``StickyAssigner
.assign``) are never double-counted and the buckets plus the untimed
remainder (``other``) add up to the traced wall time.

Per-hop calls (routing, execute, metric writes, event emission) only
accumulate a count and self time.  Coarser calls (check evaluations,
journal appends, snapshots, recoveries, request chunks) are also kept
as spans ``(id, parent, bucket, start, end)`` in memory and written out
when the run ends.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter


def _targets():
    """``(class, attribute, bucket, keep_span)`` for every timed call."""
    from repro.bifrost.checks import CheckEvaluator
    from repro.bifrost.engine import BifrostEngine
    from repro.bifrost.journal import Journal, SnapshotStore
    from repro.bifrost.recovery import EngineSupervisor
    from repro.microservices.runtime import Runtime
    from repro.obs.alerts import AlertEngine
    from repro.obs.observer import Observer
    from repro.obs.provenance import ProvenanceTracker
    from repro.routing.assignment import StickyAssigner
    from repro.routing.proxy import VersionRouter
    from repro.simulation.engine import SimulationEngine
    from repro.telemetry.monitor import Monitor
    from repro.telemetry.store import MetricStore
    from repro.topology.streaming import LiveHealthMonitor, StreamingGraphBuilder
    from repro.tracing.collector import TraceCollector
    from repro.traffic.users import UserPopulation

    return [
        (UserPopulation, "__init__", "traffic.population", True),
        (VersionRouter, "route", "routing.route", False),
        (StickyAssigner, "assign", "routing.assign", False),
        (StickyAssigner, "assign_many", "routing.assign", False),
        (Runtime, "execute", "microservices.execute", False),
        (SimulationEngine, "run_until", "simulation.dispatch", False),
        (TraceCollector, "record", "tracing.record", False),
        (TraceCollector, "record_all", "tracing.record", False),
        (TraceCollector, "record_trace", "tracing.record", False),
        (Monitor, "observe_span", "telemetry.write", False),
        (Monitor, "observe_spans", "telemetry.write", False),
        (Monitor, "observe_resilience", "telemetry.write", False),
        (MetricStore, "record", "telemetry.write", False),
        (MetricStore, "extend", "telemetry.write", False),
        (MetricStore, "extend_columns", "telemetry.write", False),
        (MetricStore, "values_in_window", "telemetry.read", False),
        (MetricStore, "aggregate", "telemetry.aggregate", False),
        (MetricStore, "snapshot", "telemetry.snapshot", True),
        (CheckEvaluator, "evaluate", "bifrost.check", True),
        (Journal, "append", "bifrost.journal", True),
        (BifrostEngine, "take_snapshot", "bifrost.snapshot", True),
        (SnapshotStore, "save", "bifrost.snapshot", True),
        (EngineSupervisor, "restart", "bifrost.recovery", True),
        (Observer, "emit", "obs.emit", False),
        (ProvenanceTracker, "record", "obs.provenance", False),
        (AlertEngine, "evaluate", "obs.alert", True),
        (StreamingGraphBuilder, "on_trace", "topology.ingest", False),
        (LiveHealthMonitor, "publish", "topology.publish", True),
    ]


class Tracer:
    """Self-time accounting over patched layer entry points."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.durations: defaultdict[str, list[float]] = defaultdict(list)
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        # One frame per open call: [child time covered, nearest kept span id].
        self._stack: list[list] = []
        self._next_id = 1
        self._patches: list[tuple[type, str, object]] = []

    # -- patching ------------------------------------------------------------

    def install(self) -> "Tracer":
        for cls, attr, bucket, keep in _targets():
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, bucket, keep))
        return self

    def uninstall(self) -> None:
        for cls, attr, original in reversed(self._patches):
            setattr(cls, attr, original)
        self._patches.clear()

    def _wrap(self, fn, bucket: str, keep: bool):
        tracer = self

        def timed(*args, **kwargs):
            return tracer._timed(bucket, keep, fn, args, kwargs)

        timed.__name__ = getattr(fn, "__name__", bucket)
        timed.__doc__ = getattr(fn, "__doc__", None)
        return timed

    # -- accounting ----------------------------------------------------------

    def region(self, bucket: str, fn, *args, **kwargs):
        """Time a call the benchmark itself makes into a layer."""
        return self._timed(bucket, True, fn, args, kwargs)

    def _timed(self, bucket: str, keep: bool, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1][1] if stack else None
        if keep:
            span_id = self._next_id
            self._next_id += 1
        else:
            span_id = parent
        frame = [0.0, span_id]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            elapsed = t1 - t0
            self.self_s[bucket] += elapsed - frame[0]
            self.calls[bucket] += 1
            if stack:
                stack[-1][0] += elapsed
            if keep:
                self.durations[bucket].append(elapsed)
                self.spans.append((span_id, parent, bucket, t0, t1))

    def reset(self) -> None:
        """Forget accumulated times (spans already kept stay kept)."""
        self.self_s.clear()
        self.calls.clear()
        self.durations.clear()
