"""Benchmark entry point.

    python3 perfbench/run.py --workload canary-scalar --seed 1 --seconds 25 --trace 0

Runs repetitions of one workload (set-up + drive to verdict) until
``--seconds`` have passed.  Repetition 0 is a warm-up: it is checked
like every other but not measured.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``:

- ``--trace 0``: the end-to-end metrics, medians over the measured
  repetitions, timings at reference host speed (see ``hostclock.py``);
- ``--trace 1``: measured repetitions alternate traced / untraced, and
  the per-layer split of the median traced repetition is reported
  together with the tracing overhead.

An *operation* is one submitted strategy.  It fails when its verdict
differs from the designed one, when its repetition raises, or when an
output check of its repetition fails.  A full run record (raw and
normalised timings, the ``host.ref_ms`` series, counters, environment)
and, in traced mode, the kept spans are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Strategies each workload submits per repetition (its operations).
STRATEGIES = {"canary-scalar": 1, "canary-batch": 1, "hostile-durable": 16}

#: Repetitions a run makes at least: the warm-up plus two measured ones
#: (one traced and one untraced in traced mode).
MIN_REPS = 3


class Driver:
    """What a workload calls to time its set-up and verdict stretches."""

    def __init__(self, clock, tracer=None) -> None:
        self.clock = clock
        self.tracer = tracer
        self.setup_watch = clock.stopwatch()
        self.verdict_watch = None
        self.requests = 0
        self.population_raw = 0.0

    def _call(self, bucket, fn, args, kwargs):
        if self.tracer is not None and bucket is not None:
            return self.tracer.region(bucket, fn, *args, **kwargs)
        return fn(*args, **kwargs)

    def setup(self, bucket, fn, *args, **kwargs):
        return self.setup_watch.call(self._call, bucket, fn, args, kwargs)

    def start_verdict(self) -> None:
        self.setup_watch.close()
        if self.tracer is not None:
            self.population_raw = self.tracer.self_s["traffic.population"]
            self.tracer.reset()
        self.verdict_watch = self.clock.stopwatch()

    def step(self, bucket, fn, *args, requests=None, **kwargs):
        """One closed-loop step; ``requests`` marks a data-plane call."""
        if requests is not None:
            self.requests += requests
        return self.verdict_watch.call(
            self._call, bucket, fn, args, kwargs, inner=requests is not None
        )

    def end_verdict(self) -> None:
        self.verdict_watch.close()
        if self.tracer is not None:
            # The output checks after the verdict call into the same
            # layers; they must not count toward the split.
            self.tracer.uninstall()

    def scratch_dir(self, name: str) -> str:
        OUT.mkdir(exist_ok=True)
        return tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _pct(values: list[float], p: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return quantiles(values, n=100, method="inclusive")[p - 1]


def _run_rep(workload, seed: int, clock, tracer) -> dict:
    gc.collect()
    driver = Driver(clock, tracer)
    record = {"traced": tracer is not None, "problems": [], "wrong_verdicts": 0,
              "counters": {}}
    if tracer is not None:
        tracer.install()
    try:
        rep = workload(seed, driver)
    except Exception:  # a raising repetition fails all of its operations
        record["problems"].append(traceback.format_exc())
        record["raised"] = True
        return record
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup, verdict = driver.setup_watch, driver.verdict_watch
    record.update(
        wrong_verdicts=rep.wrong_verdicts,
        counters=rep.counters,
        problems=rep.problems,
        requests=driver.requests,
        setup_raw_s=setup.raw,
        setup_s=setup.seconds,
        setup_factor=setup.factor,
        verdict_raw_s=verdict.raw,
        verdict_s=verdict.seconds,
        verdict_factor=verdict.factor,
        run_raw_s=verdict.inner_raw,
        requests_per_s=driver.requests / verdict.inner_seconds,
        requests_per_s_raw=driver.requests / verdict.inner_raw,
        verdict_times=verdict.times,
        verdict_refs=verdict.refs,
    )
    if tracer is not None:
        record["population_s"] = driver.population_raw * setup.factor
        record["self_s"] = dict(tracer.self_s)
        record["calls"] = dict(tracer.calls)
        record["durations"] = {k: list(v) for k, v in tracer.durations.items()}
        record["spans"] = tracer.spans
        tracer.spans = []
        tracer.reset()
    return record


#: Tracer buckets that make up each reported per-layer time.
_LAYER_TIMES = {
    "traffic.gen_s": ("traffic.gen",),
    "routing.route_s": ("routing.route",),
    "routing.assign_s": ("routing.assign",),
    "microservices.execute_self_s": ("microservices.execute",),
    "simulation.batch_s": ("simulation.batch",),
    "simulation.dispatch_s": ("simulation.dispatch",),
    "tracing.record_s": ("tracing.record",),
    "telemetry.write_s": ("telemetry.write",),
    "telemetry.read_s": ("telemetry.read", "telemetry.aggregate"),
    "telemetry.snapshot_s": ("telemetry.snapshot",),
    "bifrost.check_s": ("bifrost.check",),
    "bifrost.journal_s": ("bifrost.journal",),
    "bifrost.snapshot_s": ("bifrost.snapshot",),
    "bifrost.recovery_s": ("bifrost.recovery",),
    "obs.emit_s": ("obs.emit", "obs.provenance"),
    "obs.alert_s": ("obs.alert",),
    "topology.ingest_s": ("topology.ingest", "topology.publish"),
}

_COUNTS = (
    "traffic.requests", "routing.routes", "microservices.retries",
    "microservices.error_ratio", "simulation.fallback_share",
    "simulation.events", "tracing.spans", "tracing.traces_retained",
    "telemetry.samples", "telemetry.snapshots", "bifrost.check_evals",
    "bifrost.journal_appends", "bifrost.decisions", "obs.events",
    "obs.alert_evals", "topology.traces_ingested",
)

_UNITS = {"_s": "s", "_us_p50": "us", "_us_p99": "us", "_ms": "ms",
          "_ratio": "ratio", "_share": "ratio"}


def _unit(name: str) -> str:
    for suffix, unit in _UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def _layer_metrics(traced: dict, untraced: list[dict], clock, failed_ratio: float) -> dict:
    factor = traced["verdict_factor"]
    self_s = traced["self_s"]
    values = {name: traced["counters"][name] for name in _COUNTS}
    values["traffic.population_s"] = traced["population_s"]
    values["telemetry.reads"] = traced["calls"].get("telemetry.read", 0)
    attributed = 0.0
    for name, buckets in _LAYER_TIMES.items():
        seconds = sum(self_s.get(b, 0.0) for b in buckets) * factor
        values[name] = seconds
        attributed += seconds
    for layer in ("check", "journal"):
        durations = traced["durations"].get(f"bifrost.{layer}", [])
        scaled = [d * factor * 1e6 for d in durations]
        values[f"bifrost.{layer}_us_p50"] = _pct(scaled, 50)
        values[f"bifrost.{layer}_us_p99"] = _pct(scaled, 99)
    values["other.self_s"] = traced["verdict_s"] - attributed
    values["host.ref_ms"] = median(clock.ref_ms)
    plain = median(r["verdict_s"] for r in untraced)
    values["trace.untraced_verdict_s"] = plain
    values["trace.traced_verdict_s"] = traced["verdict_s"]
    values["trace.overhead_ratio"] = traced["verdict_s"] / plain - 1.0
    values["failed_ratio"] = failed_ratio
    return {name: {"value": value, "unit": _unit(name)} for name, value in sorted(values.items())}


def _e2e_metrics(measured: list[dict]) -> dict:
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": {"value": median(r["setup_s"] for r in measured), "unit": "s"},
        "verdict_s": {"value": median(r["verdict_s"] for r in measured), "unit": "s"},
        "requests_per_s": {
            "value": median(r["requests_per_s"] for r in measured), "unit": "1/s"
        },
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(STRATEGIES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from hostclock import HostClock, assert_single_thread
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    clock = HostClock()
    tracer = Tracer() if args.trace else None
    started = time.perf_counter()
    reps: list[dict] = []
    while len(reps) < MIN_REPS or time.perf_counter() - started < args.seconds:
        index = len(reps)
        traced = tracer if (tracer is not None and index % 2 == 1) else None
        record = _run_rep(workload, args.seed, clock, traced)
        record["index"] = index
        reps.append(record)
    assert_single_thread()

    n = STRATEGIES[args.workload]
    attempted = n * len(reps)
    failed = 0
    problems: list[str] = []
    for record in reps:
        if record.get("raised") or len(record["problems"]) > record["wrong_verdicts"]:
            failed += n  # an output check covers every strategy of its rep
        else:
            failed += record["wrong_verdicts"]
        problems.extend(f"rep {record['index']}: {p}" for p in record["problems"])
    measured = [r for r in reps[1:] if not r.get("raised")]
    plain = [r for r in measured if not r["traced"]]
    traced_reps = sorted((r for r in measured if r["traced"]), key=lambda r: r["verdict_s"])
    run_problems = []
    counters = [r["counters"] for r in reps if not r.get("raised")]
    if any(c != counters[0] for c in counters):
        run_problems.append("work counters differ between repetitions of one seed")
    if not plain or (tracer is not None and not traced_reps):
        run_problems.append("no measured repetition completed")
    chosen = traced_reps[(len(traced_reps) - 1) // 2] if traced_reps else None
    if chosen and chosen["calls"].get("routing.route", 0) != chosen["counters"]["routing.routes"]:
        run_problems.append("traced route calls != routing.routes counter")
    if run_problems:
        failed = attempted  # these checks cover every repetition
    problems.extend(run_problems)
    correct = not problems

    metrics = {}
    if plain and tracer is None:
        metrics = _e2e_metrics(plain)
    elif plain and chosen:
        metrics = _layer_metrics(chosen, plain, clock, failed / attempted)

    _write_record(args, reps, clock, metrics, correct, attempted, failed)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _write_record(args, reps, clock, metrics, correct, attempted, failed) -> None:
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    spans = [(r["index"], r.pop("spans")) for r in reps if "spans" in r]
    for r in reps:
        r.pop("durations", None)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "commit": _commit(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "host_ref_ms": clock.ref_ms,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "reps": reps,
    }
    (OUT / f"run-{stem}.json").write_text(json.dumps(record, indent=1))
    if spans:
        with open(OUT / f"spans-{stem}.jsonl", "w") as handle:
            for index, rep_spans in spans:
                for span in rep_spans:
                    handle.write(json.dumps([index, *span]) + "\n")


if __name__ == "__main__":
    sys.exit(main())
