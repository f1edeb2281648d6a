"""The three benchmark workloads, each one full experiment per repetition.

A repetition builds everything from scratch (set-up), then drives
requests in closed-loop chunks until every submitted strategy reached a
terminal outcome (verdict).  All calls go through the public ``repro``
API.  See ``perfbench/README.md`` for why each workload looks the way
it does.
"""

from __future__ import annotations

import itertools
import os
import shutil
from dataclasses import dataclass, field

from repro.bifrost import Bifrost, SnapshotPolicy
from repro.bifrost.journal import FileJournalStorage, Journal, execution_to_dict
from repro.bifrost.model import Check, Phase, PhaseType, Strategy, StrategyOutcome
from repro.bifrost.recovery import RecoveryManager
from repro.microservices.application import Application
from repro.microservices.faults import (
    EngineCrash,
    ErrorBurst,
    FaultCampaign,
    FaultInjector,
    LatencySpike,
)
from repro.microservices.resilience import CallPolicy, ResilienceLayer
from repro.microservices.service import DownstreamCall, EndpointSpec, ServiceVersion
from repro.obs import AlertRule, Observer
from repro.obs.provenance import build_provenance
from repro.simulation.latency import ConstantLatency, LoadSensitiveLatency, LogNormalLatency
from repro.traffic.batch import BatchWorkloadGenerator
from repro.traffic.profile import DEFAULT_GROUPS
from repro.traffic.users import UserPopulation
from repro.traffic.workload import WorkloadGenerator

COMPLETED = StrategyOutcome.COMPLETED
ROLLED_BACK = StrategyOutcome.ROLLED_BACK

#: Simulated seconds of traffic a repetition may use before it gives up
#: waiting for a verdict (every designed verdict lands well before).
MAX_TRAFFIC_S = 120.0


@dataclass
class Rep:
    """What one repetition produced, besides the driver's stopwatches."""

    wrong_verdicts: int = 0
    counters: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)


def _seeds(seed: int) -> tuple[int, int, int]:
    """(population, workload, runtime) seeds derived from ``--seed``."""
    return seed * 7 + 1, seed * 7 + 2, seed * 7 + 3


def _take(stream, n: int) -> list:
    return list(itertools.islice(stream, n))


def _drain(bifrost: Bifrost, events: int) -> int:
    """Step the engine-only tail: at most *events* simulation events."""
    ran = 0
    step = bifrost.simulation.step
    while ran < events and step():
        ran += 1
    return ran


def _finish_engine_tail(driver, bifrost: Bifrost, rep: Rep) -> None:
    while bifrost.engine.running_count():
        if not driver.step("simulation.dispatch", _drain, bifrost, 64):
            rep.problems.append("event queue drained with strategies running")
            return


def _check_verdicts(bifrost: Bifrost, expected: dict, rep: Rep) -> None:
    """Each strategy reached its designed verdict and left the right stable."""
    executions = {e.strategy.name: e for e in bifrost.engine.executions}
    for name, want in expected.items():
        execution = executions.get(name)
        got = execution.outcome if execution is not None else None
        if got is not want:
            rep.wrong_verdicts += 1
            rep.problems.append(f"{name}: verdict {got} != designed {want}")
            continue
        service = execution.strategy.entry.service
        stable = bifrost.application.stable_version(service)
        wanted = "2.0.0" if want is COMPLETED else "1.0.0"
        rep.expect(stable == wanted, f"{name}: stable {service} is {stable}, expected {wanted}")


def _counters(bifrost: Bifrost, requests: int, errors: int, batch=None) -> dict:
    """Exact work counters read from public state after a repetition."""
    collector = bifrost.collector
    spans = sum(len(collector.trace(t)) for t in collector.trace_ids)
    store = bifrost.store
    samples = sum(
        len(store.series(k.service, k.version, k.metric)) for k in store.keys()
    )
    executions = bifrost.engine.executions
    observer = bifrost.observer
    retries = bifrost.resilience.counters().get("retry", 0)
    fallback = 0.0
    if batch is not None and batch.requests:
        fallback = batch.fallback_requests / batch.requests
    return {
        "traffic.requests": requests,
        # Every hop of the scalar path routes once and builds one span;
        # none of the workloads has shadow routes.
        "routing.routes": spans,
        "microservices.retries": retries,
        "microservices.error_ratio": errors / requests if requests else 0.0,
        "simulation.events": bifrost.simulation.processed_events,
        "simulation.fallback_share": fallback,
        "tracing.spans": spans,
        "tracing.traces_retained": len(collector),
        "telemetry.samples": samples,
        "telemetry.snapshots": bifrost.snapshots.taken if bifrost.snapshots else 0,
        "bifrost.check_evals": sum(len(e.check_log) for e in executions),
        "bifrost.journal_appends": bifrost.journal.last_lsn if bifrost.journal else 0,
        "bifrost.decisions": sum(len(e.transitions) for e in executions),
        "obs.events": observer.events.appended if observer.enabled else 0,
        "obs.alert_evals": bifrost.alert_engine.evaluations if bifrost.alert_engine else 0,
        "topology.traces_ingested": (
            bifrost.streaming_builder.trace_count if bifrost.streaming_builder else 0
        ),
    }


def _frontend_requests(bifrost: Bifrost) -> int:
    return len(bifrost.store.series("frontend", "1.0.0", "throughput"))


# -- canary-scalar / canary-batch --------------------------------------------

CANARY_PHASE_S = 12.0


def canary_app(rate: float) -> Application:
    """frontend -> catalog (1.0.0 stable, 2.0.0 candidate) -> inventory."""
    capacity = 2.0 * rate
    app = Application()
    app.deploy(ServiceVersion(
        "frontend", "1.0.0",
        {"index": EndpointSpec(
            "index", LoadSensitiveLatency(LogNormalLatency(20.0, 0.3)),
            calls=(DownstreamCall("catalog", "search"),),
        )},
        capacity_rps=capacity,
    ))
    for version, median in (("1.0.0", 15.0), ("2.0.0", 13.0)):
        app.deploy(ServiceVersion(
            "catalog", version,
            {"search": EndpointSpec(
                "search", LogNormalLatency(median, 0.25), error_rate=0.01,
                calls=(DownstreamCall("inventory", "check"),),
            )},
            capacity_rps=capacity,
        ))
    app.deploy(ServiceVersion(
        "inventory", "1.0.0",
        {"check": EndpointSpec("check", ConstantLatency(4.0), error_rate=0.01)},
        capacity_rps=2.0 * capacity,
    ))
    return app


def canary_strategy() -> Strategy:
    """catalog 2.0.0 at 10% under an error and a latency-vs-stable check.

    The candidate is ~13% faster with the same ~2% error share, against an
    8% error threshold and a 1.25x latency tolerance.  Even the first
    check, over ~400 candidate samples, is more than 6 standard deviations
    from failing, so no seed flips the designed promotion.
    """
    return Strategy(
        name="catalog-canary",
        phases=(Phase(
            name="canary", type=PhaseType.CANARY, service="catalog",
            stable_version="1.0.0", experimental_version="2.0.0",
            fraction=0.10, duration_seconds=CANARY_PHASE_S,
            check_interval_seconds=2.0,
            checks=(
                Check(name="error-rate", service="catalog", version="2.0.0",
                      metric="error", threshold=0.08, window_seconds=10.0),
                Check(name="latency-vs-stable", service="catalog",
                      version="2.0.0", metric="response_time",
                      baseline_version="1.0.0", tolerance=1.25,
                      window_seconds=10.0),
            ),
        ),),
    )


SCALAR_RATE = 2_000.0
SCALAR_USERS = 100_000
SCALAR_CHUNK = 400


def canary_scalar(seed: int, driver) -> Rep:
    rep = Rep()
    pop_seed, load_seed, run_seed = _seeds(seed)
    population = driver.setup(
        "traffic.population", UserPopulation, SCALAR_USERS, DEFAULT_GROUPS,
        seed=pop_seed,
    )
    app = driver.setup(None, canary_app, SCALAR_RATE)
    bifrost = driver.setup(None, Bifrost, app, seed=run_seed)
    driver.setup(None, bifrost.submit, canary_strategy(), at=1.0)
    generator = driver.setup(
        None, WorkloadGenerator, population, entry="frontend.index",
        seed=load_seed,
    )
    driver.start_verdict()
    stream = generator.poisson(SCALAR_RATE, MAX_TRAFFIC_S)
    errors = 0
    while bifrost.engine.running_count():
        chunk = driver.step("traffic.gen", _take, stream, SCALAR_CHUNK)
        if not chunk:
            break
        outcomes = driver.step(None, bifrost.run, chunk, requests=len(chunk))
        errors += sum(1 for o in outcomes if o.error)
    _finish_engine_tail(driver, bifrost, rep)
    driver.end_verdict()

    _check_verdicts(bifrost, {"catalog-canary": COMPLETED}, rep)
    requests = bifrost.runtime.requests_executed
    rep.expect(requests == len(bifrost.outcomes), "outcomes lost")
    rep.expect(
        _frontend_requests(bifrost) == requests,
        "frontend throughput samples != requests executed",
    )
    rep.counters = _counters(bifrost, requests, errors)
    rep.expect(rep.counters["tracing.spans"] > 2 * requests, "spans missing")
    return rep


BATCH_RATE = 10 * SCALAR_RATE
BATCH_USERS = 25_000
BATCH_SIZE = 4_096


def canary_batch(seed: int, driver) -> Rep:
    rep = Rep()
    pop_seed, load_seed, run_seed = _seeds(seed)
    population = driver.setup(
        "traffic.population", UserPopulation, BATCH_USERS, DEFAULT_GROUPS,
        seed=pop_seed,
    )
    app = driver.setup(None, canary_app, BATCH_RATE)
    bifrost = driver.setup(None, Bifrost, app, seed=run_seed)
    driver.setup(None, bifrost.submit, canary_strategy(), at=1.0)
    generator = driver.setup(
        None, BatchWorkloadGenerator, population, entry="frontend.index",
        seed=load_seed, batch_size=BATCH_SIZE,
    )
    totals = _drive_batches(driver, bifrost, generator.poisson(BATCH_RATE, MAX_TRAFFIC_S), rep)

    _check_verdicts(bifrost, {"catalog-canary": COMPLETED}, rep)
    requests = bifrost.runtime.requests_executed
    rep.expect(requests == totals.requests, "batch results lost requests")
    rep.expect(
        _frontend_requests(bifrost) == requests,
        "frontend throughput samples != requests executed",
    )
    rep.expect(totals.fallback_requests == 0, "batch kernel fell back")
    rep.counters = _counters(bifrost, requests, totals.errors, totals)
    rep.expect(rep.counters["tracing.spans"] == 0, "batch kernel built spans")
    return rep


def _drive_batches(driver, bifrost: Bifrost, stream, rep: Rep) -> "_BatchTotals":
    """Closed loop: one batch at a time through ``run_batches`` until the
    last strategy's verdict, then the engine-only tail."""
    driver.start_verdict()
    totals = _BatchTotals()
    while bifrost.engine.running_count():
        batch = driver.step("traffic.gen", next, stream, None)
        if batch is None:
            break
        totals.add(driver.step(
            "simulation.batch", bifrost.run_batches, [batch], requests=len(batch),
        ))
    _finish_engine_tail(driver, bifrost, rep)
    driver.end_verdict()
    return totals


class _BatchTotals:
    """Sums the :class:`BatchRunResult` of per-batch ``run_batches`` calls."""

    def __init__(self) -> None:
        self.requests = self.errors = self.fallback_requests = 0

    def add(self, result) -> None:
        self.requests += result.requests
        self.errors += result.errors
        self.fallback_requests += result.fallback_requests


# -- hostile-durable -----------------------------------------------------------

HOSTILE_SERVICES = 16
HOSTILE_RATE = 100.0
HOSTILE_USERS = 2_000
HOSTILE_BATCH = 25
CANARY_S = 10.0
ROLLOUT_S = 9.0

#: Candidate 2.0.0 of each service: (median ms, error rate).  A 3x
#: slower or 50%-failing candidate, and the two hit by the fault
#: campaign, roll back; the rest promote.  Every margin is several times
#: the sampling noise of a 10 s window, so no seed flips a verdict.
_CANDIDATES = {3: (9.0, 0.0), 4: (9.0, 0.0), 5: (9.0, 0.5), 6: (9.0, 0.5), 7: (30.0, 0.0)}
_ROLLED_BACK = {3, 4, 5, 6, 7}


def _svc(i: int) -> str:
    return f"s{i:02d}"


def _start(i: int) -> float:
    return 1.0 + 0.5 * i


def hostile_app() -> Application:
    """A frontend fanning out in parallel to 16 services, each canaried."""
    app = Application()
    app.deploy(ServiceVersion(
        "frontend", "1.0.0",
        {"index": EndpointSpec(
            "index", LogNormalLatency(5.0, 0.2),
            calls=tuple(DownstreamCall(_svc(i), "api") for i in range(HOSTILE_SERVICES)),
            parallel_calls=True,
        )},
        capacity_rps=10_000.0,
    ))
    for i in range(HOSTILE_SERVICES):
        median, error_rate = _CANDIDATES.get(i, (9.0, 0.0))
        app.deploy(ServiceVersion(
            _svc(i), "1.0.0",
            {"api": EndpointSpec("api", LogNormalLatency(10.0, 0.3))},
            capacity_rps=10_000.0,
        ))
        app.deploy(ServiceVersion(
            _svc(i), "2.0.0",
            {"api": EndpointSpec("api", LogNormalLatency(median, 0.3), error_rate=error_rate)},
            capacity_rps=10_000.0,
        ))
    return app


def _hostile_checks(service: str) -> tuple[Check, ...]:
    """Six checks, three of them relative to the stable version."""
    common = dict(service=service, window_seconds=10.0)
    return (
        Check(name="errors", version="2.0.0", metric="error", threshold=0.1, **common),
        Check(name="p99", version="2.0.0", metric="response_time",
              aggregation="p99", threshold=200.0, **common),
        Check(name="slo", version="2.0.0", metric="error", kind="slo",
              rule=f"slo-{service}", threshold=1.0, **common),
        Check(name="mean-vs-stable", version="2.0.0", metric="response_time",
              baseline_version="1.0.0", tolerance=1.5, **common),
        Check(name="median-vs-stable", version="2.0.0", metric="response_time",
              aggregation="median", baseline_version="1.0.0", tolerance=1.5,
              **common),
        Check(name="p95-vs-stable", version="2.0.0", metric="response_time",
              aggregation="p95", baseline_version="1.0.0", tolerance=2.0,
              **common),
    )


def hostile_strategy(i: int) -> Strategy:
    """Canary at 20% -> gradual rollout 40/60/80%, checks every 1 s."""
    service = _svc(i)
    checks = _hostile_checks(service)
    base = dict(service=service, stable_version="1.0.0",
                experimental_version="2.0.0", check_interval_seconds=1.0,
                checks=checks)
    return Strategy(
        name=f"rollout-{service}",
        phases=(
            Phase(name="canary", type=PhaseType.CANARY, fraction=0.2,
                  duration_seconds=CANARY_S, on_success="rollout", **base),
            # Steps stay below 100% so the relative checks always have
            # stable-version samples to compare against.
            Phase(name="rollout", type=PhaseType.GRADUAL_ROLLOUT,
                  steps=(0.4, 0.6, 0.8), duration_seconds=ROLLOUT_S, **base),
        ),
    )


def hostile_durable(seed: int, driver) -> Rep:
    rep = Rep()
    pop_seed, load_seed, run_seed = _seeds(seed)
    workdir = driver.scratch_dir("journal")
    journal_path = os.path.join(workdir, "journal.jsonl")
    try:
        population = driver.setup(
            "traffic.population", UserPopulation, HOSTILE_USERS,
            DEFAULT_GROUPS, seed=pop_seed,
        )
        app = driver.setup(None, hostile_app)
        bifrost = driver.setup(None, _hostile_middleware, app, run_seed, journal_path)
        driver.setup(None, _hostile_wiring, bifrost, app)
        driver.setup(None, _submit_all, bifrost)
        generator = driver.setup(
            None, BatchWorkloadGenerator, population, entry="frontend.index",
            seed=load_seed, batch_size=HOSTILE_BATCH,
        )
        stream = generator.poisson(HOSTILE_RATE, MAX_TRAFFIC_S)
        totals = _drive_batches(driver, bifrost, stream, rep)
        _hostile_checks_after(bifrost, totals, journal_path, rep)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return rep


def _hostile_middleware(app: Application, run_seed: int, journal_path: str) -> Bifrost:
    """Durable middleware on a file journal, with retries and an observer."""
    resilience = ResilienceLayer()
    policy = CallPolicy(max_retries=2, backoff_base_ms=5.0, jitter_ms=2.0)
    for i in range(HOSTILE_SERVICES):
        resilience.set_policy(policy, service=_svc(i))
    observer = Observer(event_capacity=1 << 20)
    return Bifrost(
        app, seed=run_seed, resilience=resilience, observer=observer,
        journal=Journal(FileJournalStorage(journal_path), observer=observer),
        snapshot_policy=SnapshotPolicy(every_records=20, compact=False),
    )


def _hostile_wiring(bifrost: Bifrost, app: Application) -> None:
    """Burn-rate rules, the live topology pipeline and the fault campaign."""
    bifrost.enable_alerts([
        AlertRule(name=f"slo-{_svc(i)}", service=_svc(i), version="2.0.0",
                  objective=0.9, fast_window=5.0, slow_window=20.0)
        for i in range(HOSTILE_SERVICES)
    ], interval=1.0)
    bifrost.enable_live_health(window_seconds=10.0)
    campaign = FaultCampaign(FaultInjector(app))
    campaign.add(ErrorBurst(_svc(3), "2.0.0", "api", 0.8, _start(3) + 1.5, _start(3) + 9.0))
    campaign.add(LatencySpike(_svc(4), "2.0.0", "api", 6.0, _start(4) + 1.5, _start(4) + 9.0))
    campaign.add(EngineCrash(9.0, 11.0))
    bifrost.install_campaign(campaign)


def _submit_all(bifrost: Bifrost) -> None:
    for i in range(HOSTILE_SERVICES):
        bifrost.submit(hostile_strategy(i), at=_start(i))


def _hostile_checks_after(bifrost: Bifrost, totals, journal_path: str, rep: Rep) -> None:
    expected = {
        f"rollout-{_svc(i)}": ROLLED_BACK if i in _ROLLED_BACK else COMPLETED
        for i in range(HOSTILE_SERVICES)
    }
    _check_verdicts(bifrost, expected, rep)
    requests = bifrost.runtime.requests_executed
    rep.expect(requests == totals.requests, "batch results lost requests")
    rep.expect(
        _frontend_requests(bifrost) == requests,
        "frontend throughput samples != requests executed",
    )
    rep.expect(totals.fallback_requests == requests, "a slice took the fast path")
    rep.expect(
        bifrost.supervisor.restarts == 1 and len(bifrost.supervisor.reports) == 1,
        "the engine crash was not recovered exactly once",
    )
    observer = bifrost.observer
    rep.expect(observer.events.dropped == 0, "event log truncated")
    rebuilt = build_provenance(list(observer.events)).digest()
    rep.expect(
        rebuilt == observer.provenance.graph().digest(),
        "offline provenance graph differs from the live one",
    )
    rep.expect(
        _fold_journal(journal_path) == _execution_states(bifrost.engine.executions),
        "journal fold differs from the live executions",
    )
    rep.counters = _counters(bifrost, requests, totals.errors, totals)
    rep.expect(rep.counters["microservices.retries"] > 0, "no retries happened")


def _execution_states(executions) -> dict:
    """Serialized execution state, minus ``phase_first_entered``.

    The live engine fills that field only for phases with a deadline,
    the recovery fold for every phase; it only arms deadlines and lies
    outside the durability contract (outcome, transitions, check log),
    so the known divergence is left out here and reported in README.md.
    """
    states = {}
    for execution in executions:
        state = execution_to_dict(execution)
        del state["phase_first_entered"]
        states[execution.strategy.name] = state
    return states


def _fold_journal(journal_path: str) -> dict:
    """Executions a fresh RecoveryManager folds from a copy of the journal."""
    copy = journal_path + ".fold"
    shutil.copyfile(journal_path, copy)
    fresh = Bifrost(hostile_app(), journal=Journal(FileJournalStorage(copy)))
    RecoveryManager(fresh.journal).recover(fresh.engine)
    return _execution_states(fresh.engine.executions)


WORKLOADS = {
    "canary-scalar": canary_scalar,
    "canary-batch": canary_batch,
    "hostile-durable": hostile_durable,
}
