"""Run a workload's cells, check them, and turn the runs into metrics."""

from __future__ import annotations

import dataclasses
import hashlib
import math
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence

from repro.api import MetricsRegistry, RunResult, Session

from perfbench.reference import REFERENCE_S, HostGauge
from perfbench.tracing import SpanTracer
from perfbench.workloads import Cell, Workload

_ROUND_TRIP_FAMILY = "repro_vote_round_trip_seconds"


@dataclass
class Records:
    """Per-job sim-time records of one scenario run, taken from outside
    through the deployed ``MetricsCollector.on_release``."""

    #: Arrival -> release of every released job, in release order.
    delays: List[float]
    #: Arrival -> last subjob done of every completed job.
    responses: List[float]
    #: Completed jobs that finished after their deadline.
    late: int


@dataclass
class CellRun:
    """One scenario run: its result, host timings and work counters."""

    label: str
    result: RunResult
    digest: str
    setup_s: float
    run_s: float
    #: Exact work counters read from the components after the run.
    counters: Dict[str, float]
    #: Per-job records; only taken in a records rep.
    records: Optional[Records] = None
    round_trips: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)


def digest(result: RunResult) -> str:
    """sha256 of the result JSON, without the armed-only metrics snapshot."""
    bare = dataclasses.replace(result, metrics_snapshot=None)
    return hashlib.sha256(bare.to_json_str().encode()).hexdigest()


def _counters(system, result: RunResult) -> Dict[str, float]:
    env = system.env
    delays = env.network.delay_stats
    # The processors that host subtasks; RunResult.cpu_utilization is
    # empty on the distributed engine, so they are read from the system.
    processors = {
        id(p): p for p in (c.container.processor for c in env.subtask_instances.values())
    }
    busy = [p.utilization(result.duration) for p in processors.values()]
    counters: Dict[str, float] = {
        "arrived": result.arrived_jobs,
        "sim.events": result.events_executed,
        "net.sends": result.messages_sent,
        "net.remote_forwards": env.federation.remote_forwards,
        "net.dropped": result.messages_dropped,
        "net.delay_spiked": result.messages_delay_spiked,
        "net.delay_count": delays.count,
        "net.delay_total_s": delays.total,
        "core.te.held": sum(te.jobs_held for te in env.task_effectors.values()),
        "core.te.released": sum(te.jobs_released for te in env.task_effectors.values()),
        "core.ir.reports": sum(ir.reports_sent for ir in env.idle_resetters.values()),
        "core.ir.entries": sum(ir.entries_reported for ir in env.idle_resetters.values()),
        "cpu.busy_sum": sum(busy),
        "cpu.busy_count": len(busy),
        "core.dac.reserve_messages": result.reserve_messages,
        "core.dac.vote_timeouts": result.vote_timeouts,
        "core.dac.retries": result.retries_sent,
        "core.dac.aborts": result.transactions_aborted,
    }
    ac = getattr(system, "ac", None)
    if ac is not None:
        counters.update({
            "core.ac.accepts": ac.admitted_jobs,
            "core.ac.decisions": ac.admitted_jobs + ac.rejected_jobs,
            "core.ac.idle_resets_applied": ac.idle_resets_applied,
            "core.ac.batch_calls": ac.batch_calls,
            "core.ac.batched_arrivals": ac.batched_arrivals,
            "sched.tests": ac.analyzer.tests_performed,
            "sched.batch_sessions": ac.analyzer.batch_sessions,
        })
    lb = getattr(system, "lb", None)
    if lb is not None:
        counters["core.lb.location_calls"] = lb.location_calls
        counters["core.lb.reallocations"] = lb.reallocations_proposed
    return counters


def _check(workload: Workload, cell: Cell, run: CellRun) -> List[str]:
    """The correctness checks one scenario run must pass."""
    r = run.result
    failures = []
    if r.arrived_jobs != r.released_jobs + r.rejected_jobs:
        failures.append(
            f"arrived {r.arrived_jobs} != released {r.released_jobs} "
            f"+ rejected {r.rejected_jobs}"
        )
    if r.completed_jobs > r.released_jobs:
        failures.append(f"completed {r.completed_jobs} > released {r.released_jobs}")
    if workload.zero_misses and r.deadline_misses:
        failures.append(f"{r.deadline_misses} deadline misses")
    scenario = cell.scenario
    if scenario.engine == "distributed" or scenario.combo.startswith("J_"):
        leftover = {n: u for n, u in r.final_synthetic_utilization.items() if u != 0.0}
        if leftover:
            failures.append(f"ledger not empty after drain: {leftover}")
    records = run.records
    if records is not None and (
        len(records.delays), len(records.responses), records.late
    ) != (r.released_jobs, r.completed_jobs, r.deadline_misses):
        failures.append("per-job records disagree with the RunResult")
    return failures


def run_cell(
    workload: Workload, cell: Cell, armed: bool = False, record: bool = False
) -> CellRun:
    """Deploy and run one scenario through the public API, then check it.

    ``armed`` arms a :class:`MetricsRegistry` (traced runs only), for the
    coordination round-trip histogram.  ``record`` takes per-job records;
    the hook runs inside ``Session.run()``, so timed reps go without it.
    """
    start = perf_counter()
    session = Session(
        cell.scenario,
        via_dance=cell.via_dance,
        metrics=MetricsRegistry() if armed else None,
    )
    system = session.deploy()
    setup_s = perf_counter() - start
    released = []
    if record:
        collector = system.metrics
        on_release = collector.on_release

        def record_release(job) -> None:
            released.append(job)
            on_release(job)

        collector.on_release = record_release
    start = perf_counter()
    result = session.run()
    run_s = perf_counter() - start
    run = CellRun(
        label=cell.scenario.effective_label,
        result=result,
        digest=digest(result),
        setup_s=setup_s,
        run_s=run_s,
        counters=_counters(system, result),
    )
    if record:
        completed = [j for j in released if j.completed_at is not None]
        run.records = Records(
            delays=[j.released_at - j.arrival_time for j in released],
            responses=[j.completed_at - j.arrival_time for j in completed],
            late=sum(1 for j in completed if not j.met_deadline),
        )
    if result.metrics_snapshot is not None:
        try:
            family = result.metrics_snapshot.family(_ROUND_TRIP_FAMILY)
        except KeyError:
            pass
        else:
            for _labels, hist in family.series:
                run.round_trips.extend(hist.samples)
    run.failures = _check(workload, cell, run)
    return run


@dataclass
class Rep:
    """One pass over every cell of a workload."""

    runs: List[CellRun]
    tracer: Optional[SpanTracer] = None
    #: Mean time of the reference loop sampled during this rep (see
    #: :mod:`perfbench.reference`).
    ref_s: float = REFERENCE_S

    @property
    def setup_s(self) -> float:
        return sum(r.setup_s for r in self.runs)

    @property
    def run_s(self) -> float:
        return sum(r.run_s for r in self.runs)

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.run_s

    @property
    def arrived(self) -> int:
        return sum(r.result.arrived_jobs for r in self.runs)

    def total(self, counter: str) -> float:
        return sum(r.counters.get(counter, 0) for r in self.runs)


def run_rep(
    workload: Workload,
    cells: Sequence[Cell],
    traced: bool = False,
    spans_out=None,
    record: bool = False,
    gauge: Optional[HostGauge] = None,
) -> Rep:
    """Run every cell once, optionally under a fresh :class:`SpanTracer`,
    taking per-job records (``record``) or gauging the host speed between
    cells (``gauge``)."""
    if not traced:
        rep = Rep([])
        for cell in cells:
            if gauge is not None:
                gauge.poll()
            rep.runs.append(run_cell(workload, cell, record=record))
        if gauge is not None:
            gauge.poll()
            rep.ref_s = gauge.take()
    else:
        rep = Rep([], SpanTracer())
        with rep.tracer.installed():
            for cell in cells:
                run = run_cell(workload, cell, armed=True)
                rep.tracer.finish_scenario(run.label, spans_out)
                rep.runs.append(run)
    return rep


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def quantile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an ascending sequence (0.0 when empty)."""
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def sim_metrics(rep: Rep) -> Dict[str, tuple]:
    """Sim-clock end-to-end metrics of a records rep: name -> (value, samples)."""
    results = [r.result for r in rep.runs]
    delays = sorted(t for r in rep.runs for t in r.records.delays)
    responses = sorted(t for r in rep.runs for t in r.records.responses)
    arrived = sum(r.arrived_jobs for r in results)
    released = sum(r.released_jobs for r in results)
    failed = sum(
        r.rejected_jobs + (r.released_jobs - r.completed_jobs) + r.deadline_misses
        for r in results
    )
    misses = sum(r.deadline_misses for r in results)
    return {
        "accepted_utilization_ratio": (
            statistics.fmean(r.accepted_utilization_ratio for r in results), len(results)
        ),
        "failed_job_ratio": (_ratio(failed, arrived), arrived),
        "completed_on_time_ratio": (_ratio(arrived - failed, arrived), arrived),
        "deadline_miss_ratio": (_ratio(misses, released), released),
        "release_delay_p50_ms": (quantile(delays, 0.50) * 1e3, len(delays)),
        "release_delay_p99_ms": (quantile(delays, 0.99) * 1e3, len(delays)),
        "response_p50_ms": (quantile(responses, 0.50) * 1e3, len(responses)),
        "response_p99_ms": (quantile(responses, 0.99) * 1e3, len(responses)),
    }


def host_metrics(reps: Sequence[Rep], peak_rss_mb: float) -> Dict[str, tuple]:
    """Host-clock end-to-end metrics: medians over reps -> (value, samples).

    Each rep's times are scaled to the reference host speed by the
    reference loop run around it.
    """
    scale = [REFERENCE_S / rep.ref_s for rep in reps]
    return {
        "jobs_per_s": (
            statistics.median(rep.arrived / (rep.run_s * k) for rep, k in zip(reps, scale)),
            len(reps),
        ),
        "setup_s": (
            statistics.median(rep.setup_s * k for rep, k in zip(reps, scale)), len(reps)
        ),
        "peak_rss_mb": (peak_rss_mb, 1),
    }


def layer_metrics(rep: Rep, untraced: Rep) -> Dict[str, float]:
    """Per-layer metrics of one traced rep (``untraced`` is the same rep
    run without tracing, for the overhead and the per-event host cost)."""
    tracer = rep.tracer
    assert tracer is not None
    arrived = rep.arrived
    events = rep.total("sim.events")
    decisions = rep.total("core.ac.decisions")
    admit_calls = sorted(tracer.admission_call_s)
    round_trips = sorted(t for r in rep.runs for t in r.round_trips)
    layer_self = tracer.layer_self_s()
    wall = rep.wall_s
    metrics = {
        "api.deploy_s": tracer.duration("api.deploy"),
        "config.dance_deploy_s": tracer.duration("config.deploy_scenario"),
        "workloads.arrival_plan_s": tracer.duration("workloads.build_arrival_plan"),
        "workloads.materialize_s": tracer.duration("workloads.materialize"),
        "sim.events": events,
        "sim.events_per_job": _ratio(events, arrived),
        "sim.schedule_calls": (
            tracer.count("sim.schedule_at") + tracer.count("sim.schedule_batch")
        ),
        "sim.host_us_per_event": _ratio(untraced.run_s, events) * 1e6,
        "cpu.submits": tracer.count("cpu.submit"),
        "cpu.busy_frac": _ratio(rep.total("cpu.busy_sum"), rep.total("cpu.busy_count")),
        "ccm.port_pushes": tracer.count("ccm.push") + tracer.count("ccm.broadcast"),
        "ccm.accessor_calls": tracer.accessor_calls,
        "net.sends": rep.total("net.sends"),
        "net.messages_per_job": _ratio(rep.total("net.sends"), arrived),
        "net.remote_forwards": rep.total("net.remote_forwards"),
        "net.channel_pushes": tracer.count("net.channel_push"),
        "net.dropped": rep.total("net.dropped"),
        "net.delay_spiked": rep.total("net.delay_spiked"),
        "net.sim_delay_mean_ms": _ratio(
            rep.total("net.delay_total_s"), rep.total("net.delay_count")
        ) * 1e3,
        "sched.admissible_calls": tracer.count("sched.admissible"),
        "sched.try_admit_calls": tracer.count("sched.try_admit"),
        "sched.batch_sessions": rep.total("sched.batch_sessions"),
        "sched.tests_per_decision": _ratio(rep.total("sched.tests"), decisions),
        "sched.host_admit_call_p50_us": quantile(admit_calls, 0.50) * 1e6,
        "sched.host_admit_call_p99_us": quantile(admit_calls, 0.99) * 1e6,
        "sched.host_admit_call_samples": len(admit_calls),
        "sched.ledger_adds": tracer.ledger_adds,
        "sched.ledger_removes": tracer.ledger_removes,
        "core.ac.decisions": decisions,
        "core.ac.accept_frac": _ratio(rep.total("core.ac.accepts"), decisions),
        "core.ac.arrivals_per_batch": _ratio(
            rep.total("core.ac.batched_arrivals"), rep.total("core.ac.batch_calls")
        ),
        "core.ac.idle_resets_applied": rep.total("core.ac.idle_resets_applied"),
        "core.lb.location_calls": rep.total("core.lb.location_calls"),
        "core.lb.reallocations": rep.total("core.lb.reallocations"),
        "core.ir.reports": rep.total("core.ir.reports"),
        "core.ir.entries_per_report": _ratio(
            rep.total("core.ir.entries"), rep.total("core.ir.reports")
        ),
        "core.te.held": rep.total("core.te.held"),
        "core.te.released": rep.total("core.te.released"),
        "core.subtask.releases": tracer.count("core.subtask.release"),
        "core.dac.reserve_messages": rep.total("core.dac.reserve_messages"),
        "core.dac.vote_timeouts": rep.total("core.dac.vote_timeouts"),
        "core.dac.retries": rep.total("core.dac.retries"),
        "core.dac.aborts": rep.total("core.dac.aborts"),
        "core.dac.sim_round_trip_p99_ms": quantile(round_trips, 0.99) * 1e3,
        "core.dac.sim_round_trip_samples": len(round_trips),
    }
    for layer, seconds in layer_self.items():
        metrics[f"{layer}.self_s"] = seconds
    metrics["unattributed_s"] = wall - sum(layer_self.values())
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_ratio"] = _ratio(wall, untraced.wall_s)
    return metrics
