"""Span tracing of the calls into each layer, from outside the package.

:class:`SpanTracer` replaces the public entry points of every layer with
thin wrappers for the duration of a ``with tracer.installed():`` block and
restores the originals on exit.  Each wrapped call records one span (name,
start, end, parent, job) in columnar arrays; a span's self time is its
duration minus the time its child spans cover, and is accumulated per
span name as the span closes.

Besides the named entry points, three dispatch points are attributed to the
layer that owns the code they run, so a layer's work is billed to that
layer and not to whoever happened to call it:

* every kernel event (the callback handed to ``Simulator.schedule_at``),
* every completed CPU work item (the ``on_complete`` of a submitted
  :class:`~repro.cpu.thread.WorkItem`),
* every event-sink handler subscribed through ``EventSinkPort.subscribe``.

The wrappers only observe: they pass arguments and return values through
unchanged, so a traced run produces the same ``RunResult`` as an untraced
one (the benchmark checks this with a digest).
"""

from __future__ import annotations

import json
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.api.scenario import WorkloadSource
from repro.api.session import Session
from repro.ccm.component import Component
from repro.ccm.ports import EventSinkPort, EventSourcePort
from repro.config.dance import DeploymentEngine
from repro.core import middleware as middleware_module
from repro.core.idle_resetter import IdleResetterComponent
from repro.core.load_balancer import LoadBalancerComponent
from repro.core.subtask import FISubtaskComponent, LastSubtaskComponent
from repro.core.task_effector import TaskEffectorComponent
from repro.cpu.processor import Processor
from repro.net.channel import LocalEventChannel
from repro.net.federation import FederatedEventChannel
from repro.net.network import Network
from repro.sched.aub import (
    AubAnalyzer,
    BatchAdmissionSession,
    SyntheticUtilizationLedger,
)
from repro.sched.task import Job
from repro.sim.kernel import DEFAULT_PRIORITY, Simulator
from repro.workloads import arrivals as arrivals_module

#: Module prefix -> layer, longest prefix first.
_LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("repro.core.admission_controller", "core.ac"),
    ("repro.core.load_balancer", "core.lb"),
    ("repro.core.idle_resetter", "core.ir"),
    ("repro.core.task_effector", "core.te"),
    ("repro.core.subtask", "core.subtask"),
    ("repro.core.distributed_ac", "core.dac"),
    ("repro.api", "api"),
    ("repro.config", "config"),
    ("repro.workloads", "workloads"),
    ("repro.sim", "sim"),
    ("repro.cpu", "cpu"),
    ("repro.ccm", "ccm"),
    ("repro.net", "net"),
    ("repro.sched", "sched"),
)

#: Every layer a span can be billed to; ``other`` holds package code
#: outside the named layers (the middleware facade's arrival callbacks,
#: the metrics collectors).
LAYERS: Tuple[str, ...] = (
    "api", "config", "workloads", "sim", "cpu", "ccm", "net", "sched",
    "core.ac", "core.lb", "core.ir", "core.te", "core.subtask", "core.dac",
    "other",
)

#: The per-candidate admission tests whose host durations are kept.
ADMISSION_CALLS = ("sched.admissible", "sched.try_admit")


def layer_of_module(module: Optional[str]) -> str:
    """The layer that owns code defined in ``module``."""
    if module:
        for prefix, layer in _LAYER_PREFIXES:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return "other"


def _job_of(args: tuple) -> Optional[Job]:
    """The job a call carries, directly or as an event's ``job`` field."""
    for arg in args:
        if type(arg) is Job:
            return arg
        job = getattr(arg, "job", None)
        if type(job) is Job:
            return job
    return None


class SpanTracer:
    """Records spans around layer entry points while installed."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_layers: List[str] = []
        self._name_ids: Dict[str, int] = {}
        #: Per span name: calls, total duration and self time (seconds),
        #: accumulated over every scenario traced so far.
        self.calls: List[int] = []
        self.total_s: List[float] = []
        self.self_s: List[float] = []
        #: Host durations of the per-candidate admission tests.
        self.admission_call_s: List[float] = []
        #: CCM accessor calls (``Component.sim``/``.node``/``.processor``/
        #: ``get_attribute``) seen while installed.
        self.accessor_calls = 0
        #: Ledger entries passed to ``add``/``add_batch`` and
        #: ``remove``/``remove_batch``.
        self.ledger_adds = 0
        self.ledger_removes = 0
        self._stack: List[List[float]] = []
        self._callback_names: Dict[Any, int] = {}
        self._reset_spans()

    # -- span storage ---------------------------------------------------
    def _reset_spans(self) -> None:
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_job = array("i")
        self._job_ids: Dict[Tuple[str, int], int] = {}

    def name_id(self, name: str, layer: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._name_ids[name] = nid
            self.names.append(name)
            self.name_layers.append(layer)
            self.calls.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
        return nid

    def _open(self, nid: int, args: tuple) -> int:
        job = _job_of(args)
        if job is None:
            jid = -1
        else:
            jid = self._job_ids.setdefault(job.key, len(self._job_ids))
        stack = self._stack
        index = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(int(stack[-1][0]) if stack else -1)
        self.span_job.append(jid)
        self.span_end.append(0.0)
        stack.append([index, 0.0])
        self.span_start.append(perf_counter())
        return index

    def _close(self, nid: int, index: int) -> None:
        end = perf_counter()
        frame = self._stack.pop()
        duration = end - self.span_start[index]
        self.span_end[index] = end
        if self._stack:
            self._stack[-1][1] += duration
        self.calls[nid] += 1
        self.total_s[nid] += duration
        self.self_s[nid] += duration - frame[1]

    def wrap(self, fn: Callable[..., Any], name: str, layer: str) -> Callable[..., Any]:
        """``fn`` with one span per call, billed to ``layer``."""
        nid = self.name_id(name, layer)
        open_, close = self._open, self._close

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = open_(nid, args)
            try:
                return fn(*args, **kwargs)
            finally:
                close(nid, index)

        return traced

    def wrap_callback(self, fn: Callable[..., Any], owner: Any = None) -> Callable[..., Any]:
        """``fn`` billed to the layer whose module defines ``owner``
        (default ``fn`` itself)."""
        owner = fn if owner is None else owner
        target = getattr(owner, "__func__", owner)
        qualname = getattr(target, "__qualname__", type(target).__name__)
        # Keyed by code object, so a lambda made per call maps to one name.
        key = getattr(target, "__code__", qualname)
        nid = self._callback_names.get(key)
        if nid is None:
            layer = layer_of_module(getattr(target, "__module__", None))
            nid = self.name_id(f"{layer}:{qualname}", layer)
            self._callback_names[key] = nid
        open_, close = self._open, self._close

        def traced(*args: Any) -> Any:
            index = open_(nid, args)
            try:
                return fn(*args)
            finally:
                close(nid, index)

        return traced

    # -- per-scenario bookkeeping ----------------------------------------
    def finish_scenario(self, label: str, spans_out: Optional[Any] = None) -> None:
        """Fold the finished scenario's spans and drop them from memory.

        With ``spans_out`` (a text file) every span is written out first,
        as one JSON object per scenario with columnar span arrays.
        """
        if self._stack:
            raise RuntimeError("finish_scenario called inside an open span")
        admission = {self._name_ids.get(n) for n in ADMISSION_CALLS}
        names, starts, ends = self.span_name, self.span_start, self.span_end
        self.admission_call_s.extend(
            ends[i] - starts[i] for i in range(len(names)) if names[i] in admission
        )
        if spans_out is not None:
            json.dump(
                {
                    "scenario": label,
                    "names": self.names,
                    "layers": self.name_layers,
                    "name": list(names),
                    "start": list(starts),
                    "end": list(ends),
                    "parent": list(self.span_parent),
                    "job": list(self.span_job),
                    "jobs": [list(k) for k in self._job_ids],
                },
                spans_out,
            )
            spans_out.write("\n")
        self._reset_spans()

    # -- aggregates -------------------------------------------------------
    def count(self, name: str) -> int:
        nid = self._name_ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def duration(self, name: str) -> float:
        nid = self._name_ids.get(name)
        return 0.0 if nid is None else self.total_s[nid]

    def layer_self_s(self) -> Dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for nid, layer in enumerate(self.name_layers):
            totals[layer] += self.self_s[nid]
        return totals

    # -- installation -----------------------------------------------------
    @contextmanager
    def installed(self) -> Iterator["SpanTracer"]:
        """Patch the entry points in; restore the originals on exit."""
        saved: List[Tuple[Any, str, Any]] = []

        def patch(owner: Any, attr: str, replacement: Any) -> None:
            saved.append((owner, attr, owner.__dict__.get(attr, _INHERITED)))
            setattr(owner, attr, replacement)

        def span(owner: Any, attr: str, name: str, layer: str) -> None:
            patch(owner, attr, self.wrap(getattr(owner, attr), name, layer))

        for owner, attr, name, layer in _ENTRY_POINTS:
            span(owner, attr, name, layer)
        plan = arrivals_module.build_arrival_plan
        traced_plan = self.wrap(plan, "workloads.build_arrival_plan", "workloads")
        patch(arrivals_module, "build_arrival_plan", traced_plan)
        patch(middleware_module, "build_arrival_plan", traced_plan)

        tracer = self
        schedule_at = Simulator.__dict__["schedule_at"]
        dispatch_batch = Simulator.__dict__["_dispatch_batch"]

        def traced_schedule_at(sim, time, callback, *args, priority=DEFAULT_PRIORITY):
            # A batch delivers to the subscriber its key names.
            owner = (
                args[0][2]
                if getattr(callback, "__func__", None) is dispatch_batch
                else callback
            )
            return schedule_at(
                sim, time, tracer.wrap_callback(callback, owner), *args,
                priority=priority,
            )

        patch(Simulator, "schedule_at",
              self.wrap(traced_schedule_at, "sim.schedule_at", "sim"))

        add, remove = SyntheticUtilizationLedger.add, SyntheticUtilizationLedger.remove
        add_batch = SyntheticUtilizationLedger.add_batch
        remove_batch = SyntheticUtilizationLedger.remove_batch

        def counted(entries, field):
            for entry in entries:  # lazily, as the ledger consumes them
                setattr(tracer, field, getattr(tracer, field) + 1)
                yield entry

        def traced_add(ledger, *args, **kwargs):
            tracer.ledger_adds += 1
            return add(ledger, *args, **kwargs)

        def traced_remove(ledger, *args, **kwargs):
            tracer.ledger_removes += 1
            return remove(ledger, *args, **kwargs)

        def traced_add_batch(ledger, entries, *args, **kwargs):
            return add_batch(ledger, counted(entries, "ledger_adds"), *args, **kwargs)

        def traced_remove_batch(ledger, entries, *args, **kwargs):
            return remove_batch(
                ledger, counted(entries, "ledger_removes"), *args, **kwargs
            )

        for attr, fn in (
            ("add", traced_add),
            ("remove", traced_remove),
            ("add_batch", traced_add_batch),
            ("remove_batch", traced_remove_batch),
        ):
            patch(SyntheticUtilizationLedger, attr,
                  self.wrap(fn, f"sched.ledger_{attr}", "sched"))

        submit = Processor.__dict__["submit"]

        def traced_submit(processor, thread, item):
            if item.on_complete is not None:
                item.on_complete = tracer.wrap_callback(item.on_complete)
            return submit(processor, thread, item)

        patch(Processor, "submit", self.wrap(traced_submit, "cpu.submit", "cpu"))

        subscribe = EventSinkPort.__dict__["subscribe"]

        def traced_subscribe(port, topic):
            port.handler = tracer.wrap_callback(port.handler)
            return subscribe(port, topic)

        patch(EventSinkPort, "subscribe", traced_subscribe)

        for attr in ("sim", "node", "processor"):
            patch(Component, attr, _counting_property(self, Component.__dict__[attr]))
        patch(Component, "get_attribute",
              _counting_method(self, Component.__dict__["get_attribute"]))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                if original is _INHERITED:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)


def _counting_property(tracer: SpanTracer, prop: property) -> property:
    getter = prop.fget

    def counted(component: Component) -> Any:
        tracer.accessor_calls += 1
        return getter(component)

    return property(counted)


def _counting_method(tracer: SpanTracer, method: Callable[..., Any]) -> Callable[..., Any]:
    def counted(component: Component, name: str) -> Any:
        tracer.accessor_calls += 1
        return method(component, name)

    return counted


#: (owner, attribute, span name, layer) of every plainly wrapped entry point.
_ENTRY_POINTS: Tuple[Tuple[Any, str, str, str], ...] = (
    (Session, "__init__", "api.Session", "api"),
    (Session, "deploy", "api.deploy", "api"),
    (Session, "run", "api.run", "api"),
    (DeploymentEngine, "deploy_scenario", "config.deploy_scenario", "config"),
    (WorkloadSource, "materialize", "workloads.materialize", "workloads"),
    (Simulator, "run", "sim.run", "sim"),
    (Simulator, "schedule_batch", "sim.schedule_batch", "sim"),
    (EventSourcePort, "push", "ccm.push", "ccm"),
    (EventSourcePort, "broadcast", "ccm.broadcast", "ccm"),
    (FederatedEventChannel, "send", "net.federation_send", "net"),
    (FederatedEventChannel, "publish", "net.federation_publish", "net"),
    (Network, "send", "net.network_send", "net"),
    (LocalEventChannel, "push", "net.channel_push", "net"),
    (AubAnalyzer, "admissible", "sched.admissible", "sched"),
    (AubAnalyzer, "admissible_batch", "sched.admissible_batch", "sched"),
    (AubAnalyzer, "batch_session", "sched.batch_session", "sched"),
    (BatchAdmissionSession, "try_admit", "sched.try_admit", "sched"),
    (LoadBalancerComponent, "location", "core.lb.location", "core.lb"),
    (LoadBalancerComponent, "location_in_batch", "core.lb.location_in_batch", "core.lb"),
    (LoadBalancerComponent, "location_for_reserved", "core.lb.location_for_reserved", "core.lb"),
    (IdleResetterComponent, "complete", "core.ir.complete", "core.ir"),
    (TaskEffectorComponent, "task_arrived", "core.te.task_arrived", "core.te"),
    (FISubtaskComponent, "release", "core.subtask.release", "core.subtask"),
    (LastSubtaskComponent, "release", "core.subtask.release", "core.subtask"),
)

#: Marks an attribute a class inherited (restored by deleting the patch).
_INHERITED = object()
