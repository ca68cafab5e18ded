"""Differential property test of the simulation kernel.

Hypothesis generates small programs of ``schedule`` / ``schedule_at`` /
``cancel`` / ``schedule_batch`` calls, interleaved with ``run(until=...,
max_events=...)`` and ``step()``.  Fired events run nested actions of
their own: they schedule, cancel, batch, step, or try to re-enter
``run``.  Each program runs on :class:`~repro.sim.kernel.Simulator` and on
:class:`ReferenceSimulator`, a sorted-list model keyed by
``(time, priority, seq)`` that states the kernel's contract directly; the
dispatch order, the clock, the event count and the queue length must
agree after every step.
"""

import bisect
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.kernel import DEFAULT_PRIORITY, Simulator


class _RefHandle:
    def __init__(self, time, priority, seq, callback, args):
        self.key = (time, priority, seq)
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class ReferenceSimulator:
    """The kernel's contract, written as plainly as possible.

    Pending events sit in a list sorted by ``(time, priority, seq)``.
    Cancelled events stay queued until they reach the head, where they
    are dropped without firing (so ``pending_events`` counts them, as in
    the kernel).
    """

    def __init__(self):
        self.now = 0.0
        self.events_executed = 0
        self._pending = []
        self._seq = 0
        self._batches = {}
        self._running = False

    @property
    def pending_events(self):
        return len(self._pending)

    def schedule(self, delay, callback, *args, priority=DEFAULT_PRIORITY):
        if delay < 0:
            raise SimulationError("past")
        return self.schedule_at(self.now + delay, callback, *args, priority=priority)

    def schedule_at(self, time, callback, *args, priority=DEFAULT_PRIORITY):
        if math.isnan(time) or time < self.now:
            raise SimulationError("past")
        handle = _RefHandle(time, priority, self._seq, callback, args)
        self._seq += 1
        bisect.insort(self._pending, handle, key=lambda h: h.key)
        return handle

    def schedule_batch(self, time, callback, payload, priority=DEFAULT_PRIORITY):
        key = (time, priority, callback)
        open_batch = self._batches.get(key)
        if open_batch is not None and not open_batch[1].cancelled:
            open_batch[0].append(payload)
            return open_batch[1]
        payloads = [payload]

        def deliver():
            self._batches.pop(key, None)
            callback(payloads)

        handle = self.schedule_at(time, deliver, priority=priority)
        self._batches[key] = (payloads, handle)
        return handle

    def _next_live(self):
        while self._pending:
            if self._pending[0].cancelled:
                self._pending.pop(0)
                continue
            return self._pending[0]
        return None

    def _fire(self, handle):
        self._pending.pop(0)
        self.now = handle.key[0]
        self.events_executed += 1
        handle.callback(*handle.args)

    def step(self):
        handle = self._next_live()
        if handle is None:
            return False
        self._fire(handle)
        return True

    def run(self, until=None, max_events=None):
        if self._running:
            raise SimulationError("not re-entrant")
        self._running = True
        try:
            dispatched = 0
            while max_events is None or dispatched < max_events:
                handle = self._next_live()
                if handle is None or (until is not None and handle.key[0] > until):
                    break
                self._fire(handle)
                dispatched += 1
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False


# ----------------------------------------------------------------------
# Programs
# ----------------------------------------------------------------------
TIMES = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
PRIORITIES = st.sampled_from([50, 75, DEFAULT_PRIORITY])
UNTIL = st.one_of(st.none(), TIMES, st.sampled_from([-1.0, 0.75, 10.0]))
MAX_EVENTS = st.one_of(st.none(), st.integers(min_value=0, max_value=6))
LANES = st.sampled_from(["a", "b"])

_NESTED = st.one_of(
    st.tuples(st.just("schedule"), TIMES, PRIORITIES),
    st.tuples(st.just("schedule_at"), TIMES, PRIORITIES),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=20)),
    st.tuples(st.just("batch"), TIMES, PRIORITIES, LANES),
    st.tuples(st.just("step")),
    st.tuples(st.just("run"), UNTIL, MAX_EVENTS),
)

#: What a fired event does: a few nested operations (which schedule
#: events without actions of their own, so programs stay finite).
ACTIONS = st.lists(_NESTED, max_size=3)

_TOP = st.one_of(
    st.tuples(st.just("schedule"), TIMES, PRIORITIES, ACTIONS),
    st.tuples(st.just("schedule_at"), TIMES, PRIORITIES, ACTIONS),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=20)),
    st.tuples(st.just("batch"), TIMES, PRIORITIES, LANES),
    st.tuples(st.just("step")),
    st.tuples(st.just("run"), UNTIL, MAX_EVENTS),
)

PROGRAMS = st.lists(_TOP, min_size=1, max_size=25)


class _Interpreter:
    """Runs one program on one simulator and logs everything observable."""

    def __init__(self, sim):
        self.sim = sim
        self.log = []
        self.handles = []
        self._labels = 0
        # One callback object per lane, so batches can coalesce.
        self._lanes = {lane: self._make_lane(lane) for lane in ("a", "b")}

    def _make_lane(self, lane):
        def deliver(payloads):
            self.log.append(("batch", lane, tuple(payloads), self.sim.now))

        return deliver

    def _label(self):
        self._labels += 1
        return self._labels

    def _fired(self, label, actions):
        self.log.append(("fire", label, self.sim.now))
        for op in actions:
            self.apply(op, nested=True)

    def apply(self, op, nested=False):
        sim = self.sim
        kind = op[0]
        try:
            if kind in ("schedule", "schedule_at"):
                when, priority = op[1], op[2]
                actions = () if nested else op[3]
                label = self._label()
                if kind == "schedule":
                    handle = sim.schedule(
                        when, self._fired, label, actions, priority=priority
                    )
                else:
                    handle = sim.schedule_at(
                        when, self._fired, label, actions, priority=priority
                    )
                self.handles.append(handle)
            elif kind == "cancel":
                if self.handles:
                    self.handles[op[1] % len(self.handles)].cancel()
            elif kind == "batch":
                when, priority, lane = op[1], op[2], op[3]
                handle = sim.schedule_batch(
                    when, self._lanes[lane], self._label(), priority=priority
                )
                self.handles.append(handle)
            elif kind == "step":
                self.log.append(("step", sim.step()))
            elif kind == "run":
                sim.run(until=op[1], max_events=op[2])
        except SimulationError:
            self.log.append(("error", kind))
        self.log.append(
            ("state", sim.now, sim.events_executed, sim.pending_events)
        )


def _run_both(program):
    observed = []
    for sim in (Simulator(), ReferenceSimulator()):
        interpreter = _Interpreter(sim)
        for op in program:
            interpreter.apply(op)
        interpreter.apply(("run", None, None))
        observed.append(interpreter.log)
    return observed


@settings(max_examples=300, deadline=None)
@given(PROGRAMS)
def test_kernel_matches_reference_model(program):
    kernel_log, reference_log = _run_both(program)
    assert kernel_log == reference_log


# ----------------------------------------------------------------------
# Named edge cases, run through the same harness
# ----------------------------------------------------------------------
def _assert_same(program):
    kernel_log, reference_log = _run_both(program)
    assert kernel_log == reference_log
    return kernel_log


def test_cancelled_head_beyond_until_is_discarded():
    log = _assert_same([
        ("schedule", 2.0, DEFAULT_PRIORITY, []),
        ("schedule", 3.0, DEFAULT_PRIORITY, []),
        ("cancel", 0),
        ("run", 1.0, None),
    ])
    # The dead head at t=2 was dropped; the live t=3 entry stays queued.
    assert ("state", 1.0, 0, 1) in log


def test_max_events_zero_dispatches_nothing():
    log = _assert_same([
        ("schedule", 0.0, DEFAULT_PRIORITY, []),
        ("cancel", 0),
        ("schedule", 1.0, DEFAULT_PRIORITY, []),
        ("run", None, 0),
    ])
    assert log[3] == ("state", 0.0, 0, 2)


def test_reentrant_run_is_refused_inside_a_callback():
    log = _assert_same([
        ("schedule", 1.0, DEFAULT_PRIORITY, [("run", None, None)]),
        ("run", None, None),
    ])
    assert ("error", "run") in log


def test_step_inside_a_callback_dispatches_the_next_event():
    log = _assert_same([
        ("schedule", 1.0, DEFAULT_PRIORITY, [("step",)]),
        ("schedule", 2.0, DEFAULT_PRIORITY, []),
        ("run", 1.5, None),
    ])
    assert [entry[1] for entry in log if entry[0] == "fire"] == [1, 2]
