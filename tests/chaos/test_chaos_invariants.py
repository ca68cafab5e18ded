"""Chaos invariant suite: the distributed engine under generated faults.

Hypothesis generates arbitrary fault schedules — crashes (with and
without recovery), partitions, delay spikes, and seeded message loss —
and asserts the invariants the fault-tolerant admission protocol
promises no matter what the schedule does:

* **Conservation** — every arrival ends exactly one of released or
  rejected once the drain window closes; faults can change *which*, but
  never strand a job mid-coordination.
* **No reservation leaks** — after the drain, every controller's lock
  table, contribution map, and in-flight round table are empty
  and its running total is exactly zero (``verify_ledger`` re-derives
  the total from scratch; under ``REPRO_SANITIZE=1`` it additionally
  cross-checks the :class:`~repro.sanitize.LedgerShadow` mirror).
* **Termination** — transactions opened before a partition finish after
  it heals (retry or abort), so the drained system is quiescent.
* **Determinism** — a fixed seed gives bit-identical results on rerun;
  the experiment layer gives bit-identical grids for any worker count.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Scenario, Session

#: Node names materialized by ``WorkloadSource.random(seed=3)``; pinned
#: so schedules can reference nodes without re-materializing per example.
NODES = ("app1", "app2", "app3", "app4", "app5")
DURATION = 20.0


def _build(faults, seed: int = 11, duration: float = DURATION) -> Scenario:
    builder = (
        Scenario.builder()
        .random_workload(seed=3)
        .distributed()
        .duration(duration)
        .seed(seed)
    )
    for add in faults:
        add(builder)
    return builder.build()


@st.composite
def fault_schedules(draw):
    """A list of builder closures, each appending one fault disturbance."""
    faults = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(
            st.sampled_from(("crash", "partition", "spike", "loss"))
        )
        start = draw(st.floats(0.0, DURATION, allow_nan=False))
        span = draw(st.floats(0.5, DURATION, allow_nan=False))
        if kind == "crash":
            node = draw(st.sampled_from(NODES))
            recovery = start + span if draw(st.booleans()) else None
            faults.append(
                lambda b, n=node, t=start, r=recovery: b.node_crash(
                    n, time=t, recovery=r
                )
            )
        elif kind == "partition":
            split = draw(st.integers(1, len(NODES) - 1))
            faults.append(
                lambda b, t=start, h=start + span, s=split: b.partition(
                    time=t, heal=h, group_a=NODES[:s], group_b=NODES[s:]
                )
            )
        elif kind == "spike":
            factor = draw(st.floats(1.5, 20.0, allow_nan=False))
            faults.append(
                lambda b, t=start, u=start + span, f=factor: b.delay_spike(
                    time=t, until=u, factor=f
                )
            )
        else:
            probability = draw(st.floats(0.05, 0.9, allow_nan=False))
            faults.append(
                lambda b, p=probability, t=start, u=start + span: (
                    b.message_loss(p, time=t, until=u)
                )
            )
    return faults


def _run_and_check_invariants(scenario: Scenario):
    session = Session(scenario)
    result = session.run()
    system = session.system

    # Conservation: every arrival resolved exactly one way.
    assert result.arrived_jobs == result.released_jobs + result.rejected_jobs

    # No reservation leaks & termination: quiescent controllers.
    for node in sorted(system.acs):
        ac = system.acs[node]
        assert not ac._locks, f"{node}: leaked locks {ac._locks}"
        assert not ac._contribs, f"{node}: unexpired contributions"
        # Exact zero is the contract: the ledger snaps to 0.0 when its
        # last lock/contribution clears.
        # repro-lint: disable=RL004
        assert ac._total == 0.0, f"{node}: residual total {ac._total}"
        assert not ac._rounds, f"{node}: unfinished rounds"
        ac.verify_ledger()
    return result


@given(fault_schedules())
@settings(max_examples=20, deadline=None)
def test_invariants_hold_under_any_fault_schedule(faults):
    _run_and_check_invariants(_build(faults))


@given(fault_schedules())
@settings(max_examples=20, deadline=None)
def test_invariants_hold_with_arrival_batching(faults):
    batched = (
        Scenario.builder()
        .random_workload(seed=3)
        .distributed()
        .arrival_batching()
        .duration(DURATION)
        .seed(11)
    )
    for add in faults:
        add(batched)
    scenario = batched.build()
    # Chaotic scenarios survive the JSON codec like any other.
    assert Scenario.from_json_str(scenario.to_json_str()) == scenario
    _run_and_check_invariants(scenario)


@given(fault_schedules(), st.integers(0, 2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_fixed_seed_reruns_are_bit_identical(faults, seed):
    first = Session(_build(faults, seed=seed)).run()
    second = Session(_build(faults, seed=seed)).run()
    assert first.to_json_str() == second.to_json_str()


def test_partitioned_transactions_terminate_after_heal():
    # A partition covering most of the run: transactions started across
    # the cut must all retry through or abort by the end of the drain.
    scenario = _build(
        [
            lambda b: b.partition(
                time=2.0, heal=15.0, group_a=NODES[:2], group_b=NODES[2:]
            )
        ]
    )
    result = _run_and_check_invariants(scenario)
    assert result.messages_dropped > 0
    assert result.vote_timeouts > 0


def test_crash_without_recovery_rejects_but_conserves():
    scenario = _build(
        [lambda b: b.node_crash(NODES[0], time=1.0, recovery=None)]
    )
    result = _run_and_check_invariants(scenario)
    assert result.rejected_jobs > 0


def test_crashed_node_readmits_after_recovery():
    crash = _build([lambda b: b.node_crash(NODES[0], time=1.0, recovery=2.0)])
    result = _run_and_check_invariants(crash)
    # The recovered node serves arrivals again: the run accepts more jobs
    # than one where the node never comes back.
    dead = _build([lambda b: b.node_crash(NODES[0], time=1.0, recovery=None)])
    assert result.released_jobs >= Session(dead).run().released_jobs


def test_fault_free_run_is_bit_identical_to_seed_behavior():
    # The chaos layer must be invisible when no faults are declared: the
    # session installs no injector and the result matches a build of the
    # identical scenario byte for byte (including serialized JSON, which
    # omits the chaos counters when zero).
    plain = Scenario.builder().random_workload(seed=3).distributed()
    plain = plain.duration(DURATION).seed(11).build()
    session = Session(plain)
    result = session.run()
    assert session.system.network.fault_injector is None
    assert result.messages_dropped == 0
    assert result.vote_timeouts == 0
    data = result.to_json()
    for key in (
        "messages_dropped",
        "messages_delay_spiked",
        "vote_timeouts",
        "retries_sent",
        "transactions_aborted",
    ):
        assert key not in data


def test_idle_injector_is_bit_identical_to_no_injector():
    from repro.net.fault import FaultInjector

    plain = Session(
        Scenario.builder()
        .random_workload(seed=3)
        .distributed()
        .duration(DURATION)
        .seed(11)
        .build()
    )
    baseline = plain.run()

    idle = Session(
        Scenario.builder()
        .random_workload(seed=3)
        .distributed()
        .duration(DURATION)
        .seed(11)
        .build()
    )
    system = idle.deploy()
    system.install_fault_injector(FaultInjector(system.rngs))
    assert baseline.to_json_str() == idle.run().to_json_str()


def test_every_fault_kind_arms_the_injector():
    # ``armed`` is a field each add_* method sets (Network.send reads it
    # on every remote send).  A new add_* method must be listed here, so
    # one that forgets to arm the injector cannot go unnoticed.
    from repro.net.fault import FaultInjector
    from repro.sim.rng import RngRegistry

    samples = {
        "add_crash": ("app1", 1.0, 2.0),
        "add_partition": (1.0, 2.0, ("app1",), ("app2",)),
        "add_delay_spike": (1.0, 2.0, 3.0),
        "add_message_loss": (0.1,),
    }
    adders = {name for name in vars(FaultInjector) if name.startswith("add_")}
    assert adders == set(samples)
    for name, args in samples.items():
        injector = FaultInjector(RngRegistry(2008))
        assert not injector.armed
        getattr(injector, name)(*args)
        assert injector.armed, name
