"""Property tests for the batched hot path.

Five contracts are enforced here:

* **Batch admission parity** — for random bursts of arrivals,
  :meth:`AubAnalyzer.admissible_batch` (a batch session over the burst's
  summed demand, one ``try_admit`` per candidate) accepts exactly the
  prefix-greedy set that sequential :meth:`NaiveAubAnalyzer.admissible`
  calls (with real per-stage ledger commits between them) would accept,
  at exact float equality; and :meth:`NaiveAubAnalyzer.admissible_batch`
  — the retained reference transcription — agrees with both.
* **Batch placement parity** — load-balanced bursts planned through an
  envelope-screened :class:`BatchAdmissionSession` (greedy scores
  against the ledger plus the burst's accepted overlay, one
  ``try_admit`` per plan) produce the same assignments, the same
  accept/reject decisions, and bit-identical final ledger utilizations
  as the sequential path's plan / ``admissible`` / per-stage-commit /
  register loop.
* **Screen-and-refresh at session start** — a session's demand-envelope
  screen leaves the keys it clears stale instead of refreshing them, yet
  the analyzer's violating set is exact right after every session
  opens, and decisions match :meth:`NaiveAubAnalyzer.admissible_batch`
  and the sequential oracle across back-to-back sessions on ledgers
  loaded behind the analyzer's back.
* **Ledger shard invariants** — the per-node sharded
  :class:`SyntheticUtilizationLedger` reports the same utilizations,
  snapshots, and contribution counts as an unsharded dict-of-dicts
  reference across random mixes of scalar and batched add/remove
  operations.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.load_balancer import LoadBalancerComponent
from repro.sched.aub import (
    EPSILON,
    AubAnalyzer,
    BatchCandidate,
    NaiveAubAnalyzer,
    SyntheticUtilizationLedger,
    aub_term,
)
from repro.sched.task import Job, TaskKind

from tests.taskutil import make_task

NODES = ("a", "b", "c", "d")


# ----------------------------------------------------------------------
# Batch admission parity
# ----------------------------------------------------------------------
def _build_population(rng, n_pre):
    """Three identical ledgers/analyzers with ``n_pre`` admitted tasks."""
    ledgers = [SyntheticUtilizationLedger(NODES) for _ in range(3)]
    analyzers = [
        AubAnalyzer(ledgers[0]),
        NaiveAubAnalyzer(ledgers[1]),
        NaiveAubAnalyzer(ledgers[2]),
    ]
    for i in range(n_pre):
        stages = rng.randint(1, 3)
        visits = [rng.choice(NODES) for _ in range(stages)]
        utils = [rng.uniform(0.005, 0.15) for _ in range(stages)]
        expiry = 1e9 if rng.random() < 0.8 else None
        for ledger in ledgers:
            for j, (node, util) in enumerate(zip(visits, utils)):
                ledger.add(node, (f"P{i}", 0, j), util)
        for analyzer in analyzers:
            analyzer.register((f"P{i}", 0), list(visits), expiry)
    return ledgers, analyzers


def _random_burst(rng, size):
    candidates = []
    for c in range(size):
        stages = rng.randint(1, 3)
        visits = [rng.choice(NODES) for _ in range(stages)]
        utils = [rng.uniform(0.005, 0.3) for _ in range(stages)]
        candidates.append(
            BatchCandidate(visits, list(zip(visits, utils)), key=(f"B{c}", 0))
        )
    return candidates


def _sequential_oracle(ledger, analyzer, candidates, now, expiry=1e9):
    """The ground truth: test each candidate, really commit accepts
    (under each candidate's own registry key)."""
    decisions = []
    for cand in candidates:
        admitted = analyzer.admissible(cand.visits, cand.contribs, now)
        decisions.append(admitted)
        if admitted:
            task_id, job_index = cand.key
            for j, (node, value) in enumerate(cand.stage_contribs):
                ledger.add(node, (task_id, job_index, j), value)
            analyzer.register(cand.key, list(cand.visits), expiry=expiry)
    return decisions


def _assert_burst_parity(seed, n_pre, burst_size):
    rng = random.Random(seed)
    ledgers, analyzers = _build_population(rng, n_pre)
    candidates = _random_burst(rng, burst_size)
    incremental = analyzers[0].admissible_batch(candidates, now=1.0)
    naive_batch = analyzers[1].admissible_batch(candidates, now=1.0)
    sequential = _sequential_oracle(ledgers[2], analyzers[2], candidates, 1.0)
    assert incremental == naive_batch == sequential, (
        f"burst decisions diverged (seed={seed}): incremental={incremental} "
        f"naive_batch={naive_batch} sequential={sequential}"
    )
    # Committing the accepted set through add_batch must reproduce the
    # sequential ledger bit for bit (same per-stage float accumulation).
    entries = [
        (node, (cand.key[0], cand.key[1], j), value)
        for cand, admitted in zip(candidates, incremental)
        if admitted
        for j, (node, value) in enumerate(cand.stage_contribs)
    ]
    ledgers[0].add_batch(entries)
    for node in NODES:
        assert ledgers[0].utilization(node) == ledgers[2].utilization(node)
    # And the committed incremental engine keeps agreeing with the
    # sequential oracle on a follow-up burst (fresh F-keys, no collision
    # with the burst just committed).
    for cand, admitted in zip(candidates, incremental):
        if admitted:
            analyzers[0].register(cand.key, list(cand.visits), expiry=1e9)
    follow_up = [
        BatchCandidate(c.visits, c.stage_contribs, key=(f"F{i}", 0))
        for i, c in enumerate(_random_burst(rng, 4))
    ]
    follow_inc = analyzers[0].admissible_batch(follow_up, now=1.0)
    follow_seq = _sequential_oracle(ledgers[2], analyzers[2], follow_up, 1.0)
    assert follow_inc == follow_seq


class TestBatchAdmissionParity:
    def test_seeded_bursts(self):
        saw_accept = saw_reject = False
        for seed in range(25):
            rng = random.Random(seed)
            ledgers, analyzers = _build_population(rng, rng.randint(0, 20))
            candidates = _random_burst(rng, rng.randint(1, 24))
            incremental = analyzers[0].admissible_batch(candidates, now=1.0)
            sequential = _sequential_oracle(
                ledgers[2], analyzers[2], candidates, 1.0
            )
            assert incremental == sequential
            saw_accept |= any(incremental)
            saw_reject |= not all(incremental)
        # The workload must exercise both outcomes to be meaningful.
        assert saw_accept and saw_reject

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        n_pre=st.integers(min_value=0, max_value=25),
        burst_size=st.integers(min_value=1, max_value=32),
    )
    def test_random_bursts(self, seed, n_pre, burst_size):
        _assert_burst_parity(seed, n_pre, burst_size)

    def test_empty_burst(self):
        ledger = SyntheticUtilizationLedger(NODES)
        analyzer = AubAnalyzer(ledger)
        assert analyzer.admissible_batch([], now=0.0) == []

    def test_saturating_burst_rejects_tail(self):
        """A burst that fills a node admits a prefix and rejects the rest."""
        ledger = SyntheticUtilizationLedger(["a"])
        analyzer = AubAnalyzer(ledger)
        candidates = [
            BatchCandidate(["a"], [("a", 0.2)], key=(f"B{i}", 0))
            for i in range(8)
        ]
        decisions = analyzer.admissible_batch(candidates, now=0.0)
        assert any(decisions) and not all(decisions)
        # Greedy prefix property: once a candidate of this uniform burst
        # is rejected, every later identical candidate is rejected too.
        first_reject = decisions.index(False)
        assert not any(decisions[first_reject:])


# ----------------------------------------------------------------------
# Batch placement parity (load-balanced bursts)
# ----------------------------------------------------------------------
def _random_task(rng, task_id):
    """A periodic chain with randomized eligible sets (deadline=period=1,
    so each stage's synthetic utilization equals its execution time)."""
    stages = rng.randint(1, 3)
    homes, replicas, execs = [], [], []
    for _ in range(stages):
        eligible = rng.sample(list(NODES), rng.randint(1, len(NODES)))
        homes.append(eligible[0])
        replicas.append(tuple(eligible[1:]))
        execs.append(rng.uniform(0.005, 0.3))
    return make_task(
        task_id,
        TaskKind.PERIODIC,
        deadline=1.0,
        execs=tuple(execs),
        homes=homes,
        replicas=replicas,
    )


def _twin_lb_population(rng, n_pre):
    """Two identical ledger/analyzer pairs with ``n_pre`` admitted tasks,
    a mix of live, expiring, and permanent registry entries."""
    ledgers = [SyntheticUtilizationLedger(NODES) for _ in range(2)]
    analyzers = [AubAnalyzer(ledger) for ledger in ledgers]
    for i in range(n_pre):
        stages = rng.randint(1, 3)
        visits = [rng.choice(NODES) for _ in range(stages)]
        utils = [rng.uniform(0.005, 0.15) for _ in range(stages)]
        # 0.5 expires before the burst at now=1.0: the session's prune
        # and the sequential path's per-test prune must agree.
        expiry = rng.choice([1e9, 0.5, None])
        for ledger in ledgers:
            for j, (node, util) in enumerate(zip(visits, utils)):
                ledger.add(node, (f"P{i}", 0, j), util)
        for analyzer in analyzers:
            analyzer.register((f"P{i}", 0), list(visits), expiry)
    return ledgers, analyzers


def _burst_jobs(rng, size):
    jobs = []
    for c in range(size):
        task = _random_task(rng, f"B{c}")
        jobs.append(
            Job(
                task=task,
                index=0,
                arrival_time=1.0,
                arrival_node=task.subtasks[0].home,
            )
        )
    return jobs


def _demand_envelope(jobs):
    """Worst-case per-node demand of a burst: every stage counted on
    each of its eligible processors."""
    demand = {}
    for job in jobs:
        task = job.task
        for subtask in task.subtasks:
            value = task.subtask_utilization(subtask.index)
            for node in subtask.eligible:
                demand[node] = demand.get(node, 0.0) + value
    return demand


def _lb_sequential_oracle(ledger, analyzer, lb, jobs, now):
    """The sequential LB path, transcribed: greedy-plan against the live
    ledger, test in location(), re-test in the AC's test-and-commit, then
    commit per stage and register."""
    plans = []
    for job in jobs:
        task = job.task
        assignment, added = lb._greedy_plan(task, ledger)
        visits = task.visited_processors(assignment)
        if not analyzer.admissible(visits, added, now):
            plans.append(None)
            continue
        contribs = {}
        for subtask in task.subtasks:
            node = assignment[subtask.index]
            contribs[node] = contribs.get(
                node, 0.0
            ) + task.subtask_utilization(subtask.index)
        if not analyzer.admissible(visits, contribs, now):
            plans.append(None)
            continue
        for subtask in task.subtasks:
            ledger.add(
                assignment[subtask.index],
                (task.task_id, job.index, subtask.index),
                task.subtask_utilization(subtask.index),
            )
        analyzer.register((task.task_id, job.index), visits, expiry=1e9)
        plans.append(assignment)
    return plans


def _assert_placement_parity(seed, n_pre, burst_size):
    rng = random.Random(seed)
    ledgers, analyzers = _twin_lb_population(rng, n_pre)
    jobs = _burst_jobs(rng, burst_size)
    lb = LoadBalancerComponent("lb", None)

    session = analyzers[0].batch_session(
        now=1.0, demand=_demand_envelope(jobs)
    )
    batched = [lb.location_in_batch(job, session) for job in jobs]
    entries = [
        (
            plan[subtask.index],
            (job.task.task_id, job.index, subtask.index),
            job.task.subtask_utilization(subtask.index),
        )
        for job, plan in zip(jobs, batched)
        if plan is not None
        for subtask in job.task.subtasks
    ]
    ledgers[0].add_batch(entries)

    sequential = _lb_sequential_oracle(
        ledgers[1], analyzers[1], lb, jobs, now=1.0
    )
    assert batched == sequential, (
        f"placement plans diverged (seed={seed}): "
        f"batched={batched} sequential={sequential}"
    )
    for node in NODES:
        assert ledgers[0].utilization(node) == ledgers[1].utilization(node)


class TestBatchPlacementParity:
    def test_seeded_bursts(self):
        saw_accept = saw_reject = False
        for seed in range(25):
            rng = random.Random(seed)
            ledgers, analyzers = _twin_lb_population(rng, rng.randint(0, 20))
            jobs = _burst_jobs(rng, rng.randint(1, 24))
            lb = LoadBalancerComponent("lb", None)
            session = analyzers[0].batch_session(
                now=1.0, demand=_demand_envelope(jobs)
            )
            batched = [lb.location_in_batch(job, session) for job in jobs]
            sequential = _lb_sequential_oracle(
                ledgers[1], analyzers[1], lb, jobs, now=1.0
            )
            assert batched == sequential
            saw_accept |= any(p is not None for p in batched)
            saw_reject |= any(p is None for p in batched)
        assert saw_accept and saw_reject

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        n_pre=st.integers(min_value=0, max_value=25),
        burst_size=st.integers(min_value=1, max_value=24),
    )
    def test_random_bursts(self, seed, n_pre, burst_size):
        _assert_placement_parity(seed, n_pre, burst_size)

    def test_overlay_is_visible_to_later_plans(self):
        """A placement accepted earlier in the burst must steer later
        greedy scores, exactly as an interim ledger commit would."""
        ledger = SyntheticUtilizationLedger(("a", "b"))
        analyzer = AubAnalyzer(ledger)
        lb = LoadBalancerComponent("lb", None)
        # Both stages may run anywhere; empty ledger ties break to "a".
        t0 = make_task("T0", execs=(0.2,), homes=("a",), replicas=[("b",)])
        t1 = make_task("T1", execs=(0.1,), homes=("a",), replicas=[("b",)])
        j0 = Job(task=t0, index=0, arrival_time=0.0, arrival_node="a")
        j1 = Job(task=t1, index=0, arrival_time=0.0, arrival_node="a")
        session = analyzer.batch_session(
            now=0.0, demand=_demand_envelope([j0, j1])
        )
        assert lb.location_in_batch(j0, session) == {0: "a"}
        # Without the overlay "a" would still score 0.0 and win the tie.
        assert lb.location_in_batch(j1, session) == {0: "b"}

    def test_saturating_burst_rejects_tail(self):
        ledgers = [SyntheticUtilizationLedger(("a",)) for _ in range(2)]
        analyzers = [AubAnalyzer(ledger) for ledger in ledgers]
        lb = LoadBalancerComponent("lb", None)
        jobs = [
            Job(
                task=make_task(f"T{i}", execs=(0.2,), homes=("a",)),
                index=0,
                arrival_time=0.0,
                arrival_node="a",
            )
            for i in range(8)
        ]
        session = analyzers[0].batch_session(
            now=0.0, demand=_demand_envelope(jobs)
        )
        plans = [lb.location_in_batch(job, session) for job in jobs]
        decisions = [p is not None for p in plans]
        assert any(decisions) and not all(decisions)
        first_reject = decisions.index(False)
        assert not any(decisions[first_reject:])
        assert plans == _lb_sequential_oracle(
            ledgers[1], analyzers[1], lb, jobs, now=0.0
        )


# ----------------------------------------------------------------------
# Screen-and-refresh at session start
# ----------------------------------------------------------------------
def _fresh_violating(ledger, analyzer):
    """Registered keys whose visit-order total under the live ledger
    exceeds the bound, recomputed from scratch (no analyzer cache)."""
    violating = set()
    for key, (visits, _expiry) in analyzer._visits.items():
        total = 0.0
        for node in visits:
            total += aub_term(ledger.utilization_or_zero(node))
        if total > 1.0 + EPSILON:
            violating.add(key)
    return violating


def _assert_screen_refresh_rule(seed, n_pre, rounds, coverage=None):
    """Back-to-back screened sessions on one analyzer, never refreshed in
    between, against the naive batch reference and the sequential oracle.

    Each round first loads or unloads the ledgers behind the analyzers'
    backs (contributions no admission test approved, so registered tasks
    can go over the bound and come back), then opens a session with a
    random demand envelope covering the round's candidates.
    """
    rng = random.Random(seed)
    ledgers = [SyntheticUtilizationLedger(NODES) for _ in range(3)]
    screened = AubAnalyzer(ledgers[0])
    naive, oracle = NaiveAubAnalyzer(ledgers[1]), NaiveAubAnalyzer(ledgers[2])
    analyzers = (screened, naive, oracle)
    for i in range(n_pre):
        stages = rng.randint(1, 3)
        visits = [rng.choice(NODES) for _ in range(stages)]
        utils = [rng.uniform(0.005, 0.06) for _ in range(stages)]
        expiry = rng.choice([1e9, None, rng.uniform(0.0, rounds)])
        for ledger in ledgers:
            for j, (node, util) in enumerate(zip(visits, utils)):
                ledger.add(node, (f"P{i}", 0, j), util)
        for analyzer in analyzers:
            analyzer.register((f"P{i}", 0), list(visits), expiry)
    loads = []
    #: Ledger entries of the previous round's accepted candidates, which
    #: expire (registry and ledger alike) before the next round.
    expiring = []
    for r in range(rounds):
        now = float(r) + 0.5
        for ledger in ledgers:
            ledger.remove_batch([(node, key) for node, key, _ in expiring])
        if loads and rng.random() < 0.7:
            node, key = loads.pop(rng.randrange(len(loads)))
            for ledger in ledgers:
                ledger.remove(node, key)
        if rng.random() < 0.5:
            node, key = rng.choice(NODES), ("X", r, 0)
            value = rng.uniform(0.05, 0.5)
            for ledger in ledgers:
                ledger.add(node, key, value)
            loads.append((node, key))
        candidates = [
            BatchCandidate(c.visits, c.stage_contribs, key=(f"R{r}B{i}", 0))
            for i, c in enumerate(_random_burst(rng, rng.randint(0, 8)))
        ]
        # Envelope: the candidates' summed demand plus random slack,
        # sometimes on nodes no candidate touches.
        demand = {}
        for cand in candidates:
            for node, value in cand.stage_contribs:
                demand[node] = demand.get(node, 0.0) + value
        for node in NODES:
            if rng.random() < 0.4:
                demand[node] = demand.get(node, 0.0) + rng.uniform(0.0, 0.4)

        session = screened.batch_session(now, demand)
        # (a) The violating set is exact right after the screen, although
        # the keys it cleared were not refreshed.
        expected = _fresh_violating(ledgers[0], screened)
        assert screened._violating == expected, (
            f"violating set diverged (seed={seed}, round={r}): "
            f"analyzer={sorted(screened._violating)} fresh={sorted(expected)}"
        )
        # Cleared keys stay dirty: every clean cached total is still exact.
        screened._sanitize_audit_caches()
        decisions = [session.try_admit(cand) for cand in candidates]
        naive_batch = naive.admissible_batch(candidates, now)
        sequential = _sequential_oracle(
            ledgers[2], oracle, candidates, now, expiry=now + 0.75
        )
        # (b) The screen changes no decision.
        assert decisions == naive_batch == sequential, (
            f"decisions diverged (seed={seed}, round={r}): screened="
            f"{decisions} naive_batch={naive_batch} sequential={sequential}"
        )
        expiring = [
            (node, (cand.key[0], cand.key[1], j), value)
            for cand, ok in zip(candidates, decisions)
            if ok
            for j, (node, value) in enumerate(cand.stage_contribs)
        ]
        for ledger, analyzer in zip(ledgers, (screened, naive)):
            ledger.add_batch(expiring)
            for cand, ok in zip(candidates, decisions):
                if ok:
                    analyzer.register(
                        cand.key, list(cand.visits), expiry=now + 0.75
                    )
        if coverage is not None:
            coverage["violating"] |= bool(expected)
            coverage["left_dirty"] |= bool(screened._dirty)
            coverage["accept"] |= any(decisions)
            coverage["reject"] |= not all(decisions)


class TestScreenAndRefresh:
    def test_seeded_session_chains(self):
        coverage = dict.fromkeys(
            ("violating", "left_dirty", "accept", "reject"), False
        )
        for seed in range(30):
            _assert_screen_refresh_rule(seed, 10, 8, coverage)
        # Over the bound, cleared-but-stale keys, accepts and rejects
        # must all occur, or the property says little.
        assert all(coverage.values()), coverage

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        n_pre=st.integers(min_value=0, max_value=25),
        rounds=st.integers(min_value=1, max_value=8),
    )
    def test_random_session_chains(self, seed, n_pre, rounds):
        _assert_screen_refresh_rule(seed, n_pre, rounds)

    def test_skipping_the_refresh_is_caught(self, monkeypatch):
        """Negative control: an analyzer that marks stale keys clean
        without recomputing them fails the property."""
        monkeypatch.setattr(
            AubAnalyzer, "_refresh", lambda self, stale: stale.clear()
        )
        with pytest.raises(AssertionError):
            for seed in range(30):
                _assert_screen_refresh_rule(seed, 10, 8)


# ----------------------------------------------------------------------
# Ledger shard invariants
# ----------------------------------------------------------------------
class _UnshardedReference:
    """The pre-sharding ledger layout: shared dicts keyed by node."""

    def __init__(self, nodes):
        self.contribs = {n: {} for n in nodes}
        self.totals = {n: 0.0 for n in nodes}

    def add(self, node, key, value):
        assert key not in self.contribs[node]
        self.contribs[node][key] = value
        self.totals[node] += value

    def remove(self, node, key):
        value = self.contribs[node].pop(key, None)
        if value is None:
            return False
        self.totals[node] -= value
        if not self.contribs[node]:
            self.totals[node] = 0.0
        return True


ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove", "add_batch", "remove_batch"]),
        st.integers(min_value=0, max_value=5),  # op seed
    ),
    max_size=30,
)


class TestLedgerShardInvariants:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31), ops=ops_strategy)
    def test_sharded_matches_unsharded_reference(self, seed, ops):
        rng = random.Random(seed)
        ledger = SyntheticUtilizationLedger(NODES)
        reference = _UnshardedReference(NODES)
        live = []
        counter = 0
        for op, _ in ops:
            if op == "add" or (op == "remove" and not live):
                node = rng.choice(NODES)
                key = ("T", counter, 0)
                counter += 1
                value = rng.uniform(0.001, 0.2)
                ledger.add(node, key, value)
                reference.add(node, key, value)
                live.append((node, key))
            elif op == "remove":
                node, key = live.pop(rng.randrange(len(live)))
                assert ledger.remove(node, key) == reference.remove(node, key)
            elif op == "add_batch":
                entries = []
                for _ in range(rng.randint(1, 6)):
                    node = rng.choice(NODES)
                    key = ("T", counter, 0)
                    counter += 1
                    value = rng.uniform(0.001, 0.2)
                    entries.append((node, key, value))
                    live.append((node, key))
                ledger.add_batch(entries)
                for node, key, value in entries:
                    reference.add(node, key, value)
            else:  # remove_batch
                picks = [
                    live.pop(rng.randrange(len(live)))
                    for _ in range(min(len(live), rng.randint(1, 6)))
                ]
                # Mix in an absent key: tolerated, not counted.
                entries = picks + [("a", ("absent", counter, 9))]
                removed = ledger.remove_batch(entries)
                expected = sum(
                    1 for node, key in picks if reference.remove(node, key)
                )
                assert removed == expected
            # The invariant proper: identical externally visible state,
            # bit for bit (both sides accumulate floats in one order).
            assert ledger.snapshot() == reference.totals
            for node in NODES:
                assert ledger.utilization(node) == reference.totals[node]
                assert ledger.contribution_count(node) == len(
                    reference.contribs[node]
                )

    def test_batch_notifications_once_per_touched_node(self):
        ledger = SyntheticUtilizationLedger(NODES)
        notified = []
        ledger.subscribe(notified.append)
        ledger.add_batch(
            [
                ("a", ("T", 0, 0), 0.1),
                ("a", ("T", 0, 1), 0.1),
                ("b", ("T", 0, 2), 0.1),
            ]
        )
        assert notified == ["a", "b"]
        notified.clear()
        removed = ledger.remove_batch(
            [
                ("a", ("T", 0, 0)),
                ("a", ("T", 0, 1)),
                ("b", ("T", 0, 2)),
                ("c", ("missing", 0, 0)),  # absent: no notification for c
            ]
        )
        assert removed == 3
        assert notified == ["a", "b"]

    def test_time_tracking_through_batches(self):
        ledger = SyntheticUtilizationLedger(["a"], track_time=True)
        ledger.add_batch([("a", ("T", 0, 0), 0.4)], now=0.0)
        ledger.remove_batch([("a", ("T", 0, 0))], now=2.0)
        # 0.4 for two seconds, then 0 for two seconds.
        assert abs(ledger.average_utilization("a", 4.0) - 0.2) < 1e-12


# ----------------------------------------------------------------------
# Expiry-heap compaction
# ----------------------------------------------------------------------
class TestExpiryHeapCompaction:
    def test_heap_stays_bounded_under_reregistration_churn(self):
        ledger = SyntheticUtilizationLedger(NODES)
        analyzer = AubAnalyzer(ledger)
        # Re-register the same keys with fresh expiries far in the future:
        # without compaction the heap grows by one stale entry per cycle.
        for round_ in range(50):
            for i in range(20):
                analyzer.register(
                    (f"T{i}", 0), ["a"], expiry=1e6 + round_ * 20 + i
                )
            analyzer.prune(now=0.0)
        assert analyzer.registered == 20
        # Bounded: at most live entries plus the sub-majority stale tail.
        assert len(analyzer._expiry_heap) <= 2 * analyzer.registered + 1

    def test_compaction_preserves_expiry_semantics(self):
        ledger = SyntheticUtilizationLedger(NODES)
        analyzer = AubAnalyzer(ledger)
        for i in range(100):
            analyzer.register((f"T{i}", 0), ["a"], expiry=10.0 + i)
        # Stale the majority by re-registering with later expiries.
        for i in range(80):
            analyzer.register((f"T{i}", 0), ["a"], expiry=500.0 + i)
        analyzer.prune(now=0.0)  # triggers compaction
        assert analyzer.registered == 100
        # Entries with untouched expiries retire on time...
        analyzer.prune(now=200.0)
        assert analyzer.registered == 80
        # ...and the re-registered ones at their new expiry, not the old.
        analyzer.prune(now=600.0)
        assert analyzer.registered == 0
