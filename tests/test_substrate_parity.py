"""Golden digests of whole runs: the substrate must not change a result.

``tests/test_api_parity.py`` compares the API against reference cells that
run on the same kernel, CPU model, CCM plumbing and event channels, so a
change to that substrate which alters results passes it unnoticed.  These
tests pin, for a small grid of 5-s scenarios, the sha256 of
``RunResult.to_json_str()``, the number of kernel events and the sha256
of the virtual-time trace.  The pinned
values were computed before the per-job substrate path was flattened; any
change to an event, an RNG draw, a sequence number or a float shows up
here.

To re-pin after an intended behaviour change, print ``_observed(cell)``
for every cell and say in the change log why the results moved.
"""

import hashlib

import pytest

from repro.api import Scenario, Session, WorkloadSource
from repro.core.cost_model import CostModel
from repro.workloads.generator import RandomWorkloadParams

DURATION = 5.0
SEED = 2008

#: Section 7.1 task sets, denser than the paper's so that 5 s of
#: simulated time carry a few hundred jobs through every path.
DENSE = RandomWorkloadParams(
    n_periodic=12, n_aperiodic=12, n_processors=6,
    min_deadline=0.05, max_deadline=1.0,
)


def _grid():
    """(name, scenario, via_dance) of every pinned cell."""
    cells = []
    # The AC is always on (per task or per job), so J_N_N stands in for
    # "no IR, no LB".
    for index, combo in enumerate(("J_N_N", "J_J_J", "T_T_T")):
        scenario = Scenario(
            workload=WorkloadSource.random(SEED, index, DENSE),
            combo=combo,
            duration=DURATION,
            seed=SEED,
            label=combo,
        )
        cells.append((f"dance/{combo}", scenario, True))
    burst_source = WorkloadSource.random(SEED, 2, DENSE)
    aperiodic = burst_source.materialize().aperiodic_tasks[0].task_id
    cells.append((
        "batched/J_J_J",
        Scenario.builder()
        .workload_source(burst_source)
        .combo("J_J_J")
        .duration(DURATION)
        .seed(SEED)
        .arrival_batching(True)
        .burst(time=2.0, jobs=32, task_id=aperiodic, spacing=1e-5)
        .label("batched")
        .build(),
        False,
    ))
    cells.append((
        "traced/J_T_J",
        Scenario.builder()
        .workload_source(WorkloadSource.random(SEED, 3, DENSE))
        .combo("J_T_J")
        .duration(DURATION)
        .seed(SEED)
        .trace(True)
        .label("traced")
        .build(),
        False,
    ))
    cells.append((
        "distributed/lossy",
        Scenario.builder()
        .workload_source(WorkloadSource.random(SEED, 4, DENSE))
        .combo("J_N_N")
        .distributed()
        .duration(DURATION)
        .seed(SEED)
        .message_loss(0.1, time=DURATION / 3, until=2 * DURATION / 3)
        .label("lossy")
        .build(),
        False,
    ))
    # Piggybacked rounds under loss and a coordinator crash: a 5-ms
    # admission test makes simultaneous arrivals queue, so some rounds
    # carry several reservations through the retry/abort ladder.
    cells.append((
        "distributed/batched-lossy",
        Scenario.builder()
        .workload_source(WorkloadSource.random(SEED, 6, DENSE))
        .combo("J_N_N")
        .distributed()
        .arrival_batching()
        .cost_model(CostModel(admission_test=0.005))
        .duration(DURATION)
        .seed(SEED)
        .message_loss(0.2, time=DURATION / 3, until=2 * DURATION / 3)
        .node_crash("app1", time=2.5, recovery=3.0)
        .label("batched-lossy")
        .build(),
        False,
    ))
    return cells


#: sha256 of "[]": an untraced run records nothing.
NO_TRACE = "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"

#: name -> (sha256 of RunResult.to_json_str(), events_executed, sha256 of
#: the repr of the virtual-time trace records).
GOLDEN = {
    "dance/J_N_N": (
        "b3bdc3863813e3bed238f40172872fac9763594527fd8d903b4d9e5ecda60fa4",
        2116,
        NO_TRACE,
    ),
    "dance/J_J_J": (
        "c37c583e604f4fc065d6be5b85d3c6e72128769fec81f1f9be8e47e3436ec59f",
        6108,
        NO_TRACE,
    ),
    "dance/T_T_T": (
        "7b62845cec6ac8964e7806c9ad584dc2ac8cb7cf88be7a90d8a1c4e091ab83da",
        2313,
        NO_TRACE,
    ),
    "batched/J_J_J": (
        "9993210f727f98b62c4f56ffa6fb27feb222a0b944cfec24642fd997c618e923",
        6535,
        NO_TRACE,
    ),
    "traced/J_T_J": (
        "6bf3a55e647f64f83b5ae5213fa5677bc8da043b884e32b6b683b59b45a1c068",
        3196,
        "6c810cc8f9d7b2ae038ba302c8accf6fde53a582a14e81d07675c7c8fff6e262",
    ),
    "distributed/lossy": (
        "1c8a124ec59796b1757d75618358f9851007826f798c5f06104c58cc3a616597",
        3391,
        NO_TRACE,
    ),
    # Recorded before the per-reservation and piggybacked coordination
    # protocols were merged into one.
    "distributed/batched-lossy": (
        "59cd4577cbf0a360b47344c6b60ad54ee6bca83665761a716c2eddddc5007840",
        4249,
        NO_TRACE,
    ),
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _observed(scenario, via_dance):
    """(result digest, kernel events, trace digest) of one run."""
    session = Session(scenario, via_dance=via_dance)
    system = session.deploy()
    result = session.run()
    # The distributed engine keeps no virtual-time trace.
    tracer = getattr(system, "tracer", None)
    records = tracer.records if tracer is not None else []
    return _sha256(result.to_json_str()), result.events_executed, _sha256(repr(records))


@pytest.mark.parametrize(
    "name, scenario, via_dance", _grid(), ids=[cell[0] for cell in _grid()]
)
def test_run_result_matches_golden_digest(name, scenario, via_dance):
    assert _observed(scenario, via_dance) == GOLDEN[name]


def test_grid_covers_every_golden_entry():
    assert sorted(cell[0] for cell in _grid()) == sorted(GOLDEN)
