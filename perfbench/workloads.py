"""The benchmark's workloads: seed -> the ``Scenario`` cells of one rep.

Every workload is an open-loop simulated load: the arrival plan (periodic
releases, Poisson aperiodic arrivals, bursts) is fixed by the scenario
before the run and does not slow down when the system does.  The host
side is a batch job: one process, no threads, scenarios run one after
another.  The program under test receives only the generated scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.api import Scenario, WorkloadSource
from repro.core.strategies import valid_combinations
from repro.workloads.generator import RandomWorkloadParams

#: Seed used when none is given, and a seed kept out of all tuning for
#: re-checking a claimed gain on inputs it was not developed against.
DEFAULT_SEED = 2008
HELD_OUT_SEED = 7919

# Each workload runs several independent task sets per rep, so that its
# host throughput depends little on which task sets a seed draws.

#: paper_grid: task sets of each kind (section 7.1 random, 7.2
#: imbalanced), each run under all 15 combos for PAPER_DURATION seconds.
PAPER_SETS = 8
PAPER_DURATION = 30.0

#: burst_lb: BURST_SETS task sets of the 7.1 generator scaled to 200
#: tasks on 20 processors, each with BURSTS bursts of BURST_JOBS jobs
#: spread over the run, one aperiodic task after another.  Burst jobs
#: arrive BURST_SPACING apart, faster than the AC decides, so they queue
#: and are admitted in batches.
BURST_PARAMS = RandomWorkloadParams(n_periodic=100, n_aperiodic=100, n_processors=20)
BURST_SETS = 3
BURST_DURATION = 20.0
BURSTS = 10
BURST_JOBS = 64
BURST_SPACING = 1e-5

#: dist_lossy: DIST_SETS task sets of the 7.1 generator scaled to 100
#: tasks on 20 processors, with DIST_LOSS message loss over the middle
#: third of each run.
DIST_PARAMS = RandomWorkloadParams(n_periodic=50, n_aperiodic=50, n_processors=20)
DIST_SETS = 6
DIST_DURATION = 30.0
DIST_LOSS = 0.1


@dataclass(frozen=True)
class Cell:
    """One scenario of a rep and how the benchmark deploys it."""

    scenario: Scenario
    via_dance: bool = False


@dataclass(frozen=True)
class Workload:
    """A named set of cells, built from a seed."""

    name: str
    why: str
    build: Callable[[int, Optional[float]], Tuple[Cell, ...]]
    #: The paper's guarantee applies: an admitted job never misses.
    zero_misses: bool


def paper_grid(seed: int, duration: Optional[float] = None) -> Tuple[Cell, ...]:
    duration = PAPER_DURATION if duration is None else duration
    sources = (("random", WorkloadSource.random), ("imbalanced", WorkloadSource.imbalanced))
    return tuple(
        Cell(
            Scenario(
                workload=source(seed, index),
                combo=combo.label,
                duration=duration,
                seed=seed + 1000 * index,
                label=f"{kind}{index}/{combo.label}",
            ),
            via_dance=True,
        )
        for kind, source in sources
        for index in range(PAPER_SETS)
        for combo in valid_combinations()
    )


def burst_lb(seed: int, duration: Optional[float] = None) -> Tuple[Cell, ...]:
    duration = BURST_DURATION if duration is None else duration
    return tuple(_burst_cell(seed, index, duration) for index in range(BURST_SETS))


def _burst_cell(seed: int, index: int, duration: float) -> Cell:
    source = WorkloadSource.random(seed, index, BURST_PARAMS)
    aperiodic = [task.task_id for task in source.materialize().aperiodic_tasks]
    builder = (
        Scenario.builder()
        .workload_source(source)
        .combo("J_J_J")
        .duration(duration)
        .seed(seed + 1000 * index)
        .arrival_batching(True)
        .label(f"burst{index}")
    )
    for k in range(BURSTS):
        builder = builder.burst(
            time=duration * (k + 0.5) / BURSTS,
            jobs=BURST_JOBS,
            task_id=aperiodic[k % len(aperiodic)],
            spacing=BURST_SPACING,
            base_index=100_000 + BURST_JOBS * k,
        )
    return Cell(builder.build())


def dist_lossy(seed: int, duration: Optional[float] = None) -> Tuple[Cell, ...]:
    duration = DIST_DURATION if duration is None else duration
    return tuple(
        Cell(
            Scenario.builder()
            .workload_source(WorkloadSource.random(seed, index, DIST_PARAMS))
            .combo("J_N_N")
            .distributed()
            .duration(duration)
            .seed(seed + 1000 * index)
            .message_loss(DIST_LOSS, time=duration / 3, until=2 * duration / 3)
            .label(f"dist{index}")
            .build()
        )
        for index in range(DIST_SETS)
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "paper_grid",
            "The paper's own Fig. 5/6 grid deployed through DAnCE-lite: the "
            "whole per-job substrate with AUB admission a minor share.",
            paper_grid,
            zero_misses=True,
        ),
        Workload(
            "burst_lb",
            "200 tasks on 20 CPUs with 64-job bursts, batched J_J_J: "
            "admission sessions, LB placement and the ledger do most of the work.",
            burst_lb,
            zero_misses=True,
        ),
        Workload(
            "dist_lossy",
            "Distributed two-phase admission with 10% message loss mid-run: "
            "network and vote protocol dominate, the AUB analyzer is bypassed.",
            dist_lossy,
            zero_misses=False,
        ),
    )
}
