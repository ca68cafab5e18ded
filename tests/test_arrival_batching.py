"""Integration tests for the batched arrival hot path.

The batching flag must (a) actually engage — arrivals drain through the
AC's batched decision pass — (b) respect every strategy's semantics, and
(c) refuse engines that have no admission controller.
"""

import pytest

from repro.api import Scenario, Session
from repro.core.strategies import LBStrategy, valid_combinations
from repro.errors import ConfigurationError
from repro.workloads.generator import RandomWorkloadParams

PARAMS = RandomWorkloadParams(n_periodic=4, n_aperiodic=4)

#: Every valid combo that places at home (no LB): their bursts reach the
#: analyzer through ``admissible_batch``'s session.
HOME_COMBOS = [
    combo.label
    for combo in valid_combinations()
    if combo.lb is LBStrategy.NONE
]


def _scenario(combo="J_J_N", batching=True, **kwargs):
    builder = (
        Scenario.builder()
        .random_workload(seed=17, params=PARAMS)
        .combo(combo)
        .duration(15.0)
        .seed(5)
        .arrival_batching(batching)
    )
    for name, value in kwargs.items():
        builder = getattr(builder, name)(*value if isinstance(value, tuple) else (value,))
    return builder.build()


class TestMiddlewareBatching:
    def test_batched_arrivals_drain_through_batch_calls(self):
        session = Session(_scenario(burst=(4.0, 30, None, 1e-4)))
        result = session.run()
        ac = session.system.ac
        assert ac.batch_calls > 0
        assert ac.batched_arrivals >= ac.batch_calls
        # Every arrival was decided exactly once.
        assert result.released_jobs + result.rejected_jobs <= result.arrived_jobs
        assert result.released_jobs > 0

    def test_per_task_strategy_caches_through_the_batch_path(self):
        session = Session(_scenario(combo="T_N_N"))
        session.run()
        ac = session.system.ac
        assert ac.batch_calls > 0
        # AC-per-Task: periodic tasks carry a cached decision after their
        # first arrival (aperiodic tasks are always tested per arrival,
        # so their records legitimately stay undecided).
        workload = session.system.workload
        periodic = {t.task_id for t in workload.tasks if t.is_periodic}
        assert periodic
        for task_id in periodic:
            record = ac._records.get(task_id)
            if record is not None:
                assert record.admitted is not None

    def test_same_periodic_task_twice_in_one_batch_defers_to_cache(self):
        """Regression: under AC-per-Task, a burst delivering several jobs
        of one periodic task into a single drained batch must not stage
        duplicate RESERVED ledger keys — later jobs wait for the first
        job's cached decision, as the sequential path would."""
        workload = Session(_scenario()).deploy().workload  # reuse generator
        periodic = next(t for t in workload.tasks if t.is_periodic)
        scenario = (
            Scenario.builder()
            .random_workload(seed=17, params=PARAMS)
            .combo("T_N_N")
            .duration(10.0)
            .seed(5)
            .arrival_batching()
            .burst(0.0, 5, task_id=periodic.task_id, spacing=1e-9)
            .build()
        )
        session = Session(scenario)
        result = session.run()  # used to raise SchedulingError
        ac = session.system.ac
        assert ac.batch_calls > 0
        record = ac._records[periodic.task_id]
        assert record.admitted is not None
        assert result.released_jobs + result.rejected_jobs > 0

    def test_lb_combos_place_through_batch_sessions(self):
        session = Session(_scenario(combo="J_J_J", burst=(4.0, 30, None, 1e-4)))
        result = session.run()
        ac = session.system.ac
        lb = session.system.lb
        # The queue drains in batches and placements run through the
        # batch admission session (no per-candidate location() probes).
        assert ac.batch_calls > 0
        assert lb.location_calls > 0
        assert lb.plans_returned > 0
        assert result.released_jobs > 0

    def test_home_bursts_open_batch_sessions(self):
        session = Session(_scenario(combo="J_N_N", burst=(4.0, 30, None, 1e-4)))
        session.run()
        ac = session.system.ac
        # Home placement admits its drained bursts through a batch
        # session, like the load-balanced combos do.
        assert ac.batch_calls > 0
        assert ac.analyzer.batch_sessions > 0

    @pytest.mark.parametrize(
        "combo", ["J_J_J", "T_T_T", "T_T_J", "J_N_T"] + HOME_COMBOS
    )
    def test_batching_matches_sequential_decisions(self, combo):
        """Batched admission — LB placement and home placement alike — is
        bit-identical to the sequential path: same admitted/rejected/
        released counts and final ledger on the same trace."""
        outcomes = []
        for batching in (False, True):
            session = Session(
                _scenario(
                    combo=combo,
                    batching=batching,
                    burst=(4.0, 30, None, 1e-4),
                )
            )
            result = session.run()
            ac = session.system.ac
            outcomes.append(
                (
                    ac.admitted_jobs,
                    ac.rejected_jobs,
                    result.released_jobs,
                    result.final_synthetic_utilization,
                )
            )
        assert outcomes[0] == outcomes[1]

    def test_batching_preserves_admission_accounting(self):
        """On/off runs agree on the ledger bookkeeping invariants."""
        for batching in (False, True):
            session = Session(_scenario(batching=batching))
            result = session.run()
            # Synthetic utilization fully drains after the run (drain
            # window covers the longest deadline).
            for node, value in result.final_synthetic_utilization.items():
                assert value == pytest.approx(0.0, abs=1e-9), (
                    f"batching={batching}: residue on {node}"
                )

    def test_distributed_engine_supports_batching(self):
        scenario = (
            Scenario.builder()
            .random_workload(seed=17, params=PARAMS)
            .distributed()
            .duration(10.0)
            .seed(5)
            .arrival_batching()
            .build()
        )
        session = Session(scenario)
        result = session.run()
        assert sum(ac.batch_calls for ac in session.system.acs.values()) > 0
        assert result.released_jobs > 0


class TestBatchingValidation:
    def test_replay_engine_rejects_arrival_batching(self):
        with pytest.raises(ConfigurationError, match="arrival_batching"):
            (
                Scenario.builder()
                .random_workload(seed=1, params=PARAMS)
                .replay("aub")
                .arrival_batching()
                .build()
            )

    def test_round_trip_preserves_flag(self):
        scenario = _scenario()
        assert scenario.arrival_batching
        restored = Scenario.from_json_str(scenario.to_json_str())
        assert restored == scenario
        # Default-off scenarios omit the key entirely (format stability).
        assert "arrival_batching" not in _scenario(batching=False).to_json()

    def test_via_dance_deploys_batching_ac(self):
        session = Session(_scenario(), via_dance=True)
        session.run()
        assert session.system.ac.get_attribute("batching") is True
        assert session.system.ac.batch_calls > 0
