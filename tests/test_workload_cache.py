"""The per-process workload cache behind ``WorkloadSource.materialize``.

Generated sources are materialized once per process and shared by every
equal source.  These tests pin what makes the sharing safe: equal values
share one object, unequal ones never do, the cached workloads equal a
direct generator call, the cache stays bounded, and a grid's results do
not depend on the order that fills the cache.
"""

import hashlib
import pickle

import pytest

from repro.api import Scenario, Session, WorkloadSource
from repro.api.scenario import WORKLOAD_CACHE_SIZE, _generated_workload
from repro.sim.rng import RngRegistry
from repro.workloads.generator import RandomWorkloadParams, generate_random_workload
from repro.workloads.imbalanced import (
    ImbalancedWorkloadParams,
    generate_imbalanced_workload,
)

SEED = 2008


@pytest.fixture(autouse=True)
def cold_cache():
    _generated_workload.cache_clear()
    yield
    _generated_workload.cache_clear()


class TestSharing:
    def test_equal_sources_share_one_workload(self):
        source = WorkloadSource.random(SEED, index=2)
        rebuilt = WorkloadSource.random(SEED, index=2)
        assert source.materialize() is rebuilt.materialize()

    def test_json_round_trip_hits_the_cache(self):
        source = WorkloadSource.imbalanced(
            SEED, index=1, params=ImbalancedWorkloadParams(n_periodic=3)
        )
        rebuilt = WorkloadSource.from_json(source.to_json())
        assert rebuilt == source
        assert rebuilt.materialize() is source.materialize()

    def test_pickle_round_trip_hits_the_cache(self):
        source = WorkloadSource.random(
            SEED, index=3, params=RandomWorkloadParams(n_processors=4)
        )
        rebuilt = pickle.loads(pickle.dumps(source))
        assert rebuilt is not source
        assert rebuilt.materialize() is source.materialize()

    @pytest.mark.parametrize(
        "variant",
        [
            WorkloadSource.imbalanced(SEED, index=1),
            WorkloadSource.random(SEED + 1, index=1),
            WorkloadSource.random(SEED, index=0),
            WorkloadSource.random(SEED, index=1, stream="other_sets"),
            WorkloadSource.random(
                SEED, index=1, params=RandomWorkloadParams(n_aperiodic=5)
            ),
        ],
        ids=["kind", "seed", "index", "stream", "params"],
    )
    def test_sources_differing_in_one_field_never_share(self, variant):
        base = WorkloadSource.random(SEED, index=1)
        base_workload = base.materialize()
        variant_workload = variant.materialize()
        assert variant_workload is not base_workload
        assert variant_workload == _generated_workload.__wrapped__(variant)
        assert base.materialize() is base_workload
        assert _generated_workload.cache_info().currsize == 2

    def test_explicit_sources_bypass_the_cache(self):
        workload = _generated_workload.__wrapped__(WorkloadSource.random(SEED))
        source = WorkloadSource.explicit(workload)
        assert source.materialize() is workload
        assert _generated_workload.cache_info().currsize == 0


class TestValues:
    @pytest.mark.parametrize(
        "kind, generate",
        [
            ("random", generate_random_workload),
            ("imbalanced", generate_imbalanced_workload),
        ],
    )
    def test_cached_workloads_equal_direct_generation(self, kind, generate):
        rng = RngRegistry(SEED).stream("task_sets")
        direct = [generate(rng) for _ in range(4)]
        factory = getattr(WorkloadSource, kind)
        for index, expected in enumerate(direct):
            source = factory(SEED, index=index)
            assert source.materialize() == expected
            assert source.materialize() == expected  # served from the cache

    def test_cache_never_exceeds_its_bound(self):
        assert WORKLOAD_CACHE_SIZE >= 16  # a paper grid's distinct task sets
        assert _generated_workload.cache_info().maxsize == WORKLOAD_CACHE_SIZE
        for seed in range(WORKLOAD_CACHE_SIZE + 8):
            WorkloadSource.random(seed).materialize()
            assert _generated_workload.cache_info().currsize <= WORKLOAD_CACHE_SIZE
        assert _generated_workload.cache_info().currsize == WORKLOAD_CACHE_SIZE


# ----------------------------------------------------------------------
# A grid's results do not depend on how the cache was filled
# ----------------------------------------------------------------------
COMBOS = ("J_N_N", "J_J_J", "T_T_T", "J_T_N", "T_N_J")


def _digest(source, combo, index):
    scenario = Scenario(
        workload=source,
        combo=combo,
        duration=3.0,
        seed=SEED,
        label=f"set{index}/{combo}",
    )
    result = Session(scenario, via_dance=True).run()
    return hashlib.sha256(result.to_json_str().encode()).hexdigest()


def test_grid_digests_do_not_depend_on_cache_order():
    sources = [WorkloadSource.random(SEED, index=i) for i in range(2)]
    source_major = {
        (i, combo): _digest(source, combo, i)
        for i, source in enumerate(sources)
        for combo in COMBOS
    }
    _generated_workload.cache_clear()
    combo_major = {
        (i, combo): _digest(source, combo, i)
        for combo in COMBOS
        for i, source in enumerate(sources)
    }
    explicit = [
        WorkloadSource.explicit(_generated_workload.__wrapped__(source))
        for source in sources
    ]
    pregenerated = {
        (i, combo): _digest(source, combo, i)
        for i, source in enumerate(explicit)
        for combo in COMBOS
    }
    assert combo_major == source_major
    assert pregenerated == source_major
    assert len(set(source_major.values())) == len(source_major)
