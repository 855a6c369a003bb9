"""Integration tests for the Session facade (store + executors)."""

from dataclasses import dataclass
from typing import ClassVar, Optional

import pytest

from repro.experiments.common import ExperimentScale
from repro.runtime import (
    MixRef,
    ParallelExecutor,
    PolicySpec,
    ResultStore,
    RunSpec,
    SchemeSpec,
    SerialExecutor,
    Session,
    TaskSpec,
    make_executor,
)

TINY = ExperimentScale(
    requests=60,
    lc_names=("masstree",),
    loads=(0.2,),
    combos=("nft",),
    mixes_per_combo=1,
)

POLICIES = (
    PolicySpec.of("static_lc", label="StaticLC"),
    PolicySpec.of("ubik", label="Ubik", slack=0.05),
)


def _session(executor=None):
    return Session(store=ResultStore(None), executor=executor or SerialExecutor())


@dataclass(frozen=True)
class TripleSpec(TaskSpec):
    """A trivial picklable task riding the same batches as sweep runs."""

    kind: ClassVar[str] = "test_triple"
    result_type: ClassVar[Optional[type]] = None

    value: int

    def compute(self, store):
        return {"value": self.value * 3}


#: Two policies on one mix: two run records over one shared baseline.
BATCH = [
    RunSpec(
        mix=MixRef(lc_name="masstree", load=0.2, combo="nft"),
        policy=policy,
        requests=60,
    )
    for policy in POLICIES
]

EXECUTORS = ("serial", "parallel", "async")


class TestRun:
    def test_single_spec_produces_record(self):
        record = _session().run(
            RunSpec(
                mix=MixRef(lc_name="masstree", load=0.2, combo="nft"),
                policy=PolicySpec.of("ubik", label="Ubik", slack=0.05),
                requests=60,
            )
        )
        assert record.policy == "Ubik"
        assert record.mix_id == "masstree-lo-nft.0"
        assert record.tail_degradation > 0
        assert record.weighted_speedup > 0

    def test_store_hit_skips_recompute_and_relabels(self, tmp_path):
        spec = RunSpec(
            mix=MixRef(lc_name="masstree", load=0.2, combo="nft"),
            policy=PolicySpec.of("ubik", label="Ubik", slack=0.05),
            requests=60,
        )
        first = Session(store=ResultStore(tmp_path)).run(spec)
        renamed = RunSpec(
            mix=spec.mix,
            policy=PolicySpec.of("ubik", label="Ubik-5%", slack=0.05),
            requests=60,
        )
        second = Session(store=ResultStore(tmp_path)).run(renamed)
        assert second.policy == "Ubik-5%"
        assert second.tail_degradation == first.tail_degradation
        assert second.lc_tail_cycles == first.lc_tail_cycles


class TestSweep:
    def test_sweep_shape_and_order(self):
        sweep = _session().sweep(TINY, policies=POLICIES)
        assert [r.policy for r in sweep.records] == ["StaticLC", "Ubik"]
        assert sweep.policies() == ["StaticLC", "Ubik"]

    def test_serial_and_parallel_identical(self):
        serial = _session().sweep(TINY, policies=POLICIES)
        parallel = _session(ParallelExecutor(2)).sweep(TINY, policies=POLICIES)
        assert serial.records == parallel.records

    def test_store_round_trip_identical_records(self, tmp_path):
        cold = Session(store=ResultStore(tmp_path)).sweep(TINY, policies=POLICIES)
        warm = Session(store=ResultStore(tmp_path)).sweep(TINY, policies=POLICIES)
        assert warm.records == cold.records
        stats = ResultStore(tmp_path).stats()
        assert stats["by_kind"]["run"] == len(cold.records)
        assert stats["by_kind"]["baseline"] == 1

    def test_scheme_by_name(self):
        sweep = _session().sweep(
            TINY, policies=POLICIES[1:], scheme="waypart_sa16"
        )
        assert len(sweep.records) == 1

    def test_scheme_spec_changes_results(self):
        ideal = _session().sweep(TINY, policies=POLICIES[1:])
        lossy = _session().sweep(
            TINY,
            policies=POLICIES[1:],
            scheme=SchemeSpec.of("waypart_sa16"),
        )
        assert ideal.records != lossy.records


class TestRunMany:
    """Batches through every executor: same results, same store."""

    @pytest.fixture(scope="class")
    def reference(self):
        return _session().run_many(BATCH)

    @pytest.mark.parametrize("kind", EXECUTORS)
    def test_task_specs_ride_the_batch(self, kind, tmp_path, reference):
        specs = [TripleSpec(value=2), BATCH[0], TripleSpec(value=5), BATCH[1]]
        store = ResultStore(tmp_path)
        results = Session(store=store, executor=make_executor(2, kind=kind)).run_many(
            specs
        )
        assert results == [{"value": 6}, reference[0], {"value": 15}, reference[1]]
        assert ResultStore(tmp_path).stats()["by_kind"] == {
            "test_triple": 2,
            "run": 2,
            "baseline": 1,
        }

    @pytest.mark.parametrize("kind", EXECUTORS)
    def test_shared_baseline_stored_once(self, kind, tmp_path, reference):
        store = ResultStore(tmp_path)
        session = Session(store=store, executor=make_executor(2, kind=kind))
        assert session.run_many(BATCH) == reference
        stats = ResultStore(tmp_path).stats()
        assert stats["by_kind"] == {"run": 2, "baseline": 1}

    @pytest.mark.parametrize("kind", EXECUTORS)
    def test_duplicate_specs_in_one_batch(self, kind, tmp_path, reference):
        specs = [BATCH[0], BATCH[1], BATCH[0]]
        session = Session(
            store=ResultStore(tmp_path), executor=make_executor(2, kind=kind)
        )
        assert session.run_many(specs) == [reference[0], reference[1], reference[0]]
        assert len(ResultStore(tmp_path)) == 3  # two runs, one baseline

    @pytest.mark.parametrize("kind", ["parallel", "async"])
    def test_memory_store_with_a_process_pool(self, kind, reference):
        # A memory store cannot reach pool workers: they compute without
        # it, and the parent's memory layer keeps the results.
        store = ResultStore(None)
        session = Session(store=store, executor=make_executor(2, kind=kind))
        assert store.share_target() is None
        assert session.run_many(BATCH) == reference
        assert all(spec.fingerprint() in store for spec in BATCH)
