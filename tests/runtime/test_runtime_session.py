"""Integration tests for the Session facade (store + executors)."""

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
