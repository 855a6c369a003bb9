"""Integration tests for the Session facade and its one batch path."""

import json
import os
from dataclasses import dataclass
from typing import ClassVar, Optional

import pytest

from repro.experiments.common import ExperimentScale
from repro.runtime import (
    MixRef,
    PolicySpec,
    ResultStore,
    RunSpec,
    SchemeSpec,
    Session,
    TaskSpec,
    resolve_jobs,
)

TINY = ExperimentScale(
    requests=60,
    lc_names=("masstree",),
    loads=(0.2,),
    combos=("nft",),
    mixes_per_combo=1,
)

#: Two mixes, so a sweep spans two replay groups and two baselines.
TWO_MIXES = ExperimentScale(
    requests=40,
    lc_names=("masstree",),
    loads=(0.2,),
    combos=("nft", "sss"),
    mixes_per_combo=1,
)

POLICIES = (
    PolicySpec.of("static_lc", label="StaticLC"),
    PolicySpec.of("ubik", label="Ubik", slack=0.05),
)

JOBS = (1, 2, 4)


def _session(jobs=1):
    return Session(store=ResultStore(None), jobs=jobs)


@dataclass(frozen=True)
class TripleSpec(TaskSpec):
    """A trivial picklable task riding the same batches as sweep runs."""

    kind: ClassVar[str] = "test_triple"
    result_type: ClassVar[Optional[type]] = None

    value: int

    def compute(self, store):
        return {"value": self.value * 3}


@dataclass(frozen=True)
class DoubleSpec(TaskSpec):
    """A picklable task that doubles its value, or raises if told to."""

    kind: ClassVar[str] = "test_double"
    result_type: ClassVar[Optional[type]] = None

    value: int
    fail: bool = False

    def compute(self, store):
        if self.fail:
            raise RuntimeError(f"spec {self.value} failed")
        return {"value": self.value * 2}


@dataclass(frozen=True)
class PidSpec(TaskSpec):
    """A task reporting the process that evaluated it."""

    kind: ClassVar[str] = "test_pid"
    result_type: ClassVar[Optional[type]] = None

    value: int

    def compute(self, store):
        return {"pid": os.getpid()}


#: Two policies on one mix: two run records over one shared baseline.
BATCH = [
    RunSpec(
        mix=MixRef(lc_name="masstree", load=0.2, combo="nft"),
        policy=policy,
        requests=60,
    )
    for policy in POLICIES
]


def _store_bytes(root):
    """Map fingerprint -> raw document bytes for a store directory."""
    return {path.stem: path.read_bytes() for path in root.glob("??/*.json")}


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

    def test_serial_and_parallel_identical(self, tmp_path):
        serial = _session().sweep(TINY, policies=POLICIES)
        parallel = Session(store=ResultStore(tmp_path), jobs=2).sweep(
            TINY, policies=POLICIES
        )
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
    """Batches at every worker count: same results, same store."""

    @pytest.fixture(scope="class")
    def reference(self):
        return _session().run_many(BATCH)

    @pytest.mark.parametrize("jobs", JOBS)
    def test_task_specs_ride_the_batch(self, jobs, tmp_path, reference):
        specs = [TripleSpec(value=2), BATCH[0], TripleSpec(value=5), BATCH[1]]
        store = ResultStore(tmp_path)
        results = Session(store=store, jobs=jobs).run_many(specs)
        assert results == [{"value": 6}, reference[0], {"value": 15}, reference[1]]
        assert ResultStore(tmp_path).stats()["by_kind"] == {
            "test_triple": 2,
            "run": 2,
            "baseline": 1,
        }

    @pytest.mark.parametrize("jobs", JOBS)
    def test_shared_baseline_stored_once(self, jobs, tmp_path, reference):
        session = Session(store=ResultStore(tmp_path), jobs=jobs)
        assert session.run_many(BATCH) == reference
        stats = ResultStore(tmp_path).stats()
        assert stats["by_kind"] == {"run": 2, "baseline": 1}

    @pytest.mark.parametrize("jobs", JOBS)
    def test_duplicate_specs_in_one_batch(self, jobs, tmp_path, reference):
        specs = [BATCH[0], BATCH[1], BATCH[0]]
        session = Session(store=ResultStore(tmp_path), jobs=jobs)
        assert session.run_many(specs) == [reference[0], reference[1], reference[0]]
        assert len(ResultStore(tmp_path)) == 3  # two runs, one baseline

    @pytest.mark.parametrize("jobs", JOBS)
    def test_results_in_spec_order(self, jobs, tmp_path):
        specs = [DoubleSpec(value=v) for v in (5, 1, 3)]
        results = Session(store=ResultStore(tmp_path), jobs=jobs).run_many(specs)
        assert results == [{"value": 10}, {"value": 2}, {"value": 6}]

    def test_memory_store_evaluates_in_process(self, reference, monkeypatch):
        # Pool workers cannot reach a memory store, so its batches run
        # here at any jobs and leave the whole corpus in the store.
        import concurrent.futures

        def refuse_pool(*args, **kwargs):
            raise AssertionError("a process pool was built")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse_pool)
        store = ResultStore(None)
        assert store.share_target() is None
        assert Session(store=store, jobs=2).run_many(BATCH) == reference
        assert len(store) == 3  # two runs, one baseline


class TestProcessPool:
    """Where a batch's misses are evaluated."""

    def test_misses_fan_out_over_jobs_workers(self, tmp_path, monkeypatch):
        import concurrent.futures

        built = []
        original = concurrent.futures.ProcessPoolExecutor

        def spy(max_workers):
            built.append(max_workers)
            return original(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
        specs = [PidSpec(value=v) for v in range(6)]
        results = Session(store=ResultStore(tmp_path), jobs=2).run_many(specs)
        assert built == [2]
        assert os.getpid() not in {r["pid"] for r in results}

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_one_worker_or_one_miss_stays_in_process(self, jobs, tmp_path):
        specs = [PidSpec(value=v) for v in range(3 if jobs == 1 else 1)]
        results = Session(store=ResultStore(tmp_path), jobs=jobs).run_many(specs)
        assert {r["pid"] for r in results} == {os.getpid()}

    def test_store_hits_are_served_without_a_pool(
        self, tmp_path, forbid_evaluation
    ):
        specs = [DoubleSpec(value=v) for v in range(4)]
        Session(store=ResultStore(tmp_path), jobs=2).run_many(specs)
        forbid_evaluation()
        again = Session(store=ResultStore(tmp_path), jobs=2).run_many(specs)
        assert again == [{"value": 2 * v} for v in range(4)]


class TestBatchFailure:
    """A spec that raises in its worker: the error surfaces, the store
    holds only whole documents, and a rerun resumes from it."""

    @staticmethod
    def _assert_documents_whole(location):
        # Every file in the tree, temporaries included, is a document.
        root = ResultStore(location).root
        for path in root.rglob("*"):
            if path.is_file():
                assert json.loads(path.read_text())["kind"] == "test_double"

    def test_error_reraised_and_finished_work_kept(
        self, tmp_path, forbid_evaluation
    ):
        # The failing spec is last, so every other spec has finished
        # (and persisted) by the time its error surfaces.
        location = str(tmp_path / "tree")
        good = [DoubleSpec(value=v) for v in range(6)]
        failing = DoubleSpec(value=99, fail=True)
        with pytest.raises(RuntimeError, match="spec 99 failed"):
            Session(store=location, jobs=2).run_many(good + [failing])
        self._assert_documents_whole(location)
        assert len(ResultStore(location)) == len(good)
        forbid_evaluation()
        rerun = Session(store=location, jobs=2).run_many(good)
        assert rerun == [{"value": 2 * v} for v in range(6)]

    def test_rerun_resumes_after_an_early_failure(self, tmp_path):
        # Specs queued behind the failure may never start; a rerun
        # evaluates whatever the store lacks and matches serial results.
        location = str(tmp_path / "tree")
        good = [DoubleSpec(value=v) for v in range(6)]
        failing = DoubleSpec(value=99, fail=True)
        with pytest.raises(RuntimeError, match="spec 99 failed"):
            Session(store=location, jobs=2).run_many([failing] + good)
        self._assert_documents_whole(location)
        resumed = Session(store=location, jobs=2).run_many(good)
        assert resumed == [spec.execute(None) for spec in good]


class TestDeterminismMatrix:
    """One sweep at 1, 2 and 4 workers on both engines: the serial
    reference's records and documents, byte for byte."""

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory, store_documents):
        root = tmp_path_factory.mktemp("serial-ref")
        store = ResultStore(root)
        session = Session(store=store, jobs=1)
        records = session.run_many(session.sweep_specs(TWO_MIXES, POLICIES))
        return records, store_documents(store), _store_bytes(root)

    @pytest.mark.parametrize("engine", ["directory", "memory"])
    @pytest.mark.parametrize("jobs", JOBS)
    def test_records_and_documents_match_serial_reference(
        self, reference, jobs, engine, tmp_path, store_documents
    ):
        ref_records, ref_documents, ref_bytes = reference
        store = ResultStore(str(tmp_path / "tree") if engine == "directory" else None)
        session = Session(store=store, jobs=jobs)
        records = session.run_many(session.sweep_specs(TWO_MIXES, POLICIES))
        assert records == ref_records
        assert store_documents(store) == ref_documents
        if engine == "directory":
            # Nothing else left behind in the live tree: no temp files.
            assert _store_bytes(tmp_path / "tree") == ref_bytes


class TestJobs:
    """The worker-count resolver behind ``jobs=`` and ``REPRO_JOBS``."""

    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1
        assert _session().jobs == 1

    def test_env_sets_the_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs() == 3
        assert Session(store=ResultStore(None)).jobs == 3

    def test_explicit_jobs_override_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert _session(1).jobs == 1
        assert _session(2).jobs == 2

    def test_zero_means_all_cores(self, monkeypatch):
        cores = os.cpu_count() or 1
        assert resolve_jobs(0) == cores
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert resolve_jobs() == cores

    @pytest.mark.parametrize("raw", ["many", "2.5"])
    def test_invalid_env_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_JOBS", raw)
        with pytest.raises(ValueError, match=f"REPRO_JOBS must be an integer, got '{raw}'"):
            resolve_jobs()

    def test_negative_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "-2")
        with pytest.raises(ValueError, match="REPRO_JOBS must be non-negative"):
            resolve_jobs()

    def test_negative_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs must be non-negative"):
            _session(-1)

    @pytest.mark.parametrize("jobs", [2.5, True, "2"])
    def test_non_integer_jobs_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs must be an integer"):
            _session(jobs)
