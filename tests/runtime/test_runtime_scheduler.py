"""Tests for the async executor and the batched spec scheduler."""

import json
from dataclasses import dataclass
from typing import ClassVar, Optional

import pytest

from repro.experiments.common import ExperimentScale
from repro.runtime import (
    AsyncExecutor,
    ParallelExecutor,
    PolicySpec,
    ProgressEvent,
    ResultStore,
    SchedulerCancelled,
    SerialExecutor,
    Session,
    SpecScheduler,
    TaskSpec,
)

TINY = ExperimentScale(
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


def _square(x: int) -> int:
    """Module-level so the process pool can pickle it."""
    return x * x


@dataclass(frozen=True)
class DoubleSpec(TaskSpec):
    """A trivial picklable task: doubles its value (cheap to run)."""

    kind: ClassVar[str] = "test_double"
    result_type: ClassVar[Optional[type]] = None

    value: int

    def compute(self, store):
        return {"value": self.value * 2}


class TestAsyncExecutor:
    def test_maps_in_order_across_processes(self):
        assert AsyncExecutor(2).map(_square, list(range(8))) == [
            x * x for x in range(8)
        ]

    def test_single_worker_stays_in_process(self):
        assert AsyncExecutor(1).map(_square, [3, 4]) == [9, 16]

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            AsyncExecutor(0)

    def test_window_bounds_submissions(self):
        # More items than window: everything still completes, in order.
        executor = AsyncExecutor(2, window=2)
        assert executor.map(_square, list(range(12))) == [
            x * x for x in range(12)
        ]


class TestSchedulerBasics:
    def test_results_in_spec_order(self, tmp_path):
        scheduler = SpecScheduler(store=ResultStore(tmp_path), jobs=2)
        results = scheduler.run([DoubleSpec(value=v) for v in (5, 1, 3)])
        assert results == [{"value": 10}, {"value": 2}, {"value": 6}]

    def test_store_hits_skip_workers(self, tmp_path):
        store = ResultStore(tmp_path)
        specs = [DoubleSpec(value=v) for v in range(4)]
        SpecScheduler(store=store, jobs=2).run(specs)
        events = []
        again = SpecScheduler(
            store=ResultStore(tmp_path), jobs=2, progress=events.append
        ).run(specs)
        assert again == [{"value": 2 * v} for v in range(4)]
        final = events[-1]
        assert final.phase == "done"
        assert final.cached == 4
        assert final.submitted == 0

    def test_in_flight_duplicates_deduplicated(self, tmp_path):
        events = []
        specs = [DoubleSpec(value=7)] * 5 + [DoubleSpec(value=8)]
        results = SpecScheduler(
            store=ResultStore(tmp_path), jobs=2, progress=events.append
        ).run(specs)
        assert results == [{"value": 14}] * 5 + [{"value": 16}]
        final = events[-1]
        assert final.submitted == 2  # one per unique fingerprint
        assert final.deduped == 4
        # Every queue entry counts as resolved, dedup or not: the final
        # event reports the batch finished, with no leftover ETA.
        assert final.done == final.total == 6
        assert final.eta_s is None

    def test_progress_events_count_up_with_eta(self, tmp_path):
        events = []
        SpecScheduler(
            store=ResultStore(tmp_path), jobs=2, progress=events.append
        ).run([DoubleSpec(value=v) for v in range(6)])
        phases = [e.phase for e in events]
        assert phases[-1] == "done"
        assert phases.count("completed") == 6
        dones = [e.done for e in events if e.phase == "completed"]
        assert dones == sorted(dones)
        assert all(e.total == 6 for e in events)
        # Any mid-drain completion has an extrapolated ETA.
        mid = [e for e in events if e.phase == "completed" and e.done < 6]
        assert all(e.eta_s is not None for e in mid)

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            SpecScheduler(jobs=0)

    def test_str_event_is_human_readable(self):
        event = ProgressEvent(
            phase="completed",
            total=10,
            submitted=4,
            cached=2,
            completed=3,
            in_flight=1,
            deduped=0,
            elapsed_s=1.5,
            eta_s=2.5,
        )
        assert "5/10 done" in str(event)
        assert "eta" in str(event)


class TestCancellation:
    def test_cancel_mid_batch_raises_and_store_stays_clean(self, tmp_path):
        store = ResultStore(tmp_path)
        scheduler = SpecScheduler(store=store, jobs=2, window=2)

        def cancel_on_first_completion(event: ProgressEvent) -> None:
            if event.phase == "completed":
                scheduler.cancel()

        scheduler.progress = cancel_on_first_completion
        specs = [DoubleSpec(value=v) for v in range(12)]
        with pytest.raises(SchedulerCancelled) as excinfo:
            scheduler.run(specs)
        assert excinfo.value.completed < len(specs)

        # Whatever landed on disk before the cancel is wholly valid…
        for path in tmp_path.glob("??/*.json"):
            doc = json.loads(path.read_text())
            assert doc["kind"] == "test_double"
        # …and a fresh scheduler finishes the batch from the store,
        # byte-identical to an uninterrupted serial evaluation.
        resumed = SpecScheduler(store=ResultStore(tmp_path), jobs=2).run(specs)
        assert resumed == [spec.execute(None) for spec in specs]


def _store_bytes(root):
    """Map fingerprint -> raw document bytes for a store directory."""
    return {
        path.stem: path.read_bytes() for path in root.glob("??/*.json")
    }


class TestDeterminismMatrix:
    """Same batch, every engine, 1/2/4 workers: identical store bytes."""

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("serial-ref")
        session = Session(store=ResultStore(root), executor=SerialExecutor())
        records = session.run_many(session.sweep_specs(TINY, POLICIES))
        return records, _store_bytes(root)

    @pytest.mark.parametrize(
        "make_executor_under_test",
        [
            lambda: SerialExecutor(),
            lambda: ParallelExecutor(2),
            lambda: AsyncExecutor(1),
            lambda: AsyncExecutor(2),
            lambda: AsyncExecutor(4),
        ],
        ids=["serial", "parallel-2", "async-1", "async-2", "async-4"],
    )
    def test_records_and_store_bytes_identical(
        self, reference, make_executor_under_test, tmp_path
    ):
        ref_records, ref_bytes = reference
        session = Session(
            store=ResultStore(tmp_path), executor=make_executor_under_test()
        )
        records = session.run_many(session.sweep_specs(TINY, POLICIES))
        assert records == ref_records
        assert _store_bytes(tmp_path) == ref_bytes

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_scheduler_matches_serial(self, reference, jobs, tmp_path):
        ref_records, ref_bytes = reference
        session = Session(store=ResultStore(tmp_path), jobs=jobs)
        specs = session.sweep_specs(TINY, POLICIES)
        records = session.run_many(specs, scheduler="async")
        assert records == ref_records
        assert _store_bytes(tmp_path) == ref_bytes

    @pytest.mark.parametrize("backend_name", ["directory", "sqlite", "memory"])
    def test_every_backend_matches_serial_reference(
        self, reference, backend_name, tmp_path
    ):
        """Same batch through each storage engine: identical records,
        and identical canonical exports (the cross-backend byte-parity
        contract, exercised by a real scheduler run)."""
        ref_records, ref_bytes = reference
        if backend_name == "directory":
            store = ResultStore(str(tmp_path / "tree"))
        elif backend_name == "sqlite":
            store = ResultStore(f"sqlite://{tmp_path}/store.db")
        else:
            store = ResultStore(None)
        if store.persistent:
            # Workers in other processes write to the shared target.
            session = Session(store=store, jobs=2)
            records = session.run_many(
                session.sweep_specs(TINY, POLICIES), scheduler="async"
            )
        else:
            # A memory store lives in this process only, so the batch
            # must run here for its documents to exist at all.
            session = Session(store=store, executor=SerialExecutor())
            records = session.run_many(session.sweep_specs(TINY, POLICIES))
        assert records == ref_records
        export = tmp_path / "export"
        store.export_canonical(export)
        assert _store_bytes(export) == ref_bytes
        store.close()


class TestSessionSchedulerWiring:
    def test_session_default_async_scheduler(self, tmp_path):
        events = []
        session = Session(
            store=ResultStore(tmp_path),
            jobs=2,
            scheduler="async",
            progress=events.append,
        )
        results = session.run_many([DoubleSpec(value=v) for v in range(3)])
        assert results == [{"value": 0}, {"value": 2}, {"value": 4}]
        assert events and events[-1].phase == "done"

    def test_unknown_scheduler_rejected(self, tmp_path):
        session = Session(store=ResultStore(tmp_path))
        with pytest.raises(ValueError, match="unknown scheduler"):
            session.run_many([DoubleSpec(value=1)], scheduler="warp")

    def test_scheduler_instance_passed_through(self, tmp_path):
        store = ResultStore(tmp_path)
        session = Session(store=store)
        scheduler = SpecScheduler(store=store, jobs=2)
        results = session.run_many(
            [DoubleSpec(value=9)], scheduler=scheduler
        )
        assert results == [{"value": 18}]
