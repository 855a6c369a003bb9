"""Many writers, one local store: the final corpus is the serial oracle.

The runtime's real write pattern is racy by construction: a sweep's
pool workers all put the same canonical text under the same content
fingerprint, run records and baseline documents interleaved.  Correctness
therefore means that however many threads or forked processes write one
store, the corpus they leave is byte-identical to applying the same
operations serially to a memory store.  These tests pin that for the
store that crosses process boundaries (a directory store) and, within
one process, for both kinds of store.
"""

import multiprocessing
import random
import threading

import pytest

from repro.runtime.spec import RunRecord, canonical_json
from repro.runtime.store import ResultStore

#: The corpus every scenario must converge to: duplicate-fingerprint
#: document puts (identical canonical text, as the runtime guarantees),
#: short run records interleaved with longer baseline documents.
DOCS = {f"{i:02x}" * 32: {"kind": "run", "i": i} for i in range(16)}
DOCS.update(
    {
        f"{i + 16:02x}" * 32: {
            "kind": "baseline",
            "latencies": [float(j) for j in range(64 + i)],
        }
        for i in range(16)
    }
)

PERSISTENT = ("directory",)


def _target(name, tmp_path):
    if name == "directory":
        return str(tmp_path / "tree")
    return None


def _ops(seed):
    """One worker's operation list: every document, shuffled, so every
    key is written by every worker, in a different order each."""
    ops = list(DOCS.items())
    random.Random(seed).shuffle(ops)
    return ops


def _apply(store, seed):
    for fingerprint, document in _ops(seed):
        store.put(fingerprint, document)


def _corpus(store):
    """The full logical corpus: document texts by fingerprint, read from
    a directory store's files (a memory store's as canonical JSON)."""
    if store.root is None:
        return {fp: canonical_json(store.get(fp)) for fp in store.fingerprints()}
    return {fp: store.document_path(fp).read_text() for fp in store.fingerprints()}


def _serial_oracle():
    oracle = ResultStore(None)
    _apply(oracle, seed=0)
    return _corpus(oracle)


def _run_threads(targets):
    """One writer thread per target; each writer's error fails the test,
    though every writer puts every document, so the corpus converges
    even when some die."""
    errors = []

    def write(store, seed):
        try:
            _apply(store, seed)
        except Exception as exc:  # pragma: no cover - the failure
            errors.append(exc)

    workers = [
        threading.Thread(target=write, args=(store, seed))
        for seed, store in enumerate(targets)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=60)
    assert not any(worker.is_alive() for worker in workers)
    assert errors == []


def _pool_writer(job):
    """Process-pool worker: open the store by URL and write every key."""
    url, seed = job
    _apply(ResultStore(url), seed)
    return seed


def _record(index):
    return RunRecord(
        mix_id=f"masstree-lo-nft.{index}",
        lc_name="masstree",
        load_label="lo",
        policy="Ubik",
        tail_degradation=1.0 + index / 7.0,
        weighted_speedup=1.25 + index / 11.0,
        lc_tail_cycles=1000.5 * (index + 1),
        baseline_tail_cycles=990.25 * (index + 1),
        deboosts=index,
        watermarks=index % 2,
    )


def _facade_writer(job):
    """Process-pool worker: reopen the share target, store records."""
    share_target, indices = job
    store = ResultStore(share_target)
    for index in indices:
        store.put_record(f"{index:064x}", _record(index))
    return list(indices)


def _open_together(url, barrier, index):
    """Process body: open the store at the barrier, write four docs."""
    barrier.wait(timeout=30)
    store = ResultStore(url)
    for offset in range(4):
        store.put(f"{index * 4 + offset:064x}", {"kind": "run"})


#: Fork-inheritance plumbing for the test below (set pre-fork).
_INHERITED = {}


def _write_with_inherited_handle():
    """Runs in the forked child with the parent's store object."""
    store = _INHERITED["store"]
    _apply(store, seed=99)
    return _corpus(store) == _serial_oracle()


class TestThreadStress:
    @pytest.mark.parametrize("name", PERSISTENT)
    def test_handle_per_thread_converges_to_serial_oracle(self, name, tmp_path):
        url = ResultStore(_target(name, tmp_path)).url
        handles = [ResultStore(url) for _ in range(8)]
        _run_threads(handles)
        assert _corpus(ResultStore(url)) == _serial_oracle()

    @pytest.mark.parametrize("name", ("directory", "memory"))
    def test_one_shared_handle_across_threads(self, name, tmp_path):
        shared = ResultStore(_target(name, tmp_path))
        _run_threads([shared] * 8)
        assert _corpus(shared) == _serial_oracle()

    @pytest.mark.parametrize("name", ("directory", "memory"))
    def test_clear_racing_writers_leaves_only_whole_documents(self, name, tmp_path):
        # A clear may sweep a live writer's temp file; that write is
        # dropped, never raised, and never leaves a torn document.
        shared = ResultStore(_target(name, tmp_path))
        stop = threading.Event()
        errors = []

        def write(seed):
            try:
                _apply(shared, seed)
            except Exception as exc:  # pragma: no cover - the failure
                errors.append(exc)

        def clear_until_stopped():
            while not stop.is_set():
                try:
                    shared.clear()
                except Exception as exc:  # pragma: no cover - the failure
                    errors.append(exc)

        clearer = threading.Thread(target=clear_until_stopped)
        writers = [threading.Thread(target=write, args=(seed,)) for seed in range(4)]
        clearer.start()
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=60)
        stop.set()
        clearer.join(timeout=60)
        assert not any(t.is_alive() for t in [clearer, *writers])
        assert errors == []
        oracle = _serial_oracle()
        assert all(oracle[fp] == text for fp, text in _corpus(shared).items())
        _apply(shared, seed=0)
        assert _corpus(shared) == _serial_oracle()


class TestProcessStress:
    @pytest.mark.parametrize("name", PERSISTENT)
    def test_process_pool_converges_to_serial_oracle(self, name, tmp_path):
        url = ResultStore(_target(name, tmp_path)).url
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(2) as pool:
            done = pool.map_async(
                _pool_writer, [(url, seed) for seed in range(4)]
            ).get(timeout=60)
        assert sorted(done) == [0, 1, 2, 3]
        assert _corpus(ResultStore(url)) == _serial_oracle()

    @pytest.mark.parametrize("name", PERSISTENT)
    def test_forked_worker_writes_through_an_inherited_handle(self, name, tmp_path):
        # A handle the parent has already used is inherited across
        # fork(); the child must still read and write the shared corpus
        # correctly.
        store = ResultStore(_target(name, tmp_path))
        _apply(store, seed=1)
        _INHERITED["store"] = store
        try:
            ctx = multiprocessing.get_context("fork")
            with ctx.Pool(1) as pool:
                assert pool.apply_async(_write_with_inherited_handle).get(timeout=60)
        finally:
            _INHERITED.clear()
        # The parent's handle still works afterwards.
        assert _corpus(store) == _serial_oracle()

    @pytest.mark.parametrize("name", PERSISTENT)
    def test_workers_reopening_the_share_target_fill_one_corpus(
        self, name, tmp_path
    ):
        parent = ResultStore(_target(name, tmp_path))
        jobs = [(parent.share_target(), range(start, 12, 3)) for start in range(3)]
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(2) as pool:
            done = pool.map_async(_facade_writer, jobs).get(timeout=60)
        assert sorted(i for indices in done for i in indices) == list(range(12))
        assert len(parent) == 12
        for index in range(12):
            assert parent.get_record(f"{index:064x}") == _record(index)
        serial = ResultStore(None)
        for index in range(12):
            serial.put_record(f"{index:064x}", _record(index))
        assert _corpus(parent) == _corpus(serial)

    @pytest.mark.parametrize("name", PERSISTENT)
    def test_processes_opening_a_new_store_together(self, name, tmp_path):
        # Eight processes released at once into a store that does not
        # exist yet all create its root and the one shard their
        # documents share; none may fail on a directory another made.
        ctx = multiprocessing.get_context("fork")
        for round_index in range(5):
            url = ResultStore(_target(name, tmp_path / f"round{round_index}")).url
            barrier = ctx.Barrier(8)
            workers = [
                ctx.Process(target=_open_together, args=(url, barrier, index))
                for index in range(8)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
            assert [worker.exitcode for worker in workers] == [0] * 8
            assert len(ResultStore(url)) == 32
