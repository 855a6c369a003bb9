"""Executor-by-engine byte identity on a golden-suite batch.

How a batch is fanned out must change nothing about what lands in the
store: not a float, not a byte.  This evaluates a three-policy batch of
the pinned ``tests/golden`` grid (one shared baseline, three run
records) under each executor and against each local engine, and
compares the canonical export of every resulting corpus with the
serial directory-store reference, file for file.  A rerun against the
filled store must then be served without evaluating anything.
"""

import pytest

from repro.runtime import (
    Executor,
    MixRef,
    PolicySpec,
    ResultStore,
    RunSpec,
    Session,
    make_executor,
    reset_artifacts,
)

#: The Ubik, LRU and StaticLC cells of the golden grid: masstree at low
#: load against the nft batch trio, 60 requests, one shared baseline.
GOLDEN_SPECS = [
    RunSpec(
        mix=MixRef(lc_name="masstree", load=0.2, combo="nft"),
        policy=policy,
        requests=60,
    )
    for policy in (
        PolicySpec.of("ubik", slack=0.05),
        PolicySpec.of("lru", label="LRU"),
        PolicySpec.of("static_lc", label="StaticLC"),
    )
]

EXECUTORS = ("serial", "parallel", "async")
ENGINES = ("directory", "sqlite", "memory")


def make_store(name, tmp_path):
    """A fresh ResultStore on the named engine under tmp_path."""
    if name == "directory":
        return ResultStore(str(tmp_path / "tree"))
    if name == "sqlite":
        return ResultStore(f"sqlite://{tmp_path}/store.db")
    return ResultStore(None)


def tree(root):
    """path -> bytes for every file under a directory."""
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in root.rglob("*")
        if p.is_file()
    }


def tree_of(store, destination):
    """A store's canonical export as path -> bytes."""
    store.export_canonical(destination)
    return tree(destination)


class NoWorkExecutor(Executor):
    """An executor that fails the test if anything reaches it."""

    def map(self, fn, items):
        items = list(items)
        if items:
            raise AssertionError(f"{len(items)} specs were evaluated")
        return []


@pytest.fixture(autouse=True)
def _fresh_artifacts(monkeypatch):
    """Empty artifact cache per test, tier 2 off: every arm computes."""
    monkeypatch.delenv("REPRO_ARTIFACTS_TIER2", raising=False)
    reset_artifacts()
    yield
    reset_artifacts()


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The serial directory-store ground truth every cell reproduces."""
    root = tmp_path_factory.mktemp("reference")
    reset_artifacts()
    records = Session(
        store=ResultStore(str(root)), executor=make_executor(1, kind="serial")
    ).run_many(GOLDEN_SPECS)
    documents = tree(root)
    assert len(documents) == len(GOLDEN_SPECS) + 1  # one shared baseline
    return records, documents


@pytest.mark.parametrize("engine", ("directory", "sqlite"))
@pytest.mark.parametrize("kind", EXECUTORS)
def test_store_documents_byte_identical(kind, engine, tmp_path, reference):
    ref_records, ref_documents = reference
    store = make_store(engine, tmp_path)
    records = Session(store=store, executor=make_executor(2, kind=kind)).run_many(
        GOLDEN_SPECS
    )
    assert records == ref_records
    exported = tmp_path / "export"
    assert store.export_canonical(exported) == len(ref_documents)
    assert tree(exported) == ref_documents, f"corpus drifted at {kind}/{engine}"
    if engine == "directory":
        # Nothing else left behind in the live tree: no temp files.
        assert tree(tmp_path / "tree") == ref_documents
    store.close()


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("kind", EXECUTORS)
def test_rerun_is_served_without_evaluating(kind, engine, tmp_path, reference):
    ref_records, _ = reference
    store = make_store(engine, tmp_path)
    first = Session(store=store, executor=make_executor(2, kind=kind))
    assert first.run_many(GOLDEN_SPECS) == ref_records
    # Persistent engines serve a brand-new handle; a memory store can
    # only serve the handle that filled it.
    reread = ResultStore(store.share_target()) if store.persistent else store
    rerun = Session(store=reread, executor=NoWorkExecutor())
    assert rerun.run_many(GOLDEN_SPECS) == ref_records
    store.close()


@pytest.mark.parametrize("engine", ENGINES)
def test_batch_equals_one_spec_at_a_time(engine, tmp_path, reference):
    ref_records, _ = reference
    batch_store = make_store(engine, tmp_path / "batch")
    single_store = make_store(engine, tmp_path / "single")
    batch = Session(store=batch_store).run_many(GOLDEN_SPECS)
    singles = [Session(store=single_store).run(spec) for spec in GOLDEN_SPECS]
    assert batch == singles == ref_records
    assert tree_of(batch_store, tmp_path / "eb") == tree_of(
        single_store, tmp_path / "es"
    )
