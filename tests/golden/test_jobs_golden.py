"""Worker-count-by-store byte identity on a golden-suite batch.

How a batch is fanned out must change nothing about what lands in the
store: not a float, not a byte.  This evaluates a three-policy batch of
the pinned ``tests/golden`` grid (one shared baseline, three run
records) at 1, 2 and 4 workers against both kinds of store, and compares
the documents of every resulting corpus with the serial directory-store
reference, text for text (and a directory store's tree file for
file).  A rerun against the
filled store must then be served without evaluating anything.
"""

import pytest

from repro.runtime import (
    MixRef,
    PolicySpec,
    ResultStore,
    RunSpec,
    Session,
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

JOBS = (1, 2, 4)
ENGINES = ("directory", "memory")


def make_store(name, tmp_path):
    """A fresh ResultStore of the named kind under tmp_path."""
    if name == "directory":
        return ResultStore(str(tmp_path / "tree"))
    return ResultStore(None)


def tree(root):
    """path -> bytes for every file under a directory."""
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in root.rglob("*")
        if p.is_file()
    }


@pytest.fixture(autouse=True)
def _fresh_artifacts():
    """Empty artifact cache per test: every arm computes."""
    reset_artifacts()
    yield
    reset_artifacts()


@pytest.fixture(scope="module")
def reference(tmp_path_factory, store_documents):
    """The serial directory-store ground truth every cell reproduces:
    records, documents by fingerprint, and the tree's files."""
    root = tmp_path_factory.mktemp("reference")
    reset_artifacts()
    store = ResultStore(str(root))
    records = Session(store=store, jobs=1).run_many(GOLDEN_SPECS)
    documents = store_documents(store)
    assert len(documents) == len(GOLDEN_SPECS) + 1  # one shared baseline
    return records, documents, tree(root)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("jobs", JOBS)
def test_store_documents_byte_identical(
    jobs, engine, tmp_path, reference, store_documents
):
    ref_records, ref_documents, ref_tree = reference
    store = make_store(engine, tmp_path)
    records = Session(store=store, jobs=jobs).run_many(GOLDEN_SPECS)
    assert records == ref_records
    assert store_documents(store) == ref_documents, (
        f"corpus drifted at {jobs}/{engine}"
    )
    if engine == "directory":
        # Nothing else left behind in the live tree: no temp files.
        assert tree(tmp_path / "tree") == ref_tree


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("jobs", JOBS)
def test_rerun_is_served_without_evaluating(
    jobs, engine, tmp_path, reference, forbid_evaluation
):
    ref_records = reference[0]
    store = make_store(engine, tmp_path)
    assert Session(store=store, jobs=jobs).run_many(GOLDEN_SPECS) == ref_records
    # Persistent engines serve a brand-new handle; a memory store can
    # only serve the handle that filled it.
    reread = ResultStore(store.share_target()) if store.persistent else store
    forbid_evaluation()
    assert Session(store=reread, jobs=jobs).run_many(GOLDEN_SPECS) == ref_records


@pytest.mark.parametrize("engine", ENGINES)
def test_batch_equals_one_spec_at_a_time(
    engine, tmp_path, reference, store_documents
):
    ref_records = reference[0]
    batch_store = make_store(engine, tmp_path / "batch")
    single_store = make_store(engine, tmp_path / "single")
    batch = Session(store=batch_store).run_many(GOLDEN_SPECS)
    singles = [Session(store=single_store).run(spec) for spec in GOLDEN_SPECS]
    assert batch == singles == ref_records
    assert store_documents(batch_store) == store_documents(single_store)
