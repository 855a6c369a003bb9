"""Store parity on a golden-suite grid.

The acceptance bar for the result store is *byte identity*: the same
sweep run against either kind of store — a directory tree or memory
only — must return the same records and hold the same document text
under every fingerprint, and the directory store's tree must hold
exactly those texts at ``<fp[:2]>/<fp>.json``.  This runs the pinned
2-policy sweep (the Ubik and LRU cells of the ``tests/golden`` grid)
against both kinds, each from an empty artifact cache, and compares
the corpora — every document, every byte.  A corpus moves between stores as a
directory copy, and a copied tree must serve a rerun as a pure store
hit.
"""

import shutil

import pytest

from repro.runtime import (
    MixRef,
    PolicySpec,
    ResultStore,
    RunSpec,
    Session,
    reset_artifacts,
)

#: The pinned 2-policy golden sweep: one shared baseline, two run
#: records.
GOLDEN_SPECS = [
    RunSpec(
        mix=MixRef(lc_name="masstree", load=0.2, combo="nft"),
        policy=policy,
        requests=60,
    )
    for policy in (
        PolicySpec.of("ubik", slack=0.05),
        PolicySpec.of("lru", label="LRU"),
    )
]

STORE_KINDS = ("directory", "memory")


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
    """Empty artifact cache per test."""
    reset_artifacts()
    yield
    reset_artifacts()


def test_documents_byte_identical_across_stores(tmp_path, store_documents):
    documents = {}
    records = {}
    for name in STORE_KINDS:
        reset_artifacts()
        store = make_store(name, tmp_path / name)
        records[name] = Session(store=store).run_many(GOLDEN_SPECS)
        documents[name] = store_documents(store)

    assert records["memory"] == records["directory"]
    reference = documents["directory"]
    # Run record per policy plus the shared baseline document.
    assert len(reference) == 3
    assert documents["memory"] == reference
    # And the directory tree holds exactly those texts, nothing else.
    assert tree(tmp_path / "directory" / "tree") == {
        f"{fp[:2]}/{fp}.json": text.encode() for fp, text in reference.items()
    }


def test_copied_corpus_serves_a_rerun_without_computing(
    tmp_path, forbid_evaluation
):
    """A sweep against a copy of a filled directory store is a pure
    store hit: same records, not one new document."""
    origin = make_store("directory", tmp_path / "origin")
    first = Session(store=origin).run_many(GOLDEN_SPECS)
    shutil.copytree(origin.root, tmp_path / "copy")

    reset_artifacts()
    forbid_evaluation()
    again = Session(store=ResultStore(str(tmp_path / "copy"))).run_many(GOLDEN_SPECS)
    assert again == first
    assert tree(tmp_path / "copy") == tree(origin.root)
