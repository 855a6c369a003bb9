"""Stores written before the blob side was retired still work.

Older versions kept a second, content-addressed side in every directory
store: a ``blobs/<key[:2]>/<key>.bin`` subtree under its root.  Nothing
reads that side any more, but a store carrying it must open, serve,
count, list, prune and clear exactly its documents.  Opening, serving,
counting, listing and new writes leave the old side as they found it;
prune and clear reclaim it.  The reclaim unlinks only the blob files
older versions wrote, so foreign files under ``blobs/`` survive.  New
stores get no ``blobs/`` side.
"""

from pathlib import Path

import pytest

from repro.cli import main
from repro.runtime import (
    MixRef,
    PolicySpec,
    ResultStore,
    RunSpec,
    Session,
    reset_artifacts,
)
from repro.runtime.spec import canonical_json

#: One small sweep cell; its stored documents are the older store's
#: current-generation corpus.
SPEC = RunSpec(
    mix=MixRef(lc_name="masstree", load=0.2, combo="nft"),
    policy=PolicySpec.of("lru", label="LRU"),
    requests=20,
)

#: A document from a stale schema generation, for prune to reclaim.
STALE = ("5a" * 32, canonical_json({"kind": "run", "schema": 0}))

#: What the old side held: one content-addressed payload.
BLOB_KEY = "ef" * 32
BLOB = b"\x93NUMPY\x00stream-bytes\xff"


@pytest.fixture(scope="module")
def corpus(tmp_path_factory, store_documents):
    """fingerprint -> document text: the sweep cell's run record and
    baseline, plus the stale document."""
    root = tmp_path_factory.mktemp("corpus")
    reset_artifacts()
    Session(store=ResultStore(str(root)), jobs=1).run_many([SPEC])
    texts = store_documents(ResultStore(str(root)))
    assert len(texts) == 2  # the run record and its baseline
    texts[STALE[0]] = STALE[1]
    return texts


def write_older_store(tmp_path, corpus):
    """A store in the older layout holding ``corpus``; returns its root."""
    root = tmp_path / "older"
    for fp, text in corpus.items():
        (root / fp[:2]).mkdir(parents=True, exist_ok=True)
        (root / fp[:2] / f"{fp}.json").write_text(text)
    blob = root / "blobs" / BLOB_KEY[:2] / f"{BLOB_KEY}.bin"
    blob.parent.mkdir(parents=True)
    blob.write_bytes(BLOB)
    return str(root)


def old_side(target):
    """The old side's contents: key -> payload."""
    files = (Path(target) / "blobs").rglob("*")
    return {p.stem: p.read_bytes() for p in files if p.is_file()}


def tree(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in root.rglob("*")
        if p.is_file()
    }


@pytest.fixture
def older(tmp_path, corpus):
    """The root of an older directory store."""
    return write_older_store(tmp_path, corpus)


def test_opens_and_serves_its_documents(older, corpus):
    store = ResultStore(older)
    for fp, text in corpus.items():
        assert canonical_json(store.get(fp)) == text
    assert store.get_record(SPEC.fingerprint()) is not None


def test_a_sweep_is_served_without_evaluating(older, forbid_evaluation):
    reset_artifacts()
    session = Session(store=ResultStore(older), jobs=1)
    forbid_evaluation()
    (record,) = session.run_many([SPEC])
    assert record.policy == "LRU"
    assert old_side(older) == {BLOB_KEY: BLOB}


def test_counts_exactly_its_documents(older):
    store = ResultStore(older)
    assert len(store) == 3
    stats = store.stats()
    assert stats["documents"] == 3
    assert stats["by_kind"] == {"run": 2, "baseline": 1}
    assert set(stats) == {
        "backend",
        "url",
        "root",
        "memory_entries",
        "documents",
        "disk_entries",
        "disk_bytes",
        "by_kind",
    }


def test_lists_exactly_its_documents(older, corpus, store_documents):
    assert store_documents(ResultStore(older)) == corpus
    assert old_side(older) == {BLOB_KEY: BLOB}


def assert_reclaimed(older, action):
    """``action(store)`` removes the old side and leaves no ``blobs/``
    directory behind."""
    action(ResultStore(older))
    assert old_side(older) == {}
    assert not (Path(older) / "blobs").exists()


def test_prunes_exactly_its_documents(older, corpus):
    def prune(store):
        assert store.prune() == {"kept": 2, "pruned": 1}
        assert sorted(store.fingerprints()) == sorted(set(corpus) - {STALE[0]})

    assert_reclaimed(older, prune)


def test_clear_removes_exactly_its_documents(older):
    def clear(store):
        assert store.clear() == 3
        assert len(store) == 0

    assert_reclaimed(older, clear)


@pytest.mark.parametrize("action", ["prune", "clear"])
def test_reclaiming_leaves_foreign_files_under_blobs(action, tmp_path, corpus):
    """A directory store's reclaim unlinks only the blob files older
    versions wrote; anything else under ``blobs/`` survives."""
    root = Path(write_older_store(tmp_path, corpus))
    foreign = {
        "blobs/notes.txt": b"not a blob",
        f"blobs/{BLOB_KEY[:2]}/keep.txt": b"beside a blob",
        "blobs/extra/deep.bin": b"outside any shard",
    }
    for name, data in foreign.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes(data)
    getattr(ResultStore(str(root)), action)()
    assert tree(root / "blobs") == {
        name[len("blobs/"):]: data for name, data in foreign.items()
    }


def test_new_documents_land_beside_the_old_side(older):
    ResultStore(older).put("12" * 32, {"kind": "run"})
    assert len(ResultStore(older)) == 4
    assert old_side(older) == {BLOB_KEY: BLOB}


def test_cache_command_reports_documents_only(older, capsys):
    assert main(["cache", "--store", older]) == 0
    rows = {
        cells[0]: cells[1:]
        for cells in (line.split() for line in capsys.readouterr().out.splitlines())
        if cells
    }
    assert rows["documents"] == ["3"]
    assert not any("blob" in name for name in rows)


@pytest.mark.parametrize("action", ["--prune", "--clear"])
def test_cache_command_reclaims_the_old_side(action, older, capsys):
    assert main(["cache", "--store", older, action]) == 0
    assert old_side(older) == {}
    assert not (Path(older) / "blobs").exists()
    left = ResultStore(older)
    assert len(left) == (2 if action == "--prune" else 0)


def test_new_store_has_no_blob_side(tmp_path, corpus):
    reset_artifacts()
    root = tmp_path / "new"
    Session(store=ResultStore(str(root)), jobs=1).run_many([SPEC])
    assert sorted(tree(root)) == sorted(
        f"{fp[:2]}/{fp}.json" for fp in corpus if fp != STALE[0]
    )
