"""Cross-backend byte parity on a golden-suite grid.

The acceptance bar for the pluggable storage layer is *byte identity*:
the same sweep run against any engine — directory tree, sqlite file,
or in-memory — must produce a logical store whose canonical export is
byte-for-byte identical to the directory backend's own tree.  This
runs the pinned 2-policy sweep (the Ubik and LRU cells of the
``tests/golden`` grid) against all three backends, each from an empty
artifact cache, exports every corpus, and compares the trees — every
file, every byte.  Migration hops (directory → sqlite →
directory, and sqlite → sqlite → sqlite) must preserve those bytes
too.
"""

import pytest

from repro.runtime import (
    MixRef,
    PolicySpec,
    ResultStore,
    RunSpec,
    Session,
    migrate_store,
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

BACKEND_NAMES = ("directory", "sqlite", "memory")


def make_store(name, tmp_path):
    """A fresh ResultStore on the named engine under tmp_path."""
    if name == "directory":
        return ResultStore(str(tmp_path / "tree"))
    if name == "sqlite":
        return ResultStore(f"sqlite://{tmp_path}/store.db")
    return ResultStore(None)


def export_tree(store, destination):
    """Canonical-export a store and return its path → bytes map."""
    store.export_canonical(destination)
    return {
        p.relative_to(destination).as_posix(): p.read_bytes()
        for p in destination.rglob("*")
        if p.is_file()
    }


@pytest.fixture(autouse=True)
def _fresh_artifacts():
    """Empty artifact cache per test."""
    reset_artifacts()
    yield
    reset_artifacts()


def test_canonical_exports_byte_identical_across_backends(tmp_path):
    exports = {}
    records = {}
    for name in BACKEND_NAMES:
        reset_artifacts()
        store = make_store(name, tmp_path / name)
        records[name] = Session(store=store).run_many(GOLDEN_SPECS)
        exports[name] = export_tree(store, tmp_path / f"export-{name}")
        store.close()

    assert records["sqlite"] == records["directory"]
    assert records["memory"] == records["directory"]
    reference = exports["directory"]
    # Run record per policy plus the shared baseline document.
    assert len(reference) == 3
    assert exports["sqlite"] == reference
    assert exports["memory"] == reference
    # And the directory backend's export reproduces its own tree.
    tree = {
        p.relative_to(tmp_path / "directory" / "tree").as_posix(): p.read_bytes()
        for p in (tmp_path / "directory" / "tree").rglob("*")
        if p.is_file()
    }
    assert tree == reference


def test_migration_hop_preserves_golden_bytes(tmp_path):
    origin = make_store("directory", tmp_path / "origin")
    Session(store=origin).run_many(GOLDEN_SPECS)
    origin_tree = export_tree(origin, tmp_path / "export-origin")

    sqlite_url = f"sqlite://{tmp_path}/hop.db"
    counts = migrate_store(origin.share_target(), sqlite_url)
    assert counts["documents"] == 3

    back = str(tmp_path / "back")
    migrate_store(sqlite_url, back)
    back_tree = export_tree(ResultStore(back), tmp_path / "export-back")
    assert back_tree == origin_tree


def test_migrated_corpus_serves_a_rerun_without_computing(tmp_path):
    """A sweep against a corpus migrated into sqlite is a pure store
    hit: same records, not one new document."""
    origin = make_store("directory", tmp_path / "origin")
    first = Session(store=origin).run_many(GOLDEN_SPECS)

    sqlite_url = f"sqlite://{tmp_path}/hop.db"
    migrate_store(origin.share_target(), sqlite_url)

    reset_artifacts()
    migrated = ResultStore(sqlite_url)
    before = len(migrated)
    again = Session(store=migrated).run_many(GOLDEN_SPECS)
    assert again == first
    assert len(migrated) == before


def test_migration_round_trips_sqlite_verbatim(tmp_path):
    """``repro cache --migrate`` between sqlite files: a golden corpus
    pushed into a second store and pulled back out again is verbatim —
    same documents, same canonical bytes at every stop."""
    sqlite_url = f"sqlite://{tmp_path}/origin.db"
    origin = ResultStore(sqlite_url)
    Session(store=origin).run_many(GOLDEN_SPECS)
    origin_tree = export_tree(origin, tmp_path / "export-origin")
    origin.close()

    hop_url = f"sqlite://{tmp_path}/hop.db"
    up = migrate_store(sqlite_url, hop_url)
    assert up == {"documents": 3}
    hop_tree = export_tree(ResultStore(hop_url), tmp_path / "export-hop")
    back_url = f"sqlite://{tmp_path}/back.db"
    down = migrate_store(hop_url, back_url)
    assert down["documents"] == 3
    back_tree = export_tree(ResultStore(back_url), tmp_path / "export-back")
    assert hop_tree == origin_tree
    assert back_tree == origin_tree
