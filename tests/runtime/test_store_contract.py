"""The two kinds of result store — a memory store and a directory
store — and the contract they share."""

import json
import os
import shutil

import pytest

import repro
from repro.runtime.spec import SPEC_SCHEMA_VERSION, RunRecord, canonical_json
from repro.runtime.store import ResultStore, default_store_url, parse_store_url
from repro.sim.mix_runner import BaselineResult

STORE_KINDS = ("directory", "memory")

#: What a store URL naming no known scheme is refused with.
UNKNOWN_SCHEME = r"unknown store backend .*\(known: directory, memory\)"

#: Store URLs of engines that no longer exist, plus one that never did.
RETIRED_URLS = [
    "sqlite:///tmp/x/store.db",
    "redis://localhost/0",
    "http://127.0.0.1:8377",
    "cluster://replicas=2;http://a:1;http://b:2",
]

#: What a memory URL naming a location is refused with.
MEMORY_LOCATION = (
    r"store URL 'memory://somewhere' names a location, but a memory "
    r"store keeps nothing \(a directory goes as directory:///path\)"
)


def make_target(kind: str, tmp_path):
    """The location (or None) of one kind of store under ``tmp_path``."""
    if kind == "directory":
        return str(tmp_path / "tree")
    return None


@pytest.fixture(params=STORE_KINDS)
def store(request, tmp_path):
    return ResultStore(make_target(request.param, tmp_path))


def reopen(store):
    """A new handle on a directory store's tree, whose dict is empty so
    it reads the files; a memory store can only be read through itself."""
    return ResultStore(store.share_target()) if store.persistent else store


def doc(**fields):
    """A small document of kind ``run``."""
    return {"kind": "run", **fields}


def plant(store, fingerprint, document):
    """Hold ``document`` under ``fingerprint`` as it stands, below
    ``put`` and its stamp: as the file on a directory store (forgetting
    the handle's copy), as the dict entry on a memory store."""
    if store.root is None:
        store._docs[fingerprint] = document
        return
    store._docs.pop(fingerprint, None)
    path = store.document_path(fingerprint)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document))


def _record():
    return RunRecord(
        mix_id="shore-lo-nft.0",
        lc_name="shore",
        load_label="lo",
        policy="Ubik",
        tail_degradation=1.0195,
        weighted_speedup=1.2751,
        lc_tail_cycles=123456.75,
        baseline_tail_cycles=121111.25,
        deboosts=3,
        watermarks=1,
    )


class TestParseStoreUrl:
    def test_directory_url(self):
        assert parse_store_url("directory:///tmp/x") == ("directory", "/tmp/x")

    def test_memory_url(self):
        assert parse_store_url("memory://") == ("memory", None)

    def test_bare_path_is_directory(self):
        assert parse_store_url("/tmp/corpus") == ("directory", "/tmp/corpus")

    @pytest.mark.parametrize("token", ["0", "off", "false", "no", "OFF", "memory"])
    def test_legacy_off_tokens(self, token):
        assert parse_store_url(token) == ("memory", None)

    def test_empty_is_memory(self):
        assert parse_store_url("") == ("memory", None)

    @pytest.mark.parametrize("url", RETIRED_URLS)
    def test_unknown_scheme_rejected(self, url):
        with pytest.raises(ValueError, match=UNKNOWN_SCHEME):
            parse_store_url(url)

    def test_schemed_url_requires_path(self):
        with pytest.raises(ValueError, match="missing its path"):
            parse_store_url("directory://")

    @pytest.mark.parametrize(
        "url", ["memory://somewhere", "memory:///tmp/corpus", "MEMORY://x"]
    )
    def test_memory_url_naming_a_location_rejected(self, url):
        """A memory store keeps nothing, so a location it would drop
        silently is an error."""
        with pytest.raises(ValueError, match="names a location"):
            parse_store_url(url)
        with pytest.raises(ValueError, match="names a location"):
            ResultStore(url)

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("DIRECTORY:///tmp/x", ("directory", "/tmp/x")),
            ("  directory:///tmp/x  ", ("directory", "/tmp/x")),
            ("Memory://", ("memory", None)),
            ("memory://  ", ("memory", None)),
            ("  /tmp/corpus ", ("directory", "/tmp/corpus")),
        ],
    )
    def test_scheme_case_and_outer_space_ignored(self, text, expected):
        assert parse_store_url(text) == expected


class TestHomeRelativeTargets:
    @pytest.mark.parametrize("target", ["directory://~/corpus", "~/corpus"])
    def test_tilde_expands_to_home(self, target, monkeypatch, tmp_path):
        monkeypatch.setenv("HOME", str(tmp_path))
        store = ResultStore(target)
        store.put("ab" * 32, doc())
        assert store.url == f"directory://{tmp_path}/corpus"
        assert (tmp_path / "corpus" / "ab" / f"{'ab' * 32}.json").exists()


class TestOpening:
    def test_none_is_memory(self):
        store = ResultStore(None)
        assert store.root is None
        assert store.url == "memory://"

    def test_pathlike_is_directory(self, tmp_path):
        store = ResultStore(tmp_path / "tree")
        assert store.root == tmp_path / "tree"
        assert store.persistent

    @pytest.mark.parametrize(
        "target, persistent",
        [
            ("directory://{tmp}/tree", True),
            ("{tmp}/tree", True),
            ("memory://", False),
            ("off", False),
            ("", False),
        ],
        ids=["directory-url", "bare-path", "memory-url", "off-token", "empty"],
    )
    def test_each_target_opens_its_kind(self, target, persistent, tmp_path):
        store = ResultStore(target.format(tmp=tmp_path))
        assert store.persistent is persistent
        assert store.stats()["backend"] == ("directory" if persistent else "memory")
        if persistent:
            assert store.root == tmp_path / "tree"
        assert not (tmp_path / "tree").exists()  # opening writes nothing

    def test_url_round_trips(self, tmp_path):
        first = ResultStore(make_target("directory", tmp_path))
        second = ResultStore(first.url)
        assert second.root == first.root
        assert second.url == first.url


class TestStoreContract:
    """Both kinds of store honour the same document semantics."""

    def test_document_round_trip(self, store):
        fp = "ab" * 32
        assert store.get(fp) is None
        store.put(fp, doc(x=1))
        assert reopen(store).get(fp)["x"] == 1
        assert len(store) == 1
        assert list(store.fingerprints()) == [fp]

    def test_document_overwrite(self, store):
        fp = "cd" * 32
        store.put(fp, doc(v="old"))
        store.put(fp, doc(v="new"))
        assert store.get(fp)["v"] == "new"
        assert reopen(store).get(fp)["v"] == "new"
        assert len(store) == 1

    def test_clear_counts_what_it_removed(self, store):
        for index in range(3):
            store.put(f"{index:064x}", doc())
        assert store.clear() == 3
        assert len(store) == 0
        assert list(store.fingerprints()) == []

    def test_clear_on_empty_store_returns_zero(self, store):
        assert store.clear() == 0
        store.put("ab" * 32, doc())
        assert store.clear() == 1
        assert store.clear() == 0

    def test_missing_keys_read_as_none(self, store):
        assert store.get("ab" * 32) is None
        assert "ab" * 32 not in store
        assert len(store) == 0
        assert list(store.fingerprints()) == []

    def test_many_documents_listed_once_each(self, store):
        fingerprints = [f"{index:064x}" for index in range(40)]
        for fp in fingerprints:
            store.put(fp, doc(i=fp))
        listed = list(store.fingerprints())
        assert len(listed) == len(set(listed)) == 40
        assert sorted(listed) == fingerprints
        assert len(store) == 40
        reread = reopen(store)
        assert all(reread.get(fp)["i"] == fp for fp in fingerprints)

    def test_empty_and_large_documents_round_trip(self, store):
        latencies = [i / 7.0 for i in range(60000)]
        assert len(json.dumps(latencies)) > 1 << 20  # over 1 MiB of text
        store.put("ab" * 32, {})
        store.put("cd" * 32, doc(latencies=latencies))
        reread = reopen(store)
        assert set(reread.get("ab" * 32)) == {"schema", "repro"}
        assert reread.get("cd" * 32)["latencies"] == latencies
        assert len(store) == 2

    def test_shorter_overwrite_leaves_no_tail(self, store, store_documents):
        fp = "56" * 32
        store.put(fp, doc(first="document, longer"))
        store.put(fp, doc(second=1))
        assert reopen(store).get(fp)["second"] == 1
        assert "first" not in reopen(store).get(fp)
        assert json.loads(store_documents(store)[fp])["second"] == 1
        assert list(store.fingerprints()) == [fp]

    def test_prune_keeps_the_rest_of_a_shard(self, store):
        keep, drop = "ab" * 32, "ac" + "ab" * 31  # same two-char prefix
        store.put(keep, doc())
        store.put(drop, doc())
        plant(store, drop, {"kind": "run", "schema": 0})
        assert store.prune() == {"kept": 1, "pruned": 1}
        assert reopen(store).get(keep) is not None
        assert reopen(store).get(drop) is None
        assert list(store.fingerprints()) == [keep]
        assert len(store) == 1

    def test_url_reopens_the_corpus_only_when_persistent(self, store):
        store.put("ab" * 32, doc())
        reopened = ResultStore(store.url)
        assert reopened.persistent is store.persistent
        if store.persistent:
            assert reopened.get("ab" * 32) is not None
        else:
            assert len(reopened) == 0

    def test_document_path_only_on_a_directory_store(self, store):
        fp = "ab" * 32
        store.put(fp, doc())
        path = store.document_path(fp)
        if store.persistent:
            assert path == store.root / fp[:2] / f"{fp}.json"
            assert json.loads(path.read_text()) == store.get(fp)
        else:
            assert path is None

    def test_disk_bytes_grow_with_the_corpus(self, store):
        store.put("ab" * 32, doc())
        small = store.stats()["disk_bytes"]
        store.put("cd" * 32, doc(pad="0" * 65536))
        if store.persistent:
            assert small > 0
            assert store.stats()["disk_bytes"] >= small + 65536
        else:
            assert store.stats()["disk_bytes"] == small == 0

    def test_a_put_that_raises_leaves_nothing_readable(self, store):
        """A document canonical JSON refuses is neither written nor kept:
        both kinds serialize before they store."""
        fp = "ab" * 32
        with pytest.raises(ValueError):
            store.put(fp, doc(x=float("nan")))
        assert store.get(fp) is None
        assert fp not in store
        assert len(store) == 0
        assert store.stats()["memory_entries"] == 0
        if store.persistent:
            assert not store.root.exists()

    def test_a_put_that_raises_keeps_the_old_document(self, store):
        fp = "ab" * 32
        store.put(fp, doc(x=1))
        with pytest.raises(ValueError):
            store.put(fp, doc(x=float("inf")))
        assert store.get(fp)["x"] == 1
        assert reopen(store).get(fp)["x"] == 1


class TestEveryStore:
    """The store behaves identically on both kinds."""

    def test_record_round_trip(self, store):
        store.put_record("ab" * 32, _record())
        assert store.get_record("ab" * 32) == _record()
        assert reopen(store).get_record("ab" * 32) == _record()

    def test_baseline_round_trip(self, store):
        baseline = BaselineResult(
            tail95_cycles=100.5, p95_cycles=90.25, latencies=(1.0, 2.5, 3.75)
        )
        store.put_baseline("cd" * 32, baseline)
        assert store.get_baseline("cd" * 32) == baseline

    def test_prune_counts(self, store):
        store.put_record("ab" * 32, _record())
        # A document written by a previous schema generation, planted
        # below ``put`` so it cannot be re-stamped.
        plant(store, "cd" * 32, {"kind": "run", "schema": 0})
        counts = store.prune()
        assert counts == {"kept": 1, "pruned": 1}
        assert store.get("cd" * 32) is None
        assert store.get_record("ab" * 32) == _record()

    def test_stats_name_their_kind(self, store):
        store.put_record("ab" * 32, _record())
        stats = store.stats()
        assert stats["backend"] == ("directory" if store.persistent else "memory")
        assert stats["url"] == store.url
        assert stats["documents"] == 1
        assert stats["by_kind"] == {"run": 1}
        if store.persistent:
            assert stats["disk_entries"] == 1
            assert stats["disk_bytes"] > 0
        else:
            assert stats["disk_entries"] == 0
            assert stats["disk_bytes"] == 0

    def test_len_and_fingerprints(self, store):
        store.put("ab" * 32, {"kind": "run"})
        store.put("cd" * 32, {"kind": "baseline"})
        assert len(store) == 2
        assert sorted(store.fingerprints()) == ["ab" * 32, "cd" * 32]

    def test_document_text_matches_the_directory_file(
        self, store, tmp_path, store_documents
    ):
        store.put_record("ab" * 32, _record())
        reference = ResultStore(str(tmp_path / "reference"))
        reference.put_record("ab" * 32, _record())
        written = tmp_path / "reference" / "ab" / ("ab" * 32 + ".json")
        assert store_documents(store) == {"ab" * 32: written.read_text()}

    def test_kind_mismatch_reads_as_miss(self, store):
        baseline = BaselineResult(tail95_cycles=2.0, p95_cycles=1.5, latencies=(1.5,))
        store.put_record("ab" * 32, _record())
        store.put_baseline("cd" * 32, baseline)
        fresh = reopen(store)
        assert fresh.get_baseline("ab" * 32) is None
        assert fresh.get_record("cd" * 32) is None
        assert fresh.get_record("ab" * 32) == _record()
        assert fresh.get_baseline("cd" * 32) == baseline

    def test_floats_round_trip_exactly(self, store):
        awkward = (0.1 + 0.2, 1e-300, 2.0**53 + 2, 123456.789e10, 5e-324)
        record = RunRecord(**dict(_record().to_dict(), tail_degradation=awkward[0]))
        baseline = BaselineResult(
            tail95_cycles=awkward[3], p95_cycles=awkward[2], latencies=awkward
        )
        store.put_record("ab" * 32, record)
        store.put_baseline("cd" * 32, baseline)
        fresh = reopen(store)
        assert fresh.get_record("ab" * 32).tail_degradation.hex() == awkward[0].hex()
        reread = fresh.get_baseline("cd" * 32)
        assert [x.hex() for x in reread.latencies] == [x.hex() for x in awkward]
        assert reread.tail95_cycles.hex() == awkward[3].hex()

    def test_store_holds_stamped_canonical_json(self, store, store_documents):
        store.put_record("ab" * 32, _record())
        text = store_documents(store)["ab" * 32]
        payload = json.loads(text)
        assert text == canonical_json(payload)
        assert payload["schema"] == SPEC_SCHEMA_VERSION
        assert payload["repro"] == repro.__version__
        assert RunRecord.from_dict(payload["record"]) == _record()

    def test_clear_drops_every_document(self, store):
        store.put_record("ab" * 32, _record())
        store.put("cd" * 32, {"kind": "run"})
        assert store.clear() == 2
        assert store.get_record("ab" * 32) is None
        assert len(store) == 0
        assert store.stats()["memory_entries"] == 0

    def test_prune_drops_stale_and_unstamped(self, store):
        store.put_record("dd" * 32, _record())
        plant(store, "ab" * 32, {"kind": "run", "schema": 0})
        plant(store, "cd" * 32, {"kind": "run", "record": {}})
        assert store.prune() == {"kept": 1, "pruned": 2}
        assert sorted(store.fingerprints()) == ["dd" * 32]
        assert reopen(store).get_record("dd" * 32) == _record()

    def test_a_record_that_raises_is_not_stored(self, store):
        bad = RunRecord(**dict(_record().to_dict(), weighted_speedup=float("nan")))
        with pytest.raises(ValueError):
            store.put_record("ab" * 32, bad)
        assert store.get_record("ab" * 32) is None
        assert "ab" * 32 not in store
        assert store.stats()["by_kind"] == {}


#: How a second handle names a directory store the first opened by path.
LOCATION_FORMS = {
    "path": lambda root: str(root),
    "url": lambda root: f"directory://{root}",
}


class TestPersistence:
    @pytest.mark.parametrize("form", LOCATION_FORMS)
    def test_second_handle_sees_the_corpus(self, form, tmp_path):
        root = tmp_path / "tree"
        writer = ResultStore(str(root))
        writer.put("ab" * 32, doc(x=1))
        reader = ResultStore(LOCATION_FORMS[form](root))
        assert reader.get("ab" * 32) == writer.get("ab" * 32)

    @pytest.mark.parametrize("form", LOCATION_FORMS)
    def test_handles_see_each_others_overwrites_and_clears(self, form, tmp_path):
        root = tmp_path / "tree"
        first = ResultStore(str(root))
        second = ResultStore(LOCATION_FORMS[form](root))
        first.put("ab" * 32, doc(v=1))
        first.put("cd" * 32, doc(v=1))
        second.put("ab" * 32, doc(v=2))
        assert ResultStore(str(root)).get("ab" * 32)["v"] == 2
        assert sorted(first.fingerprints()) == sorted(second.fingerprints())
        assert second.clear() == 2
        assert len(first) == 0
        assert list(first.fingerprints()) == []
        assert ResultStore(str(root)).get("cd" * 32) is None

    def test_a_second_handle_reads_through_to_the_tree(self, tmp_path):
        first = ResultStore(str(tmp_path / "tree"))
        second = ResultStore(str(tmp_path / "tree"))
        assert "ab" * 32 not in second
        first.put("ab" * 32, doc(x=1))
        assert "ab" * 32 in second
        assert second.get("ab" * 32)["x"] == 1
        assert second.stats()["memory_entries"] == 1

    def test_cache_doc_writes_no_file(self, tmp_path):
        store = ResultStore(str(tmp_path / "tree"))
        store.cache_doc("ab" * 32, doc(x=1))
        assert store.get("ab" * 32)["x"] == 1
        assert len(store) == 0
        assert not (tmp_path / "tree").exists()
        assert reopen(store).get("ab" * 32) is None

    def test_memory_handles_share_nothing(self):
        writer = ResultStore(None)
        writer.put("ab" * 32, doc())
        assert ResultStore(None).get("ab" * 32) is None

    @pytest.mark.parametrize(
        "read",
        [
            lambda store: store.get("ab" * 32),
            len,
            lambda store: list(store.fingerprints()),
            lambda store: store.stats(),
            lambda store: store.prune(),
            lambda store: store.clear(),
        ],
        ids=["get", "len", "fingerprints", "stats", "prune", "clear"],
    )
    def test_reads_and_maintenance_never_create_the_root(self, read, tmp_path):
        root = tmp_path / "missing"
        read(ResultStore(str(root)))
        assert not root.exists()

    def test_a_put_creates_the_root(self, tmp_path):
        root = tmp_path / "missing" / "tree"
        store = ResultStore(str(root))
        store.put("ab" * 32, doc())
        assert (root / "ab" / f"{'ab' * 32}.json").is_file()
        assert len(store) == 1


def temp_files(root):
    """Every temp file under a tree."""
    return [p for p in root.rglob("*") if p.is_file() and ".tmp" in p.name]


class TestDirectoryAtomicity:
    def test_put_leaves_no_temp_files(self, tmp_path):
        store = ResultStore(tmp_path)
        for index in range(20):
            store.put(f"{index:064x}", doc(i=index))
        assert temp_files(tmp_path) == []

    def test_orphan_temp_invisible_to_reads_and_swept_by_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        fp = "ab" * 32
        store.put(fp, doc())
        # A writer killed mid-put leaves a temp file behind.
        orphan = tmp_path / fp[:2] / ".tmp-dead01.json.tmp"
        orphan.write_text("{torn")
        assert len(store) == 1
        assert list(store.fingerprints()) == [fp]
        assert store.stats()["by_kind"] == {"run": 1}
        assert store.clear() == 1
        assert not orphan.exists()

    def test_overwrite_is_atomic_too(self, tmp_path):
        store = ResultStore(tmp_path)
        fp = "cd" * 32
        for index in range(10):
            store.put(fp, doc(i=index))
        assert temp_files(tmp_path) == []
        assert reopen(store).get(fp)["i"] == 9

    def test_write_whose_temp_was_swept_is_dropped(self, tmp_path, monkeypatch):
        """A concurrent clear that sweeps a writer's temp file makes the
        write a no-op on disk, not an error: the store is a cache, and
        the writer keeps the document in its dict."""
        store = ResultStore(tmp_path)

        def swept(src, dst):
            os.unlink(src)
            raise FileNotFoundError(src)

        monkeypatch.setattr(os, "replace", swept)
        store.put("ab" * 32, doc(x=1))
        monkeypatch.undo()
        assert store.get("ab" * 32)["x"] == 1
        assert reopen(store).get("ab" * 32) is None
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []

    def test_failed_write_removes_its_temp_and_raises(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        store.put("ab" * 32, doc(v="old"))

        def refuse(src, dst):
            raise PermissionError(dst)

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(PermissionError):
            store.put("ab" * 32, doc(v="new"))
        monkeypatch.undo()
        assert store.get("ab" * 32)["v"] == "old"
        assert reopen(store).get("ab" * 32)["v"] == "old"
        assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == [
            f"{'ab' * 32}.json"
        ]


class TestDirectoryLayout:
    """What under a directory store's root is a document, and what is
    left alone."""

    @pytest.mark.parametrize(
        "foreign",
        [
            "notes.json",
            "abc/x.json",
            "ab/notes.txt",
            "ab/.hidden.json",
            "ab/deeper/x.json",
        ],
    )
    def test_foreign_files_are_not_documents(self, foreign, tmp_path):
        store = ResultStore(tmp_path)
        store.put("ab" * 32, doc())
        (tmp_path / foreign).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / foreign).write_text("foreign")
        assert list(store.fingerprints()) == ["ab" * 32]
        assert len(store) == 1
        stats = store.stats()
        assert stats["documents"] == 1
        assert stats["disk_bytes"] == store.document_path("ab" * 32).stat().st_size
        assert store.prune() == {"kept": 1, "pruned": 0}
        assert store.clear() == 1
        assert (tmp_path / foreign).read_text() == "foreign"

    def test_prune_removes_only_an_emptied_shard(self, tmp_path):
        store = ResultStore(tmp_path)
        stale = {"kind": "run", "schema": 0}
        plant(store, "ab" * 32, stale)
        plant(store, "ab" + "cd" * 31, stale)
        store.put("ef" * 32, doc())
        assert store.prune() == {"kept": 1, "pruned": 2}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ef"]
        store.put("ab" * 32, doc())
        plant(store, "ab" + "cd" * 31, stale)
        assert store.prune() == {"kept": 2, "pruned": 1}
        assert (tmp_path / "ab").is_dir()

    def test_disk_bytes_are_the_document_bytes(self, tmp_path):
        store = ResultStore(tmp_path)
        docs = {"ab" * 32: doc(), "cd" * 32: doc(s="é" * 10), "ef" * 32: doc(p="0" * 4096)}
        for fp, document in docs.items():
            store.put(fp, document)
        assert store.stats()["disk_bytes"] == sum(
            len(canonical_json(store.get(fp)).encode()) for fp in docs
        )

    def test_hand_written_json_reads_as_its_value(self, tmp_path):
        """A file need not be canonical: any JSON object is a document."""
        store = ResultStore(tmp_path)
        path = store.document_path("ab" * 32)
        path.parent.mkdir(parents=True)
        path.write_text('{ "kind" : "run",\n  "x":[1.0, 2e-3] }')
        assert store.get("ab" * 32) == {"kind": "run", "x": [1.0, 0.002]}


#: Files that are not a JSON object, each one a corrupt document.
NOT_OBJECTS = ["{not json", "[]", "1", '"text"', "null", "", "\xff\xfe"]


class TestNonObjectDocuments:
    """A file that does not parse to a JSON object is corrupt: a miss
    for every read, ``corrupt`` in the stats, reclaimed by prune."""

    @pytest.fixture(params=NOT_OBJECTS, ids=repr)
    def corrupt(self, request, tmp_path):
        store = ResultStore(tmp_path)
        store.put_record("cd" * 32, _record())
        path = store.document_path("ab" * 32)
        path.parent.mkdir(parents=True)
        path.write_bytes(request.param.encode("latin-1"))
        return ResultStore(tmp_path), path

    def test_every_read_is_a_miss(self, corrupt):
        store, _ = corrupt
        assert store.get("ab" * 32) is None
        assert store.get_record("ab" * 32) is None
        assert store.get_baseline("ab" * 32) is None
        assert "ab" * 32 not in store
        assert store.stats()["memory_entries"] == 0

    def test_counted_as_corrupt(self, corrupt):
        store, _ = corrupt
        stats = store.stats()
        assert stats["documents"] == 2
        assert stats["by_kind"] == {"corrupt": 1, "run": 1}

    def test_reclaimed_by_prune(self, corrupt):
        store, path = corrupt
        assert store.prune() == {"kept": 1, "pruned": 1}
        assert not path.exists()
        assert store.get_record("cd" * 32) == _record()


def _tree_bytes(root):
    """path -> bytes for every file under a directory."""
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in root.rglob("*")
        if p.is_file()
    }


class TestCanonicalLayout:
    """The directory tree is every corpus's canonical layout."""

    DOCS = {
        "ab" * 32: {"kind": "run", "x": 1.5},
        "cd" * 32: {"kind": "baseline", "latencies": [1.0, 2.25]},
        "ef" * 32: {"kind": "run", "y": [1, 2, 3]},
    }

    def test_both_kinds_hold_the_same_texts(self, tmp_path, store_documents):
        held = {}
        for kind in STORE_KINDS:
            store = ResultStore(make_target(kind, tmp_path))
            for fp, document in self.DOCS.items():
                store.put(fp, document)
            held[kind] = store_documents(store)
        assert held["directory"] == held["memory"]
        assert {fp: json.loads(text) for fp, text in held["memory"].items()} == {
            fp: dict(document, schema=SPEC_SCHEMA_VERSION, repro=repro.__version__)
            for fp, document in self.DOCS.items()
        }
        # And the directory store keeps each text at <fp[:2]>/<fp>.json.
        assert _tree_bytes(tmp_path / "tree") == {
            f"{fp[:2]}/{fp}.json": text.encode()
            for fp, text in held["directory"].items()
        }

    def test_tree_holds_only_document_files(self, tmp_path):
        store = ResultStore(tmp_path / "tree")
        store.put("ab" * 32, doc())
        assert sorted(
            p.relative_to(tmp_path / "tree").as_posix()
            for p in (tmp_path / "tree").rglob("*")
        ) == ["ab", f"ab/{'ab' * 32}.json"]

    def test_a_copied_tree_is_the_same_corpus(self, tmp_path, store_documents):
        origin = ResultStore(str(tmp_path / "origin"))
        for fp, document in self.DOCS.items():
            origin.put(fp, document)
        shutil.copytree(tmp_path / "origin", tmp_path / "copy")
        copy = ResultStore(str(tmp_path / "copy"))
        assert store_documents(copy) == store_documents(origin)
        assert {fp: copy.get(fp) for fp in self.DOCS} == {
            fp: origin.get(fp) for fp in self.DOCS
        }


class TestDefaultStoreUrl:
    def test_url_in_env_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE", f"directory://{tmp_path}/s")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "ignored"))
        assert default_store_url() == f"directory://{tmp_path}/s"

    def test_memory_url_means_no_store(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "memory://")
        assert default_store_url() is None

    def test_memory_url_naming_a_location_raises(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE", "memory://somewhere")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "ignored"))
        with pytest.raises(ValueError, match="^REPRO_STORE: " + MEMORY_LOCATION + "$"):
            default_store_url()

    @pytest.mark.parametrize("url", RETIRED_URLS)
    def test_invalid_env_url_raises(self, monkeypatch, url):
        monkeypatch.setenv("REPRO_STORE", url)
        with pytest.raises(ValueError, match="^REPRO_STORE: " + UNKNOWN_SCHEME):
            default_store_url()

    @pytest.mark.parametrize("url", ["directory://", "  directory://  "])
    def test_env_url_missing_its_path_raises(self, monkeypatch, url):
        monkeypatch.setenv("REPRO_STORE", url)
        with pytest.raises(
            ValueError,
            match=r"^REPRO_STORE: store URL 'directory://' is missing its path$",
        ):
            default_store_url()

    @pytest.mark.parametrize(
        "value", ["/tmp/xx", " relative/store ", "~/store", "1", "on"]
    )
    def test_a_value_neither_url_nor_off_token_raises(self, monkeypatch, tmp_path, value):
        """A bare path once fell through to the default store."""
        monkeypatch.setenv("REPRO_STORE", value)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "ignored"))
        with pytest.raises(ValueError) as excinfo:
            default_store_url()
        assert str(excinfo.value) == (
            f"REPRO_STORE: {value.strip()!r} is neither a store URL nor an "
            "off token (a directory goes in REPRO_CACHE_DIR or as "
            "directory:///path)"
        )

    def test_falls_back_to_legacy_rules(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "s"))
        assert default_store_url() == str(tmp_path / "s")

    @pytest.mark.parametrize("token", ["0", "off", "false", "no", "memory", " OFF "])
    def test_off_toggle_means_no_store(self, monkeypatch, tmp_path, token):
        monkeypatch.setenv("REPRO_STORE", token)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "ignored"))
        assert default_store_url() is None


class TestFacadeIdentity:
    def test_persistent_stores_expose_share_targets(self, tmp_path):
        url = f"directory://{tmp_path}/s"
        store = ResultStore(url)
        assert store.persistent
        assert store.share_target() == url
        assert store.memo_key == url
        assert store.root == tmp_path / "s"

    @pytest.mark.parametrize(
        "spell",
        [
            str,
            lambda root: root,
            lambda root: f"directory://{root}",
            lambda root: f"{root}/",
            lambda root: f"  {root}  ",
        ],
        ids=["path", "pathlike", "url", "trailing-slash", "outer-space"],
    )
    def test_every_spelling_of_a_root_shares_one_identity(self, spell, tmp_path):
        store = ResultStore(spell(tmp_path / "s"))
        assert store.share_target() == store.memo_key == f"directory://{tmp_path}/s"

    def test_directory_store_keeps_its_root(self, tmp_path):
        store = ResultStore(str(tmp_path / "tree"))
        assert store.root == tmp_path / "tree"
        assert store.share_target() == f"directory://{tmp_path}/tree"

    def test_memory_store_shares_nothing(self):
        store = ResultStore(None)
        assert not store.persistent
        assert store.share_target() is None
        assert store.memo_key == id(store)

    def test_worker_reopens_share_target(self, tmp_path):
        parent = ResultStore(str(tmp_path / "s"))
        reopened = ResultStore(parent.share_target())
        parent.put("ab" * 32, {"kind": "run", "x": 1})
        assert reopened.get("ab" * 32)["x"] == 1
