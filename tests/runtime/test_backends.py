"""Tests for the pluggable storage backends and their shared contract."""

import json

import pytest

from repro.runtime.backends import (
    BACKENDS,
    DirectoryBackend,
    MemoryBackend,
    SqliteBackend,
    StoreBackend,
    make_backend,
    parse_store_url,
)
from repro.runtime.store import (
    ResultStore,
    default_store_url,
    migrate_store,
)

BACKEND_NAMES = ("directory", "sqlite", "memory")

#: What a store URL naming no engine is refused with.
UNKNOWN_ENGINE = r"unknown store backend .*\(known: directory, memory, sqlite\)"

#: Store URLs of engines that no longer exist, plus one that never did.
RETIRED_URLS = [
    "redis://localhost/0",
    "http://127.0.0.1:8377",
    "cluster://replicas=2;http://a:1;http://b:2",
]


def make_target(name: str, tmp_path):
    """A store target string (or None) for one backend."""
    if name == "directory":
        return str(tmp_path / "tree")
    if name == "sqlite":
        return f"sqlite://{tmp_path}/store.db"
    return None


@pytest.fixture
def target_factory(tmp_path):
    """``factory(name, label)`` → a store target under ``tmp_path/<label>``."""

    def factory(name: str, label: str = "t"):
        return make_target(name, tmp_path / label)

    return factory


@pytest.fixture(params=BACKEND_NAMES)
def backend(request, target_factory):
    instance = make_backend(target_factory(request.param))
    yield instance
    instance.close()


class TestParseStoreUrl:
    def test_sqlite_url(self):
        assert parse_store_url("sqlite:///tmp/x/store.db") == (
            "sqlite",
            "/tmp/x/store.db",
        )

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
        with pytest.raises(ValueError, match=UNKNOWN_ENGINE):
            parse_store_url(url)

    def test_schemed_url_requires_path(self):
        with pytest.raises(ValueError, match="missing its path"):
            parse_store_url("sqlite://")

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("SQLITE:///tmp/x/store.db", ("sqlite", "/tmp/x/store.db")),
            ("  directory:///tmp/x  ", ("directory", "/tmp/x")),
            ("Memory://", ("memory", None)),
            ("  /tmp/corpus ", ("directory", "/tmp/corpus")),
        ],
    )
    def test_scheme_case_and_outer_space_ignored(self, text, expected):
        assert parse_store_url(text) == expected


class TestHomeRelativeTargets:
    @pytest.mark.parametrize(
        "target, path",
        [
            ("directory://~/corpus", "corpus"),
            ("sqlite://~/corpus/store.db", "corpus/store.db"),
        ],
    )
    def test_tilde_expands_to_home(self, target, path, monkeypatch, tmp_path):
        monkeypatch.setenv("HOME", str(tmp_path))
        backend = make_backend(target)
        backend.put_doc("ab" * 32, "doc")
        assert backend.url == target.replace("~", str(tmp_path))
        assert (tmp_path / path).exists()
        backend.close()


class TestMakeBackend:
    def test_none_is_memory(self):
        assert make_backend(None).name == "memory"

    def test_pathlike_is_directory(self, tmp_path):
        instance = make_backend(tmp_path / "tree")
        assert instance.name == "directory"
        assert instance.root == tmp_path / "tree"

    def test_backend_passes_through(self):
        instance = MemoryBackend()
        assert make_backend(instance) is instance

    def test_registry_covers_every_scheme(self):
        import repro.runtime.backends as backends

        assert set(BACKENDS) == set(BACKEND_NAMES)
        for name, class_name in BACKENDS.items():
            cls = getattr(backends, class_name)
            assert cls.name == name
            assert issubclass(cls, StoreBackend)
            assert cls.__module__ == f"repro.runtime.backends.{name}"

    def test_url_round_trips(self, tmp_path):
        for name in ("directory", "sqlite"):
            first = make_backend(make_target(name, tmp_path))
            second = make_backend(first.url)
            assert second.name == first.name
            assert second.url == first.url


#: Every engine module, and the `sqlite3` module only the sqlite engine needs.
ENGINE_MODULES = tuple(f"repro.runtime.backends.{name}" for name in BACKEND_NAMES)


class TestLazyEngines:
    """An engine's module loads when a store of its scheme opens."""

    def test_package_import_loads_no_engine(self, fresh_interpreter):
        __, loaded = fresh_interpreter(
            "-c",
            "import repro.runtime.backends, repro.runtime.store",
            watch=ENGINE_MODULES + ("sqlite3",),
        )
        assert loaded == []

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_opening_a_store_loads_only_its_engine(
        self, name, fresh_interpreter, tmp_path
    ):
        target = make_target(name, tmp_path)
        __, loaded = fresh_interpreter(
            "-c",
            "import sys; from repro.runtime.store import ResultStore; "
            "ResultStore(sys.argv[1] if len(sys.argv) > 1 else None)",
            *([target] if target else []),
            watch=ENGINE_MODULES + ("sqlite3",),
        )
        engines = [module for module in loaded if module.startswith("repro.")]
        assert engines == [f"repro.runtime.backends.{name}"]
        assert ("sqlite3" in loaded) == (name == "sqlite")

    def test_engine_classes_import_from_the_package(self):
        import repro.runtime.backends as backends
        from repro.runtime.backends.sqlite import SqliteBackend as defined

        assert SqliteBackend is defined
        assert {"DirectoryBackend", "MemoryBackend", "SqliteBackend"} <= set(
            dir(backends)
        )
        assert sorted(backends._EXPORTS) == sorted(BACKENDS.values())


class TestBackendContract:
    """Every engine honours the same document semantics."""

    def test_document_round_trip(self, backend):
        fp = "ab" * 32
        assert backend.get_doc(fp) is None
        backend.put_doc(fp, '{"kind":"run","x":1}')
        assert backend.get_doc(fp) == '{"kind":"run","x":1}'
        assert backend.doc_count() == 1
        assert list(backend.iter_docs()) == [fp]

    def test_document_overwrite(self, backend):
        fp = "cd" * 32
        backend.put_doc(fp, "old")
        backend.put_doc(fp, "new")
        assert backend.get_doc(fp) == "new"
        assert backend.doc_count() == 1

    def test_document_delete(self, backend):
        fp = "ef" * 32
        backend.put_doc(fp, "doc")
        backend.delete_doc(fp)
        assert backend.get_doc(fp) is None
        assert backend.doc_count() == 0
        backend.delete_doc(fp)  # idempotent

    def test_clear_documents_counts_what_it_removed(self, backend):
        for index in range(3):
            backend.put_doc(f"{index:064x}", "doc")
        assert backend.clear_documents() == 3
        assert backend.doc_count() == 0
        assert list(backend.iter_docs()) == []

    def test_disk_bytes_counts_persistent_engines_only(self, backend):
        backend.put_doc("ab" * 32, '{"kind":"run"}')
        if backend.persistent:
            assert backend.disk_bytes() > 0
        else:
            assert backend.disk_bytes() == 0

    def test_missing_keys_read_as_none(self, backend):
        assert backend.get_doc("ab" * 32) is None
        assert backend.doc_count() == 0
        assert list(backend.iter_docs()) == []

    def test_many_documents_listed_once_each(self, backend):
        fingerprints = [f"{index:064x}" for index in range(40)]
        for fp in fingerprints:
            backend.put_doc(fp, json.dumps({"i": fp}))
        listed = list(backend.iter_docs())
        assert len(listed) == len(set(listed)) == 40
        assert sorted(listed) == fingerprints
        assert backend.doc_count() == 40
        assert all(backend.get_doc(fp) == json.dumps({"i": fp}) for fp in fingerprints)

    def test_document_text_stored_verbatim(self, backend):
        # Engines never parse or re-serialize: whitespace, key order and
        # even non-JSON text come back byte for byte.
        texts = {
            "ab" * 32: '{ "z" : 1,\n  "a":[1.0, 2e-3] }',
            "cd" * 32: '{"a":1,"z":0.30000000000000004}',
            "ef" * 32: "not json at all {",
        }
        for fp, text in texts.items():
            backend.put_doc(fp, text)
        assert {fp: backend.get_doc(fp) for fp in texts} == texts

    def test_empty_and_large_documents_round_trip(self, backend):
        large = json.dumps({"latencies": [i / 7.0 for i in range(60000)]})
        assert len(large) > 1 << 20  # over 1 MiB of text
        backend.put_doc("ab" * 32, "")
        backend.put_doc("cd" * 32, large)
        assert backend.get_doc("ab" * 32) == ""
        assert backend.get_doc("cd" * 32) == large
        assert backend.doc_count() == 2

    def test_shorter_overwrite_leaves_no_tail(self, backend):
        fp = "56" * 32
        backend.put_doc(fp, '{"first":"document, longer"}')
        backend.put_doc(fp, '{"second":1}')
        assert backend.get_doc(fp) == '{"second":1}'
        assert backend.doc_count() == 1
        assert list(backend.iter_docs()) == [fp]

    def test_clear_on_empty_store_returns_zero(self, backend):
        assert backend.clear_documents() == 0
        backend.put_doc("ab" * 32, "doc")
        assert backend.clear_documents() == 1
        assert backend.clear_documents() == 0

    def test_delete_one_document_keeps_the_rest(self, backend):
        keep, drop = "ab" * 32, "ac" + "ab" * 31  # same two-char prefix
        backend.put_doc(keep, "keep")
        backend.put_doc(drop, "drop")
        backend.delete_doc(drop)
        assert backend.get_doc(keep) == "keep"
        assert list(backend.iter_docs()) == [keep]

    def test_len_and_iter_follow_documents_only(self, backend):
        backend.put_doc("ab" * 32, "doc")
        backend.put_doc("cd" * 32, "doc")
        backend.delete_doc("cd" * 32)
        assert len(backend) == 1
        assert list(backend) == ["ab" * 32]

    def test_handle_stays_usable_after_close(self, backend):
        backend.put_doc("ab" * 32, "doc")
        backend.close()
        backend.close()  # idempotent
        backend.put_doc("cd" * 32, "later")
        assert backend.get_doc("cd" * 32) == "later"
        assert backend.doc_count() == 2

    def test_url_reopens_the_corpus_only_when_persistent(self, backend):
        backend.put_doc("ab" * 32, "doc")
        reopened = make_backend(backend.url)
        assert type(reopened) is type(backend)
        if backend.persistent:
            assert reopened.get_doc("ab" * 32) == "doc"
        else:
            assert reopened.doc_count() == 0
        reopened.close()

    def test_export_writes_the_directory_layout(self, backend, tmp_path):
        texts = {f"{index:02x}" * 32: f'{{"i":{index}}}' for index in (1, 2, 3)}
        for fp, text in texts.items():
            backend.put_doc(fp, text)
        destination = tmp_path / "exported"
        assert backend.export_canonical(destination) == 3
        files = sorted(p for p in destination.rglob("*") if p.is_file())
        assert [p.relative_to(destination).as_posix() for p in files] == [
            f"{fp[:2]}/{fp}.json" for fp in sorted(texts)
        ]
        assert {p.stem: p.read_text() for p in files} == texts

    def test_document_path_only_on_the_directory_engine(self, backend):
        fp = "ab" * 32
        backend.put_doc(fp, "doc")
        path = backend.document_path(fp)
        if backend.name == "directory":
            assert path == backend.root / fp[:2] / f"{fp}.json"
            assert path.read_text() == "doc"
        else:
            assert path is None

    def test_disk_bytes_grow_with_the_corpus(self, backend):
        backend.put_doc("ab" * 32, "x")
        small = backend.disk_bytes()
        backend.put_doc("cd" * 32, "0" * 65536)
        if backend.persistent:
            assert backend.disk_bytes() >= small + 65536
        else:
            assert backend.disk_bytes() == small == 0


class TestPersistence:
    @pytest.mark.parametrize("name", ["directory", "sqlite"])
    def test_second_handle_sees_the_corpus(self, name, target_factory):
        target = target_factory(name)
        writer = make_backend(target)
        writer.put_doc("ab" * 32, "doc")
        writer.close()
        reader = make_backend(target)
        assert reader.get_doc("ab" * 32) == "doc"
        reader.close()

    @pytest.mark.parametrize("name", ["directory", "sqlite"])
    def test_open_handles_see_each_others_overwrites_and_deletes(
        self, name, target_factory
    ):
        target = target_factory(name)
        first, second = make_backend(target), make_backend(target)
        first.put_doc("ab" * 32, "v1")
        first.put_doc("cd" * 32, "doomed")
        assert second.get_doc("ab" * 32) == "v1"
        second.put_doc("ab" * 32, "v2")
        second.delete_doc("cd" * 32)
        assert first.get_doc("ab" * 32) == "v2"
        assert first.get_doc("cd" * 32) is None
        assert sorted(first.iter_docs()) == sorted(second.iter_docs()) == ["ab" * 32]
        first.close()
        second.close()

    @pytest.mark.parametrize("name", ["directory", "sqlite"])
    def test_clear_through_one_handle_empties_the_other(self, name, target_factory):
        target = target_factory(name)
        first, second = make_backend(target), make_backend(target)
        first.put_doc("ab" * 32, "doc")
        assert second.clear_documents() == 1
        assert first.doc_count() == 0
        assert first.get_doc("ab" * 32) is None
        first.close()
        second.close()

    def test_memory_handles_share_nothing(self, tmp_path):
        writer = make_backend(None)
        writer.put_doc("ab" * 32, "doc")
        assert make_backend(None).get_doc("ab" * 32) is None

    def test_sqlite_reads_never_create_the_file(self, tmp_path):
        path = tmp_path / "probe.db"
        backend = SqliteBackend(path)
        assert backend.get_doc("ab" * 32) is None
        assert backend.doc_count() == 0
        assert list(backend.iter_docs()) == []
        assert backend.clear_documents() == 0
        assert not path.exists()
        backend.put_doc("ab" * 32, "doc")
        assert path.exists()
        backend.close()


class TestDirectoryAtomicity:
    def test_put_leaves_no_temp_files(self, tmp_path):
        backend = DirectoryBackend(tmp_path)
        for index in range(20):
            backend.put_doc(f"{index:064x}", json.dumps({"i": index}))
        leftovers = [
            p for p in tmp_path.rglob("*") if p.is_file() and ".tmp" in p.name
        ]
        assert leftovers == []

    def test_orphan_temp_invisible_to_reads_and_swept_by_clear(self, tmp_path):
        backend = DirectoryBackend(tmp_path)
        fp = "ab" * 32
        backend.put_doc(fp, "doc")
        # A writer killed mid-put leaves a temp file behind.
        orphan = tmp_path / fp[:2] / ".tmp-dead01.json.tmp"
        orphan.write_text("{torn")
        assert backend.doc_count() == 1
        assert list(backend.iter_docs()) == [fp]
        assert backend.clear_documents() == 1
        assert not orphan.exists()

    def test_overwrite_is_atomic_too(self, tmp_path):
        backend = DirectoryBackend(tmp_path)
        fp = "cd" * 32
        for index in range(10):
            backend.put_doc(fp, json.dumps({"i": index}))
        leftovers = [
            p for p in tmp_path.rglob("*") if p.is_file() and ".tmp" in p.name
        ]
        assert leftovers == []
        assert backend.get_doc(fp) == json.dumps({"i": 9})


def _tree_bytes(root):
    """fingerprint -> document bytes for a directory-layout tree."""
    return {p.stem: p.read_bytes() for p in root.glob("??/*.json")}


class TestCanonicalExport:
    def test_exports_byte_identical_across_backends(self, tmp_path, target_factory):
        docs = {
            "ab" * 32: '{"kind":"run","x":1.5}',
            "cd" * 32: '{"kind":"baseline","latencies":[1.0,2.25]}',
            "ef" * 32: '{"kind":"run","y":[1,2,3]}',
        }
        exports = {}
        for name in BACKEND_NAMES:
            backend = make_backend(target_factory(name, name))
            for fp, text in docs.items():
                backend.put_doc(fp, text)
            destination = tmp_path / f"export-{name}"
            assert backend.export_canonical(destination) == len(docs)
            exports[name] = _tree_bytes(destination)
            backend.close()
        assert exports["sqlite"] == exports["directory"]
        assert exports["memory"] == exports["directory"]
        # And the export reproduces the directory backend's own layout.
        assert exports["directory"] == _tree_bytes(
            tmp_path / "directory" / "tree"
        )

    def test_export_writes_only_document_files(self, tmp_path):
        backend = MemoryBackend()
        backend.put_doc("ab" * 32, "doc")
        destination = tmp_path / "export"
        assert backend.export_canonical(destination) == 1
        assert _tree_bytes(destination) == {"ab" * 32: b"doc"}
        assert sorted(
            p.relative_to(destination).as_posix() for p in destination.rglob("*")
        ) == ["ab", f"ab/{'ab' * 32}.json"]


class TestMigrate:
    @pytest.mark.parametrize("src_name", BACKEND_NAMES)
    @pytest.mark.parametrize("dst_name", BACKEND_NAMES)
    def test_migrate_preserves_export_bytes(
        self, src_name, dst_name, tmp_path, target_factory
    ):
        if src_name == dst_name == "memory":
            pytest.skip("two memory targets resolve to two empty stores")
        src = make_backend(target_factory(src_name, "src"))
        src.put_doc("ab" * 32, '{"kind":"run","x":1}')
        src.put_doc("cd" * 32, '{"kind":"baseline","t":2.5}')
        dst = make_backend(target_factory(dst_name, "dst"))
        counts = migrate_store(src, dst)
        assert counts == {"documents": 2}
        src_export, dst_export = tmp_path / "se", tmp_path / "de"
        src.export_canonical(src_export)
        dst.export_canonical(dst_export)
        assert _tree_bytes(src_export) == _tree_bytes(dst_export)
        src.close()
        dst.close()

    @pytest.mark.parametrize(
        "src_name,dst_name",
        [
            (src, dst)
            for src in BACKEND_NAMES
            for dst in BACKEND_NAMES
            if not src == dst == "memory"
        ],
    )
    def test_migrate_overwrites_same_keys_and_keeps_the_rest(
        self, src_name, dst_name, target_factory
    ):
        src = make_backend(target_factory(src_name, "src"))
        src.put_doc("ab" * 32, '{"kind":"run","x":2}')
        dst = make_backend(target_factory(dst_name, "dst"))
        dst.put_doc("ab" * 32, '{"kind":"run","x":1}')
        dst.put_doc("cd" * 32, '{"kind":"run","only":"dst"}')
        assert migrate_store(src, dst) == {"documents": 1}
        assert dst.get_doc("ab" * 32) == '{"kind":"run","x":2}'
        assert dst.get_doc("cd" * 32) == '{"kind":"run","only":"dst"}'
        # The source is read, never written.
        assert src.doc_count() == 1
        assert src.get_doc("ab" * 32) == '{"kind":"run","x":2}'
        src.close()
        dst.close()

    def test_round_trip_restores_the_original_corpus(self, tmp_path):
        origin = ResultStore(str(tmp_path / "origin"))
        origin.put("ab" * 32, {"kind": "run", "value": 1.25})
        origin_bytes = _tree_bytes(tmp_path / "origin")
        sqlite_url = f"sqlite://{tmp_path}/hop.db"
        migrate_store(str(tmp_path / "origin"), sqlite_url)
        migrate_store(sqlite_url, str(tmp_path / "back"))
        assert _tree_bytes(tmp_path / "back") == origin_bytes

    def test_refuses_migrating_onto_itself(self, tmp_path):
        target = str(tmp_path / "tree")
        make_backend(target).put_doc("ab" * 32, "doc")
        with pytest.raises(ValueError, match="onto itself"):
            migrate_store(target, target)

    def test_accepts_result_store_handles(self, tmp_path):
        src = ResultStore(str(tmp_path / "a"))
        dst = ResultStore(f"sqlite://{tmp_path}/b.db")
        src.put("ab" * 32, {"kind": "run"})
        assert migrate_store(src, dst)["documents"] == 1
        assert dst.get("ab" * 32)["kind"] == "run"


class TestDefaultStoreUrl:
    def test_url_in_env_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE", f"sqlite://{tmp_path}/s.db")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "ignored"))
        assert default_store_url() == f"sqlite://{tmp_path}/s.db"

    def test_memory_url_means_no_store(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "memory://")
        assert default_store_url() is None

    @pytest.mark.parametrize("url", ["redis://localhost/0", "http://127.0.0.1:8377"])
    def test_invalid_env_url_raises(self, monkeypatch, url):
        monkeypatch.setenv("REPRO_STORE", url)
        with pytest.raises(ValueError, match=UNKNOWN_ENGINE):
            default_store_url()

    def test_falls_back_to_legacy_rules(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "s"))
        assert default_store_url() == str(tmp_path / "s")

    def test_off_toggle_means_no_store(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "0")
        assert default_store_url() is None


class TestFacadeIdentity:
    def test_persistent_stores_expose_share_targets(self, tmp_path):
        sqlite_url = f"sqlite://{tmp_path}/s.db"
        store = ResultStore(sqlite_url)
        assert store.persistent
        assert store.share_target() == sqlite_url
        assert store.memo_key == sqlite_url
        assert store.root is None  # only the directory engine has one

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
        from repro.runtime.work import execute_in_worker
        from repro.runtime.spec import RunRecord

        sqlite_url = f"sqlite://{tmp_path}/s.db"
        parent = ResultStore(sqlite_url)
        reopened = ResultStore(parent.share_target())
        parent.put("ab" * 32, {"kind": "run", "x": 1})
        assert reopened.get("ab" * 32)["x"] == 1
