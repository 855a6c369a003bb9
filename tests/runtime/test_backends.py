"""Tests for the two storage engines and their shared contract."""

import json
import shutil

import pytest

from repro.runtime.backends import (
    DirectoryBackend,
    MemoryBackend,
    StoreBackend,
    make_backend,
    parse_store_url,
)
from repro.runtime.store import ResultStore, default_store_url

BACKEND_NAMES = ("directory", "memory")

#: What a store URL naming no engine is refused with.
UNKNOWN_ENGINE = r"unknown store backend .*\(known: directory, memory\)"

#: Store URLs of engines that no longer exist, plus one that never did.
RETIRED_URLS = [
    "sqlite:///tmp/x/store.db",
    "redis://localhost/0",
    "http://127.0.0.1:8377",
    "cluster://replicas=2;http://a:1;http://b:2",
]


def make_target(name: str, tmp_path):
    """A store target string (or None) for one backend."""
    if name == "directory":
        return str(tmp_path / "tree")
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
            parse_store_url("directory://")

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("DIRECTORY:///tmp/x", ("directory", "/tmp/x")),
            ("  directory:///tmp/x  ", ("directory", "/tmp/x")),
            ("Memory://", ("memory", None)),
            ("  /tmp/corpus ", ("directory", "/tmp/corpus")),
        ],
    )
    def test_scheme_case_and_outer_space_ignored(self, text, expected):
        assert parse_store_url(text) == expected


class TestHomeRelativeTargets:
    @pytest.mark.parametrize("target", ["directory://~/corpus", "~/corpus"])
    def test_tilde_expands_to_home(self, target, monkeypatch, tmp_path):
        monkeypatch.setenv("HOME", str(tmp_path))
        backend = make_backend(target)
        backend.put_doc("ab" * 32, "doc")
        assert backend.url == f"directory://{tmp_path}/corpus"
        assert (tmp_path / "corpus" / "ab" / f"{'ab' * 32}.json").exists()


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

    @pytest.mark.parametrize(
        "target, engine",
        [
            ("directory://{tmp}/tree", DirectoryBackend),
            ("{tmp}/tree", DirectoryBackend),
            ("memory://", MemoryBackend),
            ("off", MemoryBackend),
            ("", MemoryBackend),
        ],
        ids=["directory-url", "bare-path", "memory-url", "off-token", "empty"],
    )
    def test_each_target_opens_its_engine(self, target, engine, tmp_path):
        backend = make_backend(target.format(tmp=tmp_path))
        assert type(backend) is engine
        assert isinstance(backend, StoreBackend)
        assert backend.name in BACKEND_NAMES
        assert not (tmp_path / "tree").exists()  # opening writes nothing

    def test_package_holds_two_engines(self):
        import pkgutil

        import repro.runtime.backends as backends

        modules = sorted(m.name for m in pkgutil.iter_modules(backends.__path__))
        assert modules == ["base", "directory", "memory"]
        assert (DirectoryBackend.name, MemoryBackend.name) == BACKEND_NAMES

    def test_url_round_trips(self, tmp_path):
        first = make_backend(make_target("directory", tmp_path))
        second = make_backend(first.url)
        assert second.name == first.name
        assert second.url == first.url


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


#: How a second handle names a directory store the first opened by path.
LOCATION_FORMS = {
    "path": lambda root: str(root),
    "url": lambda root: f"directory://{root}",
}


class TestPersistence:
    @pytest.mark.parametrize("form", LOCATION_FORMS)
    def test_second_handle_sees_the_corpus(self, form, tmp_path):
        root = tmp_path / "tree"
        writer = make_backend(str(root))
        writer.put_doc("ab" * 32, "doc")
        reader = make_backend(LOCATION_FORMS[form](root))
        assert reader.get_doc("ab" * 32) == "doc"

    @pytest.mark.parametrize("form", LOCATION_FORMS)
    def test_open_handles_see_each_others_overwrites_and_deletes(
        self, form, tmp_path
    ):
        root = tmp_path / "tree"
        first = make_backend(str(root))
        second = make_backend(LOCATION_FORMS[form](root))
        first.put_doc("ab" * 32, "v1")
        first.put_doc("cd" * 32, "doomed")
        assert second.get_doc("ab" * 32) == "v1"
        second.put_doc("ab" * 32, "v2")
        second.delete_doc("cd" * 32)
        assert first.get_doc("ab" * 32) == "v2"
        assert first.get_doc("cd" * 32) is None
        assert sorted(first.iter_docs()) == sorted(second.iter_docs()) == ["ab" * 32]

    @pytest.mark.parametrize("form", LOCATION_FORMS)
    def test_clear_through_one_handle_empties_the_other(self, form, tmp_path):
        root = tmp_path / "tree"
        first = make_backend(str(root))
        second = make_backend(LOCATION_FORMS[form](root))
        first.put_doc("ab" * 32, "doc")
        assert second.clear_documents() == 1
        assert first.doc_count() == 0
        assert first.get_doc("ab" * 32) is None

    def test_memory_handles_share_nothing(self, tmp_path):
        writer = make_backend(None)
        writer.put_doc("ab" * 32, "doc")
        assert make_backend(None).get_doc("ab" * 32) is None

    @pytest.mark.parametrize(
        "read",
        [
            lambda store: store.get("ab" * 32),
            len,
            lambda store: list(store.fingerprints()),
            lambda store: store.stats(),
            lambda store: store.prune(),
            lambda store: store.clear(),
            lambda store: store.backend.delete_doc("ab" * 32),
        ],
        ids=["get", "len", "fingerprints", "stats", "prune", "clear", "delete"],
    )
    def test_reads_and_maintenance_never_create_the_root(self, read, tmp_path):
        root = tmp_path / "missing"
        read(ResultStore(str(root)))
        assert not root.exists()

    def test_a_put_creates_the_root(self, tmp_path):
        root = tmp_path / "missing" / "tree"
        store = ResultStore(str(root))
        store.put("ab" * 32, {"kind": "run"})
        assert (root / "ab" / f"{'ab' * 32}.json").is_file()
        assert len(store) == 1


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


    def test_write_whose_temp_was_swept_is_dropped(self, tmp_path, monkeypatch):
        """A concurrent clear that sweeps a writer's temp file makes the
        write a no-op, not an error: the store is a cache."""
        import os

        backend = DirectoryBackend(tmp_path)

        def swept(src, dst):
            os.unlink(src)
            raise FileNotFoundError(src)

        monkeypatch.setattr(os, "replace", swept)
        backend.put_doc("ab" * 32, "doc")
        monkeypatch.undo()
        assert backend.get_doc("ab" * 32) is None
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []

    def test_failed_write_removes_its_temp_and_raises(self, tmp_path, monkeypatch):
        import os

        backend = DirectoryBackend(tmp_path)
        backend.put_doc("ab" * 32, "old")

        def refuse(src, dst):
            raise PermissionError(dst)

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(PermissionError):
            backend.put_doc("ab" * 32, "new")
        monkeypatch.undo()
        assert backend.get_doc("ab" * 32) == "old"
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
        backend = DirectoryBackend(tmp_path)
        backend.put_doc("ab" * 32, "doc")
        (tmp_path / foreign).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / foreign).write_text("foreign")
        assert list(backend.iter_docs()) == ["ab" * 32]
        assert backend.doc_count() == 1
        assert backend.disk_bytes() == len("doc")
        assert backend.clear_documents() == 1
        assert (tmp_path / foreign).read_text() == "foreign"

    def test_delete_prunes_only_an_emptied_shard(self, tmp_path):
        backend = DirectoryBackend(tmp_path)
        backend.put_doc("ab" * 32, "doc")
        backend.put_doc("ab" + "cd" * 31, "doc")
        backend.put_doc("ef" * 32, "doc")
        backend.delete_doc("ab" * 32)
        assert (tmp_path / "ab").is_dir()
        backend.delete_doc("ab" + "cd" * 31)
        assert not (tmp_path / "ab").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ef"]

    def test_disk_bytes_are_the_document_bytes(self, tmp_path):
        backend = DirectoryBackend(tmp_path)
        texts = {"ab" * 32: "x", "cd" * 32: "é" * 10, "ef" * 32: "0" * 4096}
        for fp, text in texts.items():
            backend.put_doc(fp, text)
        assert backend.disk_bytes() == sum(len(t.encode()) for t in texts.values())


def _tree_bytes(root):
    """path -> bytes for every file under a directory."""
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in root.rglob("*")
        if p.is_file()
    }


class TestCanonicalLayout:
    """The directory tree is every corpus's canonical layout."""

    TEXTS = {
        "ab" * 32: '{"kind":"run","x":1.5}',
        "cd" * 32: '{"kind":"baseline","latencies":[1.0,2.25]}',
        "ef" * 32: '{"kind":"run","y":[1,2,3]}',
    }

    def test_engines_hold_the_same_texts(self, tmp_path):
        held = {}
        for name in BACKEND_NAMES:
            backend = make_backend(make_target(name, tmp_path))
            for fp, text in self.TEXTS.items():
                backend.put_doc(fp, text)
            held[name] = {fp: backend.get_doc(fp) for fp in backend.iter_docs()}
        assert held["directory"] == held["memory"] == self.TEXTS
        # And the directory engine keeps each text at <fp[:2]>/<fp>.json.
        assert _tree_bytes(tmp_path / "tree") == {
            f"{fp[:2]}/{fp}.json": text.encode() for fp, text in self.TEXTS.items()
        }

    def test_tree_holds_only_document_files(self, tmp_path):
        backend = DirectoryBackend(tmp_path / "tree")
        backend.put_doc("ab" * 32, "doc")
        assert sorted(
            p.relative_to(tmp_path / "tree").as_posix()
            for p in (tmp_path / "tree").rglob("*")
        ) == ["ab", f"ab/{'ab' * 32}.json"]

    def test_a_copied_tree_is_the_same_corpus(self, tmp_path, store_documents):
        origin = ResultStore(str(tmp_path / "origin"))
        for fp, text in self.TEXTS.items():
            origin.put(fp, json.loads(text))
        shutil.copytree(tmp_path / "origin", tmp_path / "copy")
        copy = ResultStore(str(tmp_path / "copy"))
        assert store_documents(copy) == store_documents(origin)
        assert {fp: copy.get(fp) for fp in self.TEXTS} == {
            fp: origin.get(fp) for fp in self.TEXTS
        }


class TestDefaultStoreUrl:
    def test_url_in_env_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE", f"directory://{tmp_path}/s")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "ignored"))
        assert default_store_url() == f"directory://{tmp_path}/s"

    def test_memory_url_means_no_store(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "memory://")
        assert default_store_url() is None

    @pytest.mark.parametrize("url", RETIRED_URLS)
    def test_invalid_env_url_raises(self, monkeypatch, url):
        monkeypatch.setenv("REPRO_STORE", url)
        with pytest.raises(ValueError, match="^REPRO_STORE: " + UNKNOWN_ENGINE):
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
