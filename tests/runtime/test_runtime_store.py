"""Tests for the persistent fingerprint-keyed result store."""

import json

import pytest

from repro.runtime.spec import RunRecord
from repro.runtime.store import ResultStore, default_store_url
from repro.sim.mix_runner import BaselineResult


def _record(policy: str = "Ubik") -> RunRecord:
    return RunRecord(
        mix_id="shore-lo-nft.0",
        lc_name="shore",
        load_label="lo",
        policy=policy,
        tail_degradation=1.0195,
        weighted_speedup=1.2751,
        lc_tail_cycles=123456.75,
        baseline_tail_cycles=121111.25,
        deboosts=3,
        watermarks=1,
    )


class TestDocuments:
    def test_memory_only_round_trip(self):
        store = ResultStore(None)
        store.put("ab" * 32, {"kind": "run", "x": 1})
        doc = store.get("ab" * 32)
        assert doc["kind"] == "run"
        assert doc["x"] == 1
        # Every written document carries its schema generation and the
        # writing package version (what `prune` keys on).
        assert doc["schema"] == 1
        assert doc["repro"]
        assert "ab" * 32 in store
        assert "cd" * 32 not in store

    def test_disk_round_trip_across_instances(self, tmp_path):
        fingerprint = "f0" * 32
        ResultStore(tmp_path).put_record(fingerprint, _record())
        # A brand-new instance (fresh process, conceptually) sees it.
        reloaded = ResultStore(tmp_path).get_record(fingerprint)
        assert reloaded == _record()

    def test_floats_round_trip_exactly(self, tmp_path):
        fingerprint = "0d" * 32
        record = _record()
        ResultStore(tmp_path).put_record(fingerprint, record)
        reloaded = ResultStore(tmp_path).get_record(fingerprint)
        assert reloaded.tail_degradation == record.tail_degradation
        assert reloaded.lc_tail_cycles == record.lc_tail_cycles

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        fingerprint = "aa" * 32
        store = ResultStore(tmp_path)
        store.put_record(fingerprint, _record())
        path = tmp_path / fingerprint[:2] / f"{fingerprint}.json"
        path.write_text("{not json")
        assert ResultStore(tmp_path).get_record(fingerprint) is None

    def test_kind_mismatch_reads_as_miss(self, tmp_path):
        fingerprint = "bb" * 32
        store = ResultStore(tmp_path)
        store.put_record(fingerprint, _record())
        assert ResultStore(tmp_path).get_baseline(fingerprint) is None


class TestBaselines:
    def test_baseline_round_trip(self, tmp_path):
        fingerprint = "cc" * 32
        baseline = BaselineResult(
            tail95_cycles=100.5, p95_cycles=90.25, latencies=(1.0, 2.5, 3.75)
        )
        ResultStore(tmp_path).put_baseline(fingerprint, baseline)
        reloaded = ResultStore(tmp_path).get_baseline(fingerprint)
        assert reloaded == baseline


class TestMaintenance:
    def test_stats_and_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put_record("dd" * 32, _record())
        store.put_baseline(
            "ee" * 32,
            BaselineResult(tail95_cycles=1.0, p95_cycles=1.0, latencies=(1.0,)),
        )
        stats = store.stats()
        assert stats["disk_entries"] == 2
        assert stats["by_kind"] == {"run": 1, "baseline": 1}
        assert stats["disk_bytes"] > 0
        assert store.clear() == 2
        assert store.stats()["disk_entries"] == 0
        assert store.get_record("dd" * 32) is None

    def test_prune_keeps_current_generation(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put_record("dd" * 32, _record())
        store.put_baseline(
            "ee" * 32,
            BaselineResult(tail95_cycles=1.0, p95_cycles=1.0, latencies=(1.0,)),
        )
        counts = store.prune()
        assert counts == {"kept": 2, "pruned": 0}
        assert ResultStore(tmp_path).get_record("dd" * 32) == _record()

    def test_prune_drops_stale_generations(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put_record("dd" * 32, _record())
        # A record written by a previous schema generation…
        stale = tmp_path / "ab" / ("ab" * 32 + ".json")
        stale.parent.mkdir(parents=True)
        stale.write_text(json.dumps({"kind": "run", "schema": 0}))
        # …one predating the stamp entirely, and one corrupt file.
        legacy = tmp_path / "cd" / ("cd" * 32 + ".json")
        legacy.parent.mkdir(parents=True)
        legacy.write_text(json.dumps({"kind": "run", "record": {}}))
        corrupt = tmp_path / "ef" / ("ef" * 32 + ".json")
        corrupt.parent.mkdir(parents=True)
        corrupt.write_text("{not json")
        counts = store.prune()
        assert counts == {"kept": 1, "pruned": 3}
        assert not stale.exists()
        assert not legacy.exists()
        assert not corrupt.exists()
        assert ResultStore(tmp_path).get_record("dd" * 32) == _record()

    def test_prune_sweeps_stale_memory_entries(self):
        store = ResultStore(None)
        store.put_record("dd" * 32, _record())
        store._mem["ab" * 32] = {"kind": "run", "schema": 0}
        store.prune()
        assert store.get("ab" * 32) is None
        assert store.get_record("dd" * 32) == _record()

    def test_new_records_stamped_with_package_version(self, tmp_path):
        import repro

        fingerprint = "aa" * 32
        ResultStore(tmp_path).put_record(fingerprint, _record())
        path = tmp_path / fingerprint[:2] / f"{fingerprint}.json"
        doc = json.loads(path.read_text())
        assert doc["repro"] == repro.__version__
        assert doc["schema"] == 1

    def test_stats_memory_only(self):
        store = ResultStore(None)
        store.put_record("ff" * 32, _record())
        stats = store.stats()
        assert stats["root"] is None
        assert stats["memory_entries"] == 1
        assert stats["disk_entries"] == 0

    def test_written_files_are_canonical_json(self, tmp_path):
        fingerprint = "ab" * 32
        ResultStore(tmp_path).put_record(fingerprint, _record())
        path = tmp_path / fingerprint[:2] / f"{fingerprint}.json"
        payload = json.loads(path.read_text())
        assert payload["kind"] == "run"
        assert payload["record"]["policy"] == "Ubik"


def _store_target(backend_name, tmp_path):
    if backend_name == "directory":
        return str(tmp_path / "tree")
    return None


@pytest.fixture(params=["directory", "memory"])
def any_store(request, tmp_path):
    store = ResultStore(_store_target(request.param, tmp_path))
    yield store
    store.close()


class TestEveryBackend:
    """The façade behaves identically regardless of the engine below."""

    def test_record_round_trip(self, any_store):
        any_store.put_record("ab" * 32, _record())
        assert any_store.get_record("ab" * 32) == _record()
        if any_store.persistent:
            reopened = ResultStore(any_store.share_target())
            assert reopened.get_record("ab" * 32) == _record()

    def test_baseline_round_trip(self, any_store):
        baseline = BaselineResult(
            tail95_cycles=100.5, p95_cycles=90.25, latencies=(1.0, 2.5, 3.75)
        )
        any_store.put_baseline("cd" * 32, baseline)
        assert any_store.get_baseline("cd" * 32) == baseline

    def test_prune_counts(self, any_store):
        any_store.put_record("ab" * 32, _record())
        # A document written by a previous schema generation, planted
        # below the façade so ``put`` cannot re-stamp it.
        any_store.backend.put_doc("cd" * 32, '{"kind": "run", "schema": 0}')
        counts = any_store.prune()
        assert counts == {"kept": 1, "pruned": 1}
        assert any_store.get("cd" * 32) is None
        assert any_store.get_record("ab" * 32) == _record()

    def test_stats_name_their_backend(self, any_store):
        any_store.put_record("ab" * 32, _record())
        stats = any_store.stats()
        assert stats["backend"] == any_store.backend.name
        assert stats["documents"] == 1
        assert stats["by_kind"] == {"run": 1}
        if any_store.persistent:
            assert stats["disk_entries"] == 1
            assert stats["disk_bytes"] > 0
        else:
            assert stats["disk_entries"] == 0

    def test_len_and_fingerprints(self, any_store):
        any_store.put("ab" * 32, {"kind": "run"})
        any_store.put("cd" * 32, {"kind": "baseline"})
        assert len(any_store) == 2
        assert sorted(any_store.fingerprints()) == ["ab" * 32, "cd" * 32]

    def test_engine_text_matches_the_directory_file(
        self, any_store, tmp_path, store_documents
    ):
        any_store.put_record("ab" * 32, _record())
        reference = ResultStore(str(tmp_path / "reference"))
        reference.put_record("ab" * 32, _record())
        written = tmp_path / "reference" / "ab" / ("ab" * 32 + ".json")
        assert store_documents(any_store) == {"ab" * 32: written.read_text()}

    # A second façade over the same engine instance starts with an empty
    # memory layer, so it reads what the engine really holds — for the
    # memory engine too, which no URL can reopen.

    def test_corrupt_document_reads_as_miss(self, any_store):
        any_store.put_record("ab" * 32, _record())
        any_store.backend.put_doc("ab" * 32, "{not json")
        fresh = ResultStore(any_store.backend)
        assert fresh.get_record("ab" * 32) is None
        assert "ab" * 32 not in fresh
        assert fresh.stats()["by_kind"] == {"corrupt": 1}

    def test_kind_mismatch_reads_as_miss(self, any_store):
        baseline = BaselineResult(tail95_cycles=2.0, p95_cycles=1.5, latencies=(1.5,))
        any_store.put_record("ab" * 32, _record())
        any_store.put_baseline("cd" * 32, baseline)
        fresh = ResultStore(any_store.backend)
        assert fresh.get_baseline("ab" * 32) is None
        assert fresh.get_record("cd" * 32) is None
        assert fresh.get_record("ab" * 32) == _record()
        assert fresh.get_baseline("cd" * 32) == baseline

    def test_floats_round_trip_exactly(self, any_store):
        awkward = (0.1 + 0.2, 1e-300, 2.0**53 + 2, 123456.789e10, 5e-324)
        record = RunRecord(**dict(_record().to_dict(), tail_degradation=awkward[0]))
        baseline = BaselineResult(
            tail95_cycles=awkward[3], p95_cycles=awkward[2], latencies=awkward
        )
        any_store.put_record("ab" * 32, record)
        any_store.put_baseline("cd" * 32, baseline)
        fresh = ResultStore(any_store.backend)
        assert fresh.get_record("ab" * 32).tail_degradation.hex() == awkward[0].hex()
        reread = fresh.get_baseline("cd" * 32)
        assert [x.hex() for x in reread.latencies] == [x.hex() for x in awkward]
        assert reread.tail95_cycles.hex() == awkward[3].hex()

    def test_engine_holds_stamped_canonical_json(self, any_store):
        import repro
        from repro.runtime.spec import SPEC_SCHEMA_VERSION, canonical_json

        any_store.put_record("ab" * 32, _record())
        text = any_store.backend.get_doc("ab" * 32)
        payload = json.loads(text)
        assert text == canonical_json(payload)
        assert payload["schema"] == SPEC_SCHEMA_VERSION
        assert payload["repro"] == repro.__version__
        assert RunRecord.from_dict(payload["record"]) == _record()

    def test_clear_drops_both_layers(self, any_store):
        any_store.put_record("ab" * 32, _record())
        any_store.put("cd" * 32, {"kind": "run"})
        assert any_store.clear() == 2
        assert any_store.get_record("ab" * 32) is None
        assert len(any_store) == 0
        assert any_store.stats()["memory_entries"] == 0

    def test_prune_drops_stale_unstamped_and_corrupt(self, any_store):
        any_store.put_record("dd" * 32, _record())
        backend = any_store.backend
        backend.put_doc("ab" * 32, json.dumps({"kind": "run", "schema": 0}))
        backend.put_doc("cd" * 32, json.dumps({"kind": "run", "record": {}}))
        backend.put_doc("ef" * 32, "{not json")
        assert any_store.prune() == {"kept": 1, "pruned": 3}
        assert sorted(backend.iter_docs()) == ["dd" * 32]
        assert ResultStore(backend).get_record("dd" * 32) == _record()

    def test_cache_record_warms_memory_only(self, any_store):
        any_store.cache_record("ab" * 32, _record())
        assert any_store.get_record("ab" * 32) == _record()
        assert any_store.backend.get_doc("ab" * 32) is None
        assert len(any_store) == 0
        assert ResultStore(any_store.backend).get_record("ab" * 32) is None

    def test_second_facade_reads_through_to_the_engine(self, any_store):
        fresh = ResultStore(any_store.backend)
        assert "ab" * 32 not in fresh
        any_store.put_record("ab" * 32, _record())
        assert "ab" * 32 in fresh
        assert fresh.get_record("ab" * 32) == _record()
        assert fresh.stats()["memory_entries"] == 1


class TestDefaultRoot:
    """Where the environment puts the default store."""

    def test_disabled_by_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "0")
        assert default_store_url() is None

    @pytest.mark.parametrize("token", ["off", "false", "no", "memory", "OFF"])
    def test_off_tokens_win_over_cache_dir(self, monkeypatch, token):
        monkeypatch.setenv("REPRO_STORE", token)
        monkeypatch.setenv("REPRO_CACHE_DIR", "/ignored")
        assert default_store_url() is None

    def test_override_by_env(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "s"))
        assert default_store_url() == str(tmp_path / "s")

    def test_override_expands_home(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.setenv("REPRO_CACHE_DIR", "~/s")
        assert default_store_url() == str(tmp_path / "s")

    def test_default_under_cache_home(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert default_store_url() == str(tmp_path / "repro-ubik")

    def test_default_under_home_without_cache_home(self, monkeypatch, tmp_path):
        for name in ("REPRO_STORE", "REPRO_CACHE_DIR", "XDG_CACHE_HOME"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("HOME", str(tmp_path))
        assert default_store_url() == str(tmp_path / ".cache" / "repro-ubik")
