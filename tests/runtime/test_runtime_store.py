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
        store._docs["ab" * 32] = {"kind": "run", "schema": 0}
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
