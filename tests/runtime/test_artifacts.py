"""Tests for repro.runtime.artifacts: the per-process artifact cache."""

import numpy as np
import pytest

from repro.runtime.artifacts import (
    ArtifactCache,
    artifacts_enabled,
    get_artifacts,
    reset_artifacts,
    stream_key,
    workload_key,
)
from repro.runtime.spec import MixRef, PolicySpec, RunSpec
from repro.runtime.store import ResultStore
from repro.runtime.work import execute_spec
from repro.sim.mix_runner import MixRunner
from repro.workloads.latency_critical import make_lc_workload
from repro.workloads.reference import synthesize_stream


@pytest.fixture(autouse=True)
def _fresh_artifacts(monkeypatch):
    """Each test starts and ends with an empty process-wide cache,
    enabled regardless of the invoking environment (tests that cover
    the disabled path pin it themselves)."""
    monkeypatch.delenv("REPRO_ARTIFACTS", raising=False)
    reset_artifacts()
    yield
    reset_artifacts()


class TestArtifactCache:
    def test_get_or_make_counts_misses_then_hits(self):
        cache = ArtifactCache(enabled=True)
        built = []

        def build():
            built.append(1)
            return "value"

        assert cache.get_or_make("demo", ("k",), build) == "value"
        assert cache.get_or_make("demo", ("k",), build) == "value"
        assert built == [1]
        counts = cache.stats()["kinds"]["demo"]
        assert (counts["hits"], counts["misses"], counts["entries"]) == (1, 1, 1)

    def test_get_put_roundtrip_and_invalidate(self):
        cache = ArtifactCache(enabled=True)
        assert cache.get("demo", "k") is None  # counted miss
        cache.put("demo", "k", 42)
        assert cache.get("demo", "k") == 42
        cache.invalidate("demo", "k")
        assert cache.get("demo", "k") is None
        counts = cache.stats()["kinds"]["demo"]
        assert (counts["hits"], counts["misses"]) == (1, 2)

    def test_disabled_cache_never_stores_or_counts(self):
        cache = ArtifactCache(enabled=False)
        assert cache.get_or_make("demo", "k", lambda: 1) == 1
        cache.put("demo", "k", 2)
        assert cache.get("demo", "k") is None
        cache.count("demo", hit=True)
        stats = cache.stats()
        assert stats["enabled"] is False
        assert stats["entries"] == 0
        assert stats["kinds"] == {}

    def test_disabled_context_manager_restores_state(self):
        cache = ArtifactCache(enabled=True)
        with cache.disabled():
            assert cache.enabled is False
            cache.put("demo", "k", 1)
        assert cache.enabled is True
        assert cache.get("demo", "k") is None  # the put was dropped

    def test_env_toggle_controls_default_instance(self, monkeypatch):
        cache = ArtifactCache()  # follows the environment
        monkeypatch.setenv("REPRO_ARTIFACTS", "0")
        assert artifacts_enabled() is False
        assert cache.enabled is False
        monkeypatch.setenv("REPRO_ARTIFACTS", "1")
        assert cache.enabled is True
        monkeypatch.delenv("REPRO_ARTIFACTS")
        assert cache.enabled is True  # default on

    def test_explicit_flag_overrides_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACTS", "0")
        assert ArtifactCache(enabled=True).enabled is True

    def test_clear_resets_entries_and_counters(self):
        cache = ArtifactCache(enabled=True)
        cache.get_or_make("demo", "k", lambda: 1)
        cache.clear()
        stats = cache.stats()
        assert stats["entries"] == 0
        assert stats["kinds"] == {}

    def test_process_singleton(self):
        get_artifacts().put("demo", "k", 7)
        assert get_artifacts().get("demo", "k") == 7
        reset_artifacts()
        assert get_artifacts().get("demo", "k") is None


class TestContentKeys:
    def test_workload_key_is_content_addressed(self):
        """Two separately built but identical workloads share a key;
        a genuinely different workload does not."""
        assert workload_key(make_lc_workload("masstree")) == workload_key(
            make_lc_workload("masstree")
        )
        assert workload_key(make_lc_workload("masstree")) != workload_key(
            make_lc_workload("xapian")
        )
        assert workload_key(make_lc_workload("masstree")) != workload_key(
            make_lc_workload("masstree", target_mb=4.0)
        )

    def test_stream_key_separates_every_input(self):
        from repro.sim.config import CMPConfig

        wl = make_lc_workload("masstree")
        config = CMPConfig()
        base = stream_key(wl, 0.2, 0, 60, 2014, config)
        assert stream_key(wl, 0.2, 0, 60, 2014, CMPConfig()) == base
        assert stream_key(wl, 0.6, 0, 60, 2014, config) != base
        assert stream_key(wl, 0.2, 1, 60, 2014, config) != base
        assert stream_key(wl, 0.2, 0, 61, 2014, config) != base
        assert stream_key(wl, 0.2, 0, 60, 2015, config) != base
        assert (
            stream_key(wl, 0.2, 0, 60, 2014, CMPConfig(core_kind="inorder"))
            != base
        )


class TestStreamArtifacts:
    def test_streams_shared_across_runner_instances(self):
        wl = make_lc_workload("masstree")
        first = MixRunner(requests=40, seed=2014).stream(wl, 0.2, 0)
        second = MixRunner(requests=40, seed=2014).stream(wl, 0.2, 0)
        # Same frozen arrays, not merely equal values.
        assert first[0] is second[0] and first[1] is second[1]
        counts = get_artifacts().stats()["kinds"]["stream"]
        assert counts["hits"] >= 1 and counts["misses"] == 1

    def test_cached_streams_are_read_only(self):
        wl = make_lc_workload("masstree")
        arrivals, works = MixRunner(requests=40, seed=2014).stream(wl, 0.2, 0)
        with pytest.raises(ValueError):
            arrivals[0] = 0.0
        with pytest.raises(ValueError):
            works[0] = 0.0

    def test_stream_matches_scalar_reference(self):
        """The cached, vectorized stream equals the pre-vectorization
        scalar synthesis bit for bit — mixture workloads included."""
        for name in ("masstree", "xapian", "shore"):
            wl = make_lc_workload(name)
            runner = MixRunner(requests=50, seed=2014)
            for instance in range(2):
                arrivals, works = runner.stream(wl, 0.2, instance)
                ref_arrivals, ref_works = synthesize_stream(
                    wl, 0.2, instance, requests=50, seed=2014, config=runner.config
                )
                assert np.array_equal(arrivals, ref_arrivals)
                assert np.array_equal(works, ref_works)

    def test_disabled_cache_still_produces_identical_streams(self):
        wl = make_lc_workload("shore")
        cached = MixRunner(requests=40, seed=2014).stream(wl, 0.2, 0)
        with get_artifacts().disabled():
            fresh = MixRunner(requests=40, seed=2014).stream(wl, 0.2, 0)
        assert fresh[0] is not cached[0]
        assert np.array_equal(fresh[0], cached[0])
        assert np.array_equal(fresh[1], cached[1])


class TestBaselineArtifacts:
    def test_baseline_shared_across_runners_without_store(self):
        """A long-lived worker process serves a baseline to every spec
        in a batch even with no store attached."""
        wl = make_lc_workload("masstree")
        first = MixRunner(requests=40, seed=2014).baseline(wl, 0.2)
        second = MixRunner(requests=40, seed=2014).baseline(wl, 0.2)
        assert first == second
        counts = get_artifacts().stats()["kinds"]["baseline"]
        assert counts["hits"] == 1 and counts["misses"] == 1

    def test_runner_cache_keyed_on_requests_seed_warmup(self):
        """The tightened in-memory key: one runner evaluating differing
        measurement knobs must never alias two baselines."""
        wl = make_lc_workload("masstree")
        runner = MixRunner(requests=40, seed=2014)
        a = runner.baseline(wl, 0.2)
        other = MixRunner(requests=44, seed=2014).baseline(wl, 0.2)
        b = MixRunner(requests=40, seed=2015).baseline(wl, 0.2)
        c = MixRunner(requests=40, seed=2014, warmup_fraction=0.25).baseline(wl, 0.2)
        assert len({a.tail95_cycles, other.tail95_cycles, b.tail95_cycles}) == 3
        assert c != a
        # And the original is still served unchanged from the runner.
        assert runner.baseline(wl, 0.2) == a

    def test_artifact_hit_writes_through_to_a_fresh_store(self, tmp_path):
        """A warm process attached to an empty store must still persist
        the baseline document — byte-identical to a cache-off run —
        else cache-on and cache-off store trees would diverge."""
        wl = make_lc_workload("masstree")
        MixRunner(requests=40, seed=2014).baseline(wl, 0.2)  # warms artifacts

        warm_store = ResultStore(tmp_path / "warm")
        runner = MixRunner(requests=40, seed=2014, store=warm_store)
        runner.baseline(wl, 0.2)
        fingerprint = runner._baseline_fingerprint(wl, 0.2)
        warm_doc = warm_store.document_path(fingerprint)
        assert warm_doc.exists()

        reset_artifacts()
        cold_store = ResultStore(tmp_path / "cold")
        with get_artifacts().disabled():
            MixRunner(requests=40, seed=2014, store=cold_store).baseline(wl, 0.2)
        assert warm_doc.read_bytes() == cold_store.document_path(
            fingerprint
        ).read_bytes()

    def test_store_parse_memo_counts_through_artifacts(self, tmp_path):
        wl = make_lc_workload("masstree")
        store = ResultStore(tmp_path)
        MixRunner(requests=40, seed=2014, store=store).baseline(wl, 0.2)
        reset_artifacts()  # drop the baseline artifact, keep the store
        for _ in range(3):
            runner = MixRunner(requests=40, seed=2014, store=store)
            runner.baseline(wl, 0.2)
        counts = get_artifacts().stats()["kinds"]["baseline_parse"]
        # One parse on the first store read, memo hits after; exact
        # splits depend on the artifact layer's own baseline kind, so
        # just require the memo was exercised and never re-parsed.
        assert counts["misses"] <= 1
        assert counts["hits"] + counts["misses"] >= 1


class TestTier2:
    """The persistent artifact tier under ``REPRO_ARTIFACTS_TIER2``."""

    @pytest.fixture(params=["sqlite", "directory"])
    def tier2_url(self, request, monkeypatch, tmp_path):
        # ``directory`` is what ``REPRO_ARTIFACTS_TIER2=1`` resolves to.
        if request.param == "sqlite":
            url = f"sqlite://{tmp_path}/artifacts.db"
        else:
            url = f"directory://{tmp_path}/artifacts"
        monkeypatch.setenv("REPRO_ARTIFACTS_TIER2", url)
        return url

    @staticmethod
    def _baseline():
        from repro.sim.mix_runner import BaselineResult

        return BaselineResult(
            tail95_cycles=9.5, p95_cycles=8.0, latencies=(1.0, 2.0, 9.5)
        )

    @pytest.mark.parametrize("scheme", ["sqlite", "directory"])
    def test_unwritable_tier_degrades_to_tier1_only(
        self, scheme, monkeypatch, tmp_path
    ):
        # Tier 2 is best-effort by contract: a location that cannot be
        # created must not fail the run, just stop persisting.
        blocker = tmp_path / "a-file"
        blocker.write_text("not a directory")
        monkeypatch.setenv(
            "REPRO_ARTIFACTS_TIER2", f"{scheme}://{blocker}/tier2/artifacts.db"
        )
        cache = ArtifactCache(enabled=True)
        cache.put("baseline", ("k",), self._baseline())  # must not raise
        assert cache.get("baseline", ("k",)) == self._baseline()  # tier 1
        cold = ArtifactCache(enabled=True)
        assert cold.get("baseline", ("k",)) is None
        assert cold.stats()["tier2"]["kinds"]["baseline"] == {"hits": 0, "misses": 1}

    def test_on_token_persists_next_to_the_store(self, monkeypatch, tmp_path):
        # ``REPRO_ARTIFACTS_TIER2=1`` puts the tier in a directory engine
        # beside the default result store.
        monkeypatch.delenv("REPRO_STORE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        monkeypatch.setenv("REPRO_ARTIFACTS_TIER2", "1")
        ArtifactCache(enabled=True).put("baseline", ("k",), self._baseline())
        blobs = list((tmp_path / "store-artifacts" / "blobs").rglob("*.bin"))
        assert len(blobs) == 1
        assert ArtifactCache(enabled=True).get("baseline", ("k",)) == self._baseline()

    def test_corrupt_blob_reads_as_a_miss(self, tier2_url):
        from repro.runtime.backends import make_backend

        ArtifactCache(enabled=True).put("baseline", ("k",), self._baseline())
        backend = make_backend(tier2_url)
        (key,) = list(backend.iter_blobs())
        backend.put_blob(key, b"\x00torn")
        backend.close()
        cold = ArtifactCache(enabled=True)
        assert cold.get("baseline", ("k",)) is None
        assert cold.stats()["tier2"]["kinds"]["baseline"] == {"hits": 0, "misses": 1}
        # A recomputed value overwrites the torn blob for the next reader.
        cold.put("baseline", ("k",), self._baseline())
        assert ArtifactCache(enabled=True).get("baseline", ("k",)) == self._baseline()

    def test_target_resolution(self, monkeypatch, tmp_path):
        from repro.runtime.artifacts import artifacts_tier2_target

        monkeypatch.delenv("REPRO_ARTIFACTS_TIER2", raising=False)
        assert artifacts_tier2_target() is None
        monkeypatch.setenv("REPRO_ARTIFACTS_TIER2", "off")
        assert artifacts_tier2_target() is None
        monkeypatch.setenv("REPRO_ARTIFACTS_TIER2", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        monkeypatch.delenv("REPRO_STORE", raising=False)
        assert artifacts_tier2_target() == f"{tmp_path / 'store'}-artifacts"
        monkeypatch.setenv("REPRO_ARTIFACTS_TIER2", f"sqlite://{tmp_path}/a.db")
        assert artifacts_tier2_target() == f"sqlite://{tmp_path}/a.db"

    def test_stream_survives_a_process_restart(self, tier2_url):
        """A fresh cache (a restarted process, conceptually) serves the
        stream from tier 2 bit for bit instead of re-synthesizing."""
        built = []

        def build():
            built.append(1)
            arrivals = np.arange(4, dtype=np.float64) * 1.5
            works = np.arange(4, dtype=np.float64) + 0.25
            arrivals.flags.writeable = False
            works.flags.writeable = False
            return arrivals, works

        warm = ArtifactCache(enabled=True)
        first = warm.get_or_make("stream", ("k",), build)
        cold = ArtifactCache(enabled=True)  # empty tier 1, same tier 2
        second = cold.get_or_make("stream", ("k",), build)
        assert built == [1]
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])
        assert second[0].dtype == np.float64
        with pytest.raises(ValueError):
            second[0][0] = 0.0
        assert cold.stats()["tier2"]["kinds"]["stream"]["hits"] == 1

    def test_baseline_survives_a_process_restart(self, tier2_url):
        from repro.sim.mix_runner import BaselineResult

        baseline = BaselineResult(
            tail95_cycles=100.5, p95_cycles=90.25, latencies=(1.0, 2.5)
        )
        ArtifactCache(enabled=True).put("baseline", ("k",), baseline)
        cold = ArtifactCache(enabled=True)
        assert cold.get("baseline", ("k",)) == baseline

    def test_object_kinds_stay_process_local(self, tier2_url):
        """Kinds without an exact-round-trip codec never persist."""
        ArtifactCache(enabled=True).put("lc_workload", ("k",), object())
        cold = ArtifactCache(enabled=True)
        assert cold.get("lc_workload", ("k",)) is None
        assert "lc_workload" not in cold.stats()["tier2"]["kinds"]

    def test_disabled_cache_bypasses_tier2(self, tier2_url):
        from repro.sim.mix_runner import BaselineResult

        ArtifactCache(enabled=True).put(
            "baseline",
            ("k",),
            BaselineResult(tail95_cycles=1.0, p95_cycles=1.0, latencies=(1.0,)),
        )
        disabled = ArtifactCache(enabled=False)
        assert disabled.get("baseline", ("k",)) is None
        # The probe never happened: no tier-2 counters were recorded.
        assert disabled.stats()["tier2"]["kinds"] == {}

    def test_stats_report_the_tier(self, tier2_url):
        cache = ArtifactCache(enabled=True)
        assert cache.get("stream", ("missing",)) is None  # tier-2 miss
        tier2 = cache.stats()["tier2"]
        assert tier2["enabled"] is True
        assert tier2["url"] == tier2_url
        assert tier2["kinds"]["stream"]["misses"] == 1

    def test_no_tier_without_the_env_knob(self, monkeypatch):
        monkeypatch.delenv("REPRO_ARTIFACTS_TIER2", raising=False)
        cache = ArtifactCache(enabled=True)
        assert cache.get("stream", ("k",)) is None
        tier2 = cache.stats()["tier2"]
        assert tier2["enabled"] is False
        assert tier2["url"] is None

    def test_clear_resets_tier2_counters(self, tier2_url):
        cache = ArtifactCache(enabled=True)
        cache.get("stream", ("k",))
        cache.clear()
        assert cache.stats()["tier2"]["kinds"] == {}

    def test_real_stream_round_trips_through_tier2(self, tier2_url):
        """End to end: a MixRunner stream persisted by one process is
        served byte-identical to a fresh one — no re-synthesis."""
        wl = make_lc_workload("masstree")
        first = MixRunner(requests=40, seed=2014).stream(wl, 0.2, 0)
        reset_artifacts()  # "restart": tier 1 gone, tier 2 remains
        second = MixRunner(requests=40, seed=2014).stream(wl, 0.2, 0)
        assert first[0] is not second[0]
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])
        counts = get_artifacts().stats()["tier2"]["kinds"]["stream"]
        assert counts["hits"] >= 1


class TestExecutionIntegration:
    SPEC = RunSpec(
        mix=MixRef(lc_name="masstree", load=0.2, combo="nft"),
        policy=PolicySpec.of("ubik", slack=0.05),
        requests=40,
    )

    def test_execute_spec_identical_with_and_without_artifacts(self):
        warm = execute_spec(self.SPEC, None)
        with get_artifacts().disabled():
            cold = execute_spec(self.SPEC, None)
        assert warm == cold

    def test_second_evaluation_reuses_streams_and_baseline(self):
        execute_spec(self.SPEC, None)
        before = get_artifacts().stats()["kinds"]["stream"]["misses"]
        execute_spec(self.SPEC, None)
        after = get_artifacts().stats()["kinds"]
        assert after["stream"]["misses"] == before  # no new synthesis
        assert after["baseline"]["hits"] >= 1
        assert after["lc_workload"]["hits"] >= 1
        assert after["batch_mix"]["hits"] >= 1

    def test_session_artifact_stats(self):
        from repro.runtime.session import Session

        stats = Session(store=ResultStore(None)).artifact_stats()
        assert set(stats) == {"enabled", "entries", "kinds", "tier2"}


class TestCLIStats:
    def test_cache_stats_command(self, capsys):
        from repro.cli import main

        get_artifacts().get_or_make("demo", "k", lambda: 1)
        assert main(["cache", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "Artifact cache" in out
        assert "demo" in out

    def test_cache_stats_hints_when_empty(self, capsys):
        from repro.cli import main

        assert main(["cache", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "(empty)" in out

    def test_stats_flag_reports_a_command_own_reuse(
        self, capsys, monkeypatch, tmp_path
    ):
        """`repro run --stats` prints the counters the run itself
        accumulated — the per-process surface actually showing numbers."""
        from repro.cli import main

        # A fresh store so the run simulates instead of hitting a
        # record another test left in the session-wide test store.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        assert (
            main(
                [
                    "run",
                    "--lc",
                    "masstree",
                    "--requests",
                    "40",
                    "--policy",
                    "lru",
                    "--stats",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "kind: stream" in out
        assert "kind: baseline" in out
