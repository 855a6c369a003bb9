"""Tests for repro.runtime.artifacts: the per-process artifact cache."""

import numpy as np
import pytest

from repro.runtime.artifacts import (
    ArtifactCache,
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
def _fresh_artifacts():
    """Each test starts and ends with an empty process-wide cache."""
    reset_artifacts()
    yield
    reset_artifacts()


class TestArtifactCache:
    def test_get_or_make_counts_misses_then_hits(self):
        cache = ArtifactCache()
        built = []

        def build():
            built.append(1)
            return "value"

        assert cache.get_or_make("demo", ("k",), build) == "value"
        assert cache.get_or_make("demo", ("k",), build) == "value"
        assert built == [1]
        counts = cache.stats()["kinds"]["demo"]
        assert (counts["hits"], counts["misses"], counts["entries"]) == (1, 1, 1)

    def test_get_put_roundtrip(self):
        cache = ArtifactCache()
        assert cache.get("demo", "k") is None  # counted miss
        cache.put("demo", "k", 42)
        assert cache.get("demo", "k") == 42
        counts = cache.stats()["kinds"]["demo"]
        assert (counts["hits"], counts["misses"], counts["entries"]) == (1, 1, 1)

    def test_kinds_namespace_equal_keys(self):
        cache = ArtifactCache()
        cache.put("stream", "k", 1)
        cache.put("baseline", "k", 2)
        assert cache.get("stream", "k") == 1
        assert cache.get("baseline", "k") == 2
        assert cache.stats()["entries"] == 2

    def test_counted_kind_has_no_entries(self):
        """``count`` surfaces sharing stored elsewhere (a replay group's
        riders) next to the stored kinds."""
        cache = ArtifactCache()
        cache.count("replay_group", hit=False)
        cache.count("replay_group", hit=True)
        cache.count("replay_group", hit=True)
        assert cache.stats() == {
            "entries": 0,
            "kinds": {"replay_group": {"hits": 2, "misses": 1, "entries": 0}},
        }

    def test_stats_report_entries_and_kinds(self):
        cache = ArtifactCache()
        cache.get_or_make("b", "k", lambda: 1)
        cache.get_or_make("a", "k", lambda: 2)
        stats = cache.stats()
        assert set(stats) == {"entries", "kinds"}
        assert list(stats["kinds"]) == ["a", "b"]

    def test_clear_resets_entries_and_counters(self):
        cache = ArtifactCache()
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

    def test_reset_cache_still_produces_identical_streams(self):
        wl = make_lc_workload("shore")
        cached = MixRunner(requests=40, seed=2014).stream(wl, 0.2, 0)
        reset_artifacts()
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

    def test_baseline_keyed_on_requests_seed_warmup(self):
        """Runners differing in a measurement knob never alias two
        baselines in the one process-wide cache."""
        wl = make_lc_workload("masstree")
        runner = MixRunner(requests=40, seed=2014)
        a = runner.baseline(wl, 0.2)
        other = MixRunner(requests=44, seed=2014).baseline(wl, 0.2)
        b = MixRunner(requests=40, seed=2015).baseline(wl, 0.2)
        c = MixRunner(requests=40, seed=2014, warmup_fraction=0.25).baseline(wl, 0.2)
        assert len({a.tail95_cycles, other.tail95_cycles, b.tail95_cycles}) == 3
        assert c != a
        # And the original is still served unchanged.
        assert runner.baseline(wl, 0.2) is a

    def test_artifact_hit_writes_through_to_a_fresh_store(self, tmp_path):
        """A warm process attached to an empty store must still persist
        the baseline document — byte-identical to a cold process's —
        else warm and cold store trees would diverge."""
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
        MixRunner(requests=40, seed=2014, store=cold_store).baseline(wl, 0.2)
        assert warm_doc.read_bytes() == cold_store.document_path(
            fingerprint
        ).read_bytes()

    def test_store_served_baseline_is_read_once(self, tmp_path, monkeypatch):
        """A baseline read from the store lands in the artifact cache:
        later runners in the process neither re-read nor re-parse it."""
        wl = make_lc_workload("masstree")
        store = ResultStore(tmp_path)
        computed = MixRunner(requests=40, seed=2014, store=store).baseline(wl, 0.2)
        reset_artifacts()  # drop the baseline artifact, keep the store
        reads = []
        original = ResultStore.get_baseline

        def spy(self, fingerprint):
            reads.append(fingerprint)
            return original(self, fingerprint)

        monkeypatch.setattr(ResultStore, "get_baseline", spy)
        served = [
            MixRunner(requests=40, seed=2014, store=store).baseline(wl, 0.2)
            for _ in range(3)
        ]
        assert len(reads) == 1
        assert served[0] == computed
        assert served[1] is served[0] and served[2] is served[0]
        counts = get_artifacts().stats()["kinds"]["baseline"]
        assert (counts["hits"], counts["misses"]) == (2, 1)


@pytest.fixture(params=["directory", "memory"])
def any_store(request, tmp_path):
    target = {
        "directory": str(tmp_path / "tree"),
        "memory": None,
    }[request.param]
    return ResultStore(target)


class TestBaselineResolution:
    """A baseline resolves in one order: artifact cache, store,
    simulation, and lands in every layer that lacked it."""

    WORKLOAD = make_lc_workload("masstree")

    @staticmethod
    def _count_simulations(monkeypatch):
        runs = []
        original = MixRunner.baseline_instance

        def spy(self, *args):
            runs.append(args)
            return original(self, *args)

        monkeypatch.setattr(MixRunner, "baseline_instance", spy)
        return runs

    def _runner(self, store):
        return MixRunner(requests=40, seed=2014, store=store)

    def test_miss_everywhere_simulates_once_and_fills_both(
        self, any_store, monkeypatch
    ):
        runs = self._count_simulations(monkeypatch)
        runner = self._runner(any_store)
        baseline = runner.baseline(self.WORKLOAD, 0.2)
        assert len(runs) == 3  # one per LC instance
        fingerprint = runner._baseline_fingerprint(self.WORKLOAD, 0.2)
        assert any_store.get_baseline(fingerprint) == baseline
        assert get_artifacts().get("baseline", fingerprint) is baseline

    def test_store_hit_fills_the_cache_without_simulating(
        self, any_store, monkeypatch
    ):
        stored = self._runner(any_store).baseline(self.WORKLOAD, 0.2)
        reset_artifacts()
        runs = self._count_simulations(monkeypatch)
        served = self._runner(any_store).baseline(self.WORKLOAD, 0.2)
        assert runs == []
        assert served == stored
        assert self._runner(None).baseline(self.WORKLOAD, 0.2) is served

    def test_cache_hit_writes_through_to_a_store_lacking_it(
        self, any_store, monkeypatch
    ):
        warm = self._runner(None).baseline(self.WORKLOAD, 0.2)
        runs = self._count_simulations(monkeypatch)
        runner = self._runner(any_store)
        assert runner.baseline(self.WORKLOAD, 0.2) is warm
        assert runs == []
        fingerprint = runner._baseline_fingerprint(self.WORKLOAD, 0.2)
        assert any_store.get_baseline(fingerprint) == warm


class TestExecutionIntegration:
    SPEC = RunSpec(
        mix=MixRef(lc_name="masstree", load=0.2, combo="nft"),
        policy=PolicySpec.of("ubik", slack=0.05),
        requests=40,
    )

    def test_execute_spec_identical_with_and_without_artifacts(self):
        execute_spec(self.SPEC, None)
        warm = execute_spec(self.SPEC, None)
        reset_artifacts()
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
