"""Tiny-scale tests for the sensitivity, ablation and extension experiments."""

import pytest

from repro.experiments.ablations import run_ablations
from repro.experiments.bandwidth_study import run_bandwidth_study
from repro.experiments.common import ExperimentScale
from repro.experiments.fig12_slack import run_fig12
from repro.experiments.fig13_schemes import run_fig13
from repro.experiments.scaleout import run_scaleout

TINY = ExperimentScale(
    requests=60,
    lc_names=("shore",),
    loads=(0.2,),
    combos=("nft",),
    mixes_per_combo=1,
)


class TestFig12Module:
    def test_entries_cover_slacks(self):
        entries = run_fig12(TINY, slacks=(0.0, 0.05))
        slacks = {e.slack for e in entries}
        assert slacks == {0.0, 0.05}
        for e in entries:
            assert e.worst_degradation >= e.average_degradation - 1e-9

    def test_strict_is_safe(self):
        entries = run_fig12(TINY, slacks=(0.0,))
        assert all(e.worst_degradation < 1.1 for e in entries)


class TestFig13Module:
    def test_five_schemes_reported(self):
        entries = run_fig13(TINY)
        schemes = {e.scheme for e in entries}
        assert schemes == {
            "WayPart SA16",
            "WayPart SA64",
            "Vantage SA16",
            "Vantage SA64",
            "Vantage Z4/52",
        }

    def test_zcache_at_least_as_safe_as_waypart16(self):
        entries = run_fig13(TINY)

        def worst(name):
            return max(e.worst_degradation for e in entries if e.scheme == name)

        assert worst("Vantage Z4/52") <= worst("WayPart SA16") + 1e-9


class TestAblationsModule:
    def test_four_variants(self):
        entries = run_ablations(TINY)
        variants = {e.variant for e in entries}
        assert variants == {"Ubik", "Ubik-noboost", "Ubik-nodeboost", "Ubik-exact"}

    def test_all_variants_complete(self):
        entries = run_ablations(TINY)
        assert all(e.average_speedup_pct > -50 for e in entries)
        assert all(e.worst_degradation > 0.5 for e in entries)


class TestScaleOutModule:
    def test_guarantees_scale(self):
        results = run_scaleout(core_counts=(6,), requests=60)
        by_policy = {r.policy: r for r in results}
        assert by_policy["StaticLC"].tail_degradation < 1.05
        assert by_policy["Ubik-5%"].tail_degradation < 1.10

    def test_odd_core_count_rejected(self):
        with pytest.raises(ValueError):
            run_scaleout(core_counts=(7,), requests=60)

    def test_requests_below_the_tail_floor_rejected(self):
        """The floor every tail metric has: one request per instance
        used to print a Tail from a single sample."""
        from repro.experiments.scaleout import ScaleoutSpec
        from repro.runtime import PolicySpec
        from repro.workloads.names import MIN_TAIL_REQUESTS

        policy = PolicySpec.of("ubik")
        ScaleoutSpec(cores=6, policy=policy, requests=MIN_TAIL_REQUESTS)
        for requests in (1, MIN_TAIL_REQUESTS - 1):
            with pytest.raises(
                ValueError, match=f"requests must be at least 20 .*got {requests}$"
            ):
                ScaleoutSpec(cores=6, policy=policy, requests=requests)

    @pytest.mark.parametrize(
        "cores, tail95, p95",
        [
            (4, "0x1.b67eb8c8b9c20p+23", "0x1.401500d06f7d6p+23"),
            (6, "0x1.8d67bc6e19b05p+23", "0x1.3905d64bd27c3p+23"),
        ],
        ids=["4-cores", "6-cores"],
    )
    def test_baseline_pool_is_pinned(self, cores, tail95, p95):
        """Every LC instance runs alone, in index order, into one pool:
        the pooled tail and p95 are pinned bit for bit."""
        from repro.sim.study_runner import _scaleout_baseline

        identity = {
            "cores": cores,
            "lc_name": "shore",
            "load": 0.2,
            "requests": 20,
            "seed": 21,
        }
        pooled = _scaleout_baseline(None, identity)
        assert tuple(float.hex(value) for value in pooled) == (tail95, p95)

    def test_rides_the_result_store(self, tmp_path):
        from repro.runtime import ResultStore, Session

        first = run_scaleout(
            core_counts=(6,),
            requests=60,
            session=Session(store=ResultStore(tmp_path)),
        )
        store = ResultStore(tmp_path)
        stats = store.stats()
        assert stats["by_kind"]["scaleout"] == 2
        assert stats["by_kind"]["scaleout_baseline"] == 1
        assert set(stats["by_kind"]) == {"scaleout", "scaleout_baseline"}
        again = run_scaleout(
            core_counts=(6,), requests=60, session=Session(store=store)
        )
        assert again == first


def _baseline_identity(cores, seed=21):
    return {
        "cores": cores,
        "lc_name": "shore",
        "load": 0.2,
        "requests": 20,
        "seed": seed,
    }


def _instance_latencies(cores, instance, seed=21):
    from repro.sim.study_runner import scaleout_baseline_instance

    result = scaleout_baseline_instance(
        lc_name="shore",
        load=0.2,
        requests=20,
        seed=seed,
        cores=cores,
        instance=instance,
    )
    return [float(x) for x in result.latencies]


class TestScaleoutBaseline:
    """The scaleout baseline is one loop over the LC instances, run
    alone and pooled in index order, stored once per machine size."""

    @pytest.mark.parametrize("cores", [4, 6])
    def test_pool_is_the_instance_loop(self, cores):
        from repro.server.latency import percentile_latency, tail_mean
        from repro.sim.study_runner import _scaleout_baseline

        pooled = []
        for instance in range(cores // 2):
            pooled.extend(_instance_latencies(cores, instance))
        expected = (tail_mean(pooled, 95.0), percentile_latency(pooled, 95.0))
        assert _scaleout_baseline(None, _baseline_identity(cores)) == expected

    def test_instances_do_not_depend_on_call_order(self):
        forward = [_instance_latencies(6, instance) for instance in range(3)]
        backward = [_instance_latencies(6, instance) for instance in (2, 1, 0)]
        assert backward[::-1] == forward

    def test_each_instance_replays_its_own_stream(self):
        streams = [tuple(_instance_latencies(6, instance)) for instance in range(3)]
        assert len(set(streams)) == 3

    @pytest.mark.parametrize("engine", ["directory", "memory"])
    def test_stored_summary_serves_without_simulating(
        self, engine, tmp_path, monkeypatch
    ):
        from repro.runtime import ResultStore
        from repro.sim import study_runner

        target = {
            "directory": str(tmp_path / "tree"),
                "memory": None,
        }[engine]
        store = ResultStore(target)
        identity = _baseline_identity(4)
        first = study_runner._scaleout_baseline(store, identity)
        assert tuple(float.hex(value) for value in first) == (
            "0x1.b67eb8c8b9c20p+23",
            "0x1.401500d06f7d6p+23",
        )

        def refuse(**_):
            raise AssertionError("a stored baseline was simulated again")

        monkeypatch.setattr(study_runner, "scaleout_baseline_instance", refuse)
        # A new handle on a directory store reads the file; a memory
        # store can only be read through itself.
        fresh = ResultStore(store.share_target()) if store.persistent else store
        assert study_runner._scaleout_baseline(fresh, identity) == first
        assert fresh.stats()["by_kind"] == {"scaleout_baseline": 1}

    def test_one_summary_per_machine_size_and_seed(self):
        from repro.runtime import ResultStore
        from repro.sim.study_runner import _scaleout_baseline

        store = ResultStore(None)
        for identity in (
            _baseline_identity(4),
            _baseline_identity(6),
            _baseline_identity(4, seed=22),
            _baseline_identity(4),
        ):
            _scaleout_baseline(store, identity)
        assert store.stats()["by_kind"] == {"scaleout_baseline": 3}


class TestBandwidthModule:
    def test_monotone_degradation(self):
        points = run_bandwidth_study(
            peaks=(1e9, 90.0), requests=60, lc_name="specjbb"
        )
        by_policy = {}
        for p in points:
            by_policy.setdefault(p.policy, []).append(p.tail_degradation)
        for policy, tails in by_policy.items():
            assert tails[1] >= tails[0] - 0.02, policy

    def test_rides_the_result_store(self, tmp_path):
        from repro.runtime import ResultStore, Session

        first = run_bandwidth_study(
            peaks=(1e9,),
            requests=60,
            session=Session(store=ResultStore(tmp_path)),
        )
        store = ResultStore(tmp_path)
        stats = store.stats()
        assert stats["by_kind"]["bandwidth"] == 2
        assert stats["by_kind"]["baseline"] == 1
        again = run_bandwidth_study(
            peaks=(1e9,), requests=60, session=Session(store=store)
        )
        assert again == first


class TestEnginesRetiredFromExperiments:
    """Scaleout and bandwidth are declarative now: the experiment
    modules build specs and hand them to the session; only the sim
    layer (``repro.sim.study_runner``) drives ``MixEngine``."""

    @pytest.mark.parametrize(
        "module", ["scaleout", "bandwidth_study"]
    )
    def test_no_direct_mix_engine(self, module):
        import inspect
        import importlib

        source = inspect.getsource(
            importlib.import_module(f"repro.experiments.{module}")
        )
        assert "MixEngine" not in source
        assert "TaskSpec" in source
