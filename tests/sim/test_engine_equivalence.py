"""The production replay engine vs the scalar oracle: the bit-identity wall.

Every partitioned replay the runtime runs goes through
:class:`~repro.sim.engine.MixEngine`: the cells of a sweep as one
replay group per mix (:meth:`~repro.sim.mix_runner.MixRunner.run_mix_group`),
isolated baselines, and the scaleout and bandwidth points.  The
heap-loop :class:`~repro.sim.reference.NaiveMixEngine` (``run_mix``) is
the oracle.  These tests require every production path to leave each
cell's latency pool, utilization counters, batch-app progress and final
fill state **bit-identical** (``==`` on raw floats, no tolerance) to
the oracle — at every group size, across all registry policies, loads,
seeds, heterogeneous-scheme groups, and the divergent de-boost and
watermark paths — and check that production never builds the oracle.  The group-planning rules and the ``replay_group`` counters
are pinned here too, and so is what a group shares: its baseline and
LC instance specs, while every cell's engine owns its memos.

The engine builds the app views and the ``lc_active``/``lc_boosted``
maps of a policy hook's context only when the hook reads them; the
oracle builds them for every hook.  ``TestEventContexts`` counts the
view and map builds of the shipped policies and holds a policy that
reads every view and map at every event (active, idle, de-boost,
watermark) to the oracle.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

import repro.runtime.work as work
import repro.sim.study_runner as study_runner
from repro.experiments.bandwidth_study import BandwidthSpec
from repro.experiments.scaleout import ScaleoutSpec
from repro.runtime import (
    MixRef,
    ResultStore,
    RunSpec,
    Session,
    get_artifacts,
    reset_artifacts,
)
from repro.core.ubik import UbikPolicy
from repro.monitor.miss_curve import MissCurve
from repro.policies.base import AppView
from repro.runtime.spec import PolicySpec, SchemeSpec
from repro.runtime.work import execute_in_worker, execute_spec, plan_groups
from repro.sim.config import CMPConfig
from repro.sim.engine import LCInstanceSpec, MixEngine
from repro.sim.mix_runner import LC_INSTANCES, MixRunner
from repro.sim.reference import NaiveMixEngine
from repro.workloads.latency_critical import LC_NAMES, LCWorkload, make_lc_workload
from repro.workloads.mixes import HIGH_LOAD, LOW_LOAD, make_mix_specs

LLC_LINES = CMPConfig().llc_lines

#: Every policy in the registry appears, several with schemes attached:
#: a replay group is heterogeneous by construction (differing decisions
#: over shared state are what a group compares), so the wall must hold
#: with boost/deboost (ubik), lookahead allocators (ucp, static_lc),
#: thrash-toggling (onoff), and the no-op baselines (fixed, lru)
#: replaying *in the same group*.
MIXED_ROSTER = (
    ("ubik", {"slack": 0.05}, "vantage_sa16"),
    ("ucp", {}, None),
    ("static_lc", {}, "waypart_sa16"),
    ("onoff", {}, None),
    ("ubik", {"slack": 0.0}, None),
    ("fixed", {}, "vantage_sa64"),
    ("lru", {}, None),
    ("ucp", {}, "vantage_sa16"),
)

#: A fourteen-cell roster, repeats included (two sweep cells differing
#: only in label replay the same policy twice).
WIDE_ROSTER = (
    ("ubik", {"slack": 0.0}, None),
    ("ubik", {"slack": 0.05}, "vantage_sa16"),
    ("ucp", {}, None),
    ("static_lc", {}, None),
    ("onoff", {}, "vantage_sa16"),
    ("fixed", {}, None),
    ("lru", {}, None),
    ("ubik", {"slack": 0.1}, None),
    ("ucp", {}, "waypart_sa16"),
    ("static_lc", {}, "vantage_sa64"),
    ("onoff", {}, None),
    ("ubik", {"slack": 0.05}, "waypart_sa64"),
    ("fixed", {}, "vantage_sa16"),
    ("ucp", {}, "vantage_sa64"),
)

#: The two policies the bandwidth and scaleout studies contrast.
STUDY_POLICIES = (PolicySpec.of("static_lc"), PolicySpec.of("ubik", slack=0.05))


def mix_spec(load=0.2, lc_name="masstree"):
    return make_mix_specs(
        lc_names=[lc_name], loads=[load], mixes_per_combo=1
    )[0]


def build_cells(roster):
    """Fresh policy/scheme objects — both are stateful controllers, so
    every arm (oracle, engine) must get its own."""
    return [
        (
            PolicySpec.of(name, **kwargs).build(),
            SchemeSpec.of(scheme).build(LLC_LINES) if scheme else None,
        )
        for name, kwargs, scheme in roster
    ]


def oracle_grid(runner, spec, roster):
    """The oracle: each cell replayed alone through scalar run_mix."""
    return [
        runner.run_mix(spec, policy, scheme=scheme)
        for policy, scheme in build_cells(roster)
    ]


def group_grid(runner, spec, roster):
    """The same cells replayed as one group on the production engine."""
    return runner.run_mix_group(spec, build_cells(roster))


def assert_identical(got, want):
    """Bit-identity of one result, field by field, then whole."""
    assert len(got.lc_instances) == len(want.lc_instances)
    for g_inst, o_inst in zip(got.lc_instances, want.lc_instances):
        assert g_inst.latencies == o_inst.latencies  # raw float ==
        assert g_inst.requests_served == o_inst.requests_served
        assert g_inst.activations == o_inst.activations
        assert g_inst.deboosts == o_inst.deboosts
        assert g_inst.watermarks == o_inst.watermarks
    for g_batch, o_batch in zip(got.batch_apps, want.batch_apps):
        assert g_batch.instructions == o_batch.instructions
        assert g_batch.cycles == o_batch.cycles
    assert got.duration_cycles == want.duration_cycles
    assert got == want  # every remaining field, exactly


def assert_cells_identical(engine_cells, oracle_cells):
    assert len(engine_cells) == len(oracle_cells)
    for got, want in zip(engine_cells, oracle_cells):
        assert_identical(got, want)


def oracle_twin(build, spec):
    """``build(spec)``'s engine, constructed as the heap-loop oracle."""
    saved = study_runner.MixEngine
    study_runner.MixEngine = NaiveMixEngine
    try:
        engine, __ = build(spec)
    finally:
        study_runner.MixEngine = saved
    assert type(engine) is NaiveMixEngine
    return engine


def assert_engines_agree(build, spec):
    """A study point on the production engine equals its oracle twin."""
    engine, __ = build(spec)
    assert type(engine) is MixEngine
    assert_identical(engine.run(), oracle_twin(build, spec).run())
    return engine


class TestGroupSizes:
    @pytest.mark.parametrize("size", [1, 2, 4, 8])
    def test_bit_identical_at_every_group_size(self, size):
        """A group of N cells equals N oracle runs — including the
        degenerate single-cell group."""
        runner = MixRunner(requests=40, seed=5)
        spec = mix_spec(load=0.2)
        roster = MIXED_ROSTER[:size]
        assert_cells_identical(
            group_grid(runner, spec, roster),
            oracle_grid(runner, spec, roster),
        )

    def test_wide_group_matches(self):
        runner = MixRunner(requests=40, seed=5)
        spec = mix_spec(load=0.2)
        assert_cells_identical(
            group_grid(runner, spec, WIDE_ROSTER),
            oracle_grid(runner, spec, WIDE_ROSTER),
        )


class TestGridAxes:
    @pytest.mark.parametrize("load", [0.2, 0.6])
    @pytest.mark.parametrize("seed", [5, 2014])
    def test_bit_identical_across_loads_and_seeds(self, load, seed):
        runner = MixRunner(requests=40, seed=seed)
        spec = mix_spec(load=load)
        roster = MIXED_ROSTER[:4]
        assert_cells_identical(
            group_grid(runner, spec, roster),
            oracle_grid(runner, spec, roster),
        )

    @pytest.mark.parametrize("lc_name", ["xapian", "moses"])
    def test_bit_identical_across_lc_workloads(self, lc_name):
        runner = MixRunner(requests=40, seed=5)
        spec = mix_spec(load=0.6, lc_name=lc_name)
        roster = MIXED_ROSTER[:4]
        assert_cells_identical(
            group_grid(runner, spec, roster),
            oracle_grid(runner, spec, roster),
        )

    def test_mixed_scheme_cells_match_exactly(self):
        """Scheme models stay out of the group key: cells with
        different (or no) schemes share one group, scoped per
        (curve, scheme) inside it, and must still match the oracle."""
        runner = MixRunner(requests=40, seed=5)
        spec = mix_spec(load=0.2)
        roster = (
            ("ubik", {"slack": 0.05}, None),
            ("ucp", {}, "vantage_sa16"),
            ("static_lc", {}, "waypart_sa16"),
            ("onoff", {}, "vantage_sa16"),
        )
        assert_cells_identical(
            group_grid(runner, spec, roster),
            oracle_grid(runner, spec, roster),
        )


class TestDivergentEvents:
    """Deboosts and watermark firings are the events where cells of one
    group diverge most; the engine must still match the oracle."""

    def test_watermark_firing_group_matches(self):
        runner = MixRunner(requests=60, seed=11)
        spec = mix_spec(load=0.5, lc_name="shore")
        roster = WIDE_ROSTER[:8]
        results = oracle_grid(runner, spec, roster)
        fired = sum(
            inst.watermarks for res in results for inst in res.lc_instances
        )
        assert fired > 0  # the config must actually exercise the path
        assert_cells_identical(group_grid(runner, spec, roster), results)

    def test_deboost_firing_wide_group_matches(self):
        runner = MixRunner(requests=60, seed=4)
        spec = mix_spec(load=0.4, lc_name="shore")
        results = oracle_grid(runner, spec, WIDE_ROSTER)
        deboosts = sum(
            inst.deboosts for res in results for inst in res.lc_instances
        )
        assert deboosts > 0  # the config must actually exercise the path
        assert_cells_identical(group_grid(runner, spec, WIDE_ROSTER), results)


#: The policy hooks an engine event calls.
EVENT_HOOKS = ("on_lc_active", "on_lc_idle", "on_deboost", "on_watermark")


#: The field order of a recorded view.
VIEW_FIELDS = [field.name for field in dataclasses.fields(AppView)]


class ViewRecordingUbik(UbikPolicy):
    """Ubik-with-slack whose hooks, interval ones included, read every
    field of every view through ``ctx.apps``, and the ``lc_active`` and
    ``lc_boosted`` maps, and record them before deciding."""

    def __init__(self):
        super().__init__(slack=0.05)
        hooks = EVENT_HOOKS + ("initialize", "on_interval")
        self.records = {hook: [] for hook in hooks}
        self.maps = {hook: [] for hook in hooks}

    def _record(self, hook, ctx, app_index):
        views = [
            tuple(
                value.float_tables if name == "curve" else value
                for name in VIEW_FIELDS
                for value in [getattr(view, name)]
            )
            for view in ctx.apps
        ]
        assert ctx.app(app_index) is ctx.apps[app_index]
        self.records[hook].append((ctx.now, app_index, views))
        self.maps[hook].append(
            (sorted(ctx.lc_active.items()), sorted(ctx.lc_boosted.items()))
        )

    def initialize(self, ctx):
        self._record("initialize", ctx, 0)
        return super().initialize(ctx)

    def on_interval(self, ctx):
        self._record("on_interval", ctx, 0)
        return super().on_interval(ctx)

    def on_lc_active(self, ctx, app_index):
        self._record("on_lc_active", ctx, app_index)
        return super().on_lc_active(ctx, app_index)

    def on_lc_idle(self, ctx, app_index):
        self._record("on_lc_idle", ctx, app_index)
        return super().on_lc_idle(ctx, app_index)

    def on_deboost(self, ctx, app_index):
        self._record("on_deboost", ctx, app_index)
        return super().on_deboost(ctx, app_index)

    def on_watermark(self, ctx, app_index):
        self._record("on_watermark", ctx, app_index)
        return super().on_watermark(ctx, app_index)


class TestEventContexts:
    @pytest.mark.parametrize(
        "name, kwargs",
        [("ubik", {"slack": 0.05}), ("onoff", {}), ("ucp", {}), ("static_lc", {})],
    )
    def test_views_are_built_only_for_interval_decisions(
        self, name, kwargs, monkeypatch
    ):
        """A shipped policy's event hooks read no view, so a cell builds
        views once at initialize and once per reconfiguration."""
        runner = MixRunner(requests=40, seed=11)
        spec = mix_spec(load=0.2, lc_name="shore")
        runner.baseline(spec.lc_workload, spec.load)  # no baseline engines below
        policy = PolicySpec.of(name, **kwargs).build()
        calls = {"views": 0, "interval": 0, "event": 0}
        make_views = MixEngine._make_views

        def spy(self):
            assert self.policy is policy
            calls["views"] += 1
            return make_views(self)

        def counted(hook, kind):
            def call(*args):
                calls[kind] += 1
                return hook(*args)

            return call

        monkeypatch.setattr(MixEngine, "_make_views", spy)
        policy.on_interval = counted(policy.on_interval, "interval")
        for hook in EVENT_HOOKS:
            setattr(policy, hook, counted(getattr(policy, hook), "event"))
        runner.run_mix_group(spec, [(policy, None)])
        assert calls["interval"] > 0 and calls["event"] > 0
        assert calls["views"] == 1 + calls["interval"]

    @pytest.mark.parametrize("slack", [0.0, 0.05])
    def test_ubik_events_build_no_maps(self, slack, monkeypatch):
        """Ubik's event hooks read only ``current_targets``: no event
        context builds ``lc_active`` or ``lc_boosted``, and the interval
        decisions still build them."""
        runner = MixRunner(requests=40, seed=11)
        spec = mix_spec(load=0.5, lc_name="shore")
        runner.baseline(spec.lc_workload, spec.load)  # no baseline engines below
        policy = PolicySpec.of("ubik", slack=slack).build()
        hook = ["none"]
        builds = Counter()
        calls = Counter()

        def spy(name):
            build = getattr(MixEngine, name)

            def call(self):
                builds[name, hook[0]] += 1
                return build(self)

            return call

        def tagged(method, kind):
            def call(*args):
                calls[kind] += 1
                hook[0] = kind
                try:
                    return method(*args)
                finally:
                    hook[0] = "none"

            return call

        for name in ("_lc_active", "_lc_boosted"):
            monkeypatch.setattr(MixEngine, name, spy(name))
        policy.initialize = tagged(policy.initialize, "interval")
        policy.on_interval = tagged(policy.on_interval, "interval")
        for name in EVENT_HOOKS:
            setattr(policy, name, tagged(getattr(policy, name), "event"))
        runner.run_mix_group(spec, [(policy, None)])
        assert calls["event"] > 0
        assert builds["_lc_active", "event"] == builds["_lc_boosted", "event"] == 0
        assert builds["_lc_active", "interval"] == calls["interval"]
        assert builds["_lc_boosted", "interval"] > 0
        assert set(hook for __, hook in builds) == {"interval"}

    def test_views_read_at_events_match_the_oracle(self):
        """Views and maps built when a hook first reads them equal the
        oracle's up-front ones at every hook, events and intervals, and
        so do the runs."""
        runner = MixRunner(requests=60, seed=11)
        spec = mix_spec(load=0.5, lc_name="shore")
        engine_policy = ViewRecordingUbik()
        (got,) = runner.run_mix_group(spec, [(engine_policy, None)])
        oracle_policy = ViewRecordingUbik()
        want = runner.run_mix(spec, oracle_policy)
        for hook in EVENT_HOOKS:
            assert engine_policy.records[hook], f"{hook} never fired"
        assert engine_policy.records == oracle_policy.records
        assert engine_policy.maps == oracle_policy.maps
        boosted = [
            flag
            for hook in EVENT_HOOKS
            for __, lc_boosted in engine_policy.maps[hook]
            for __, flag in lc_boosted
        ]
        assert True in boosted and False in boosted
        assert_identical(got, want)

    @pytest.mark.parametrize("lc_name, load", [("shore", 0.5), ("xapian", 0.2)])
    def test_interval_views_match_the_oracle(self, lc_name, load):
        """The one view builder gives the oracle's views at initialize
        and at every reconfiguration: the spec estimates until the first
        reconfiguration's decision is made, measured values after."""
        runner = MixRunner(requests=60, seed=11)
        spec = mix_spec(load=load, lc_name=lc_name)
        engine_policy = ViewRecordingUbik()
        (got,) = runner.run_mix_group(spec, [(engine_policy, None)])
        oracle_policy = ViewRecordingUbik()
        want = runner.run_mix(spec, oracle_policy)
        records = engine_policy.records
        assert len(records["initialize"]) == 1
        assert len(records["on_interval"]) > 1
        kind, idle = VIEW_FIELDS.index("kind"), VIEW_FIELDS.index("idle_fraction")

        def lc_idle_fractions(record):
            __, __, views = record
            return [view[idle] for view in views if view[kind] == "lc"]

        estimate = [1.0 - spec.load] * LC_INSTANCES
        assert lc_idle_fractions(records["initialize"][0]) == estimate
        assert lc_idle_fractions(records["on_interval"][0]) == estimate
        assert lc_idle_fractions(records["on_interval"][1]) != estimate
        assert records == oracle_policy.records
        assert_identical(got, want)


class TestFinalFillState:
    def test_final_fill_and_partition_state_identical(self):
        """Beyond the result documents: each cell's *final* fill state
        — resident lines, targets, effective targets, miss ratio per
        app — must agree exactly after the engines of a group replay
        and the oracle replay of the same roster."""
        spec = mix_spec(load=0.2)
        roster = MIXED_ROSTER[:4]

        def final_fill_states(engine_cls):
            runner = MixRunner(requests=40, seed=5)
            baseline = runner.baseline(spec.lc_workload, spec.load)
            lc_specs = runner._mix_lc_specs(spec, baseline)
            engines = [
                runner._engine(engine_cls, spec, lc_specs, policy, scheme)
                for policy, scheme in build_cells(roster)
            ]
            for engine in engines:
                engine.run()
            return [
                [
                    (
                        app.fill.resident,
                        app.fill.target,
                        app.fill.effective_target,
                        app.fill.miss_ratio(),
                    )
                    for app in engine.apps
                ]
                for engine in engines
            ]

        assert final_fill_states(MixEngine) == final_fill_states(NaiveMixEngine)


class TestIsolatedBaselines:
    """Every baseline instance (5 workloads x 2 loads x 3 seeds x 3
    instances) on the engine equals the oracle's isolated run."""

    @pytest.mark.parametrize("seed", [2014, 5, 77])
    @pytest.mark.parametrize("load", [LOW_LOAD, HIGH_LOAD])
    @pytest.mark.parametrize("lc_name", LC_NAMES)
    def test_baseline_instances_match_the_oracle(self, lc_name, load, seed):
        runner = MixRunner(requests=40, seed=seed)
        workload = make_lc_workload(lc_name)
        for instance in range(LC_INSTANCES):
            arrivals, works = runner.stream(workload, load, instance)
            oracle = NaiveMixEngine.isolated(
                LCInstanceSpec(
                    workload=workload,
                    arrivals=arrivals,
                    works=works,
                    deadline_cycles=1.0,
                    target_tail_cycles=1.0,
                    load=load,
                ),
                config=runner.config,
                target_lines=float(workload.target_lines),
                seed=seed + instance,
                warmup_fraction=runner.warmup_fraction,
                mix_id=f"baseline-{workload.name}",
            )
            got = runner.baseline_instance(workload, load, instance)
            assert got == oracle.run().lc_instances[0]


class TestStudyPoints:
    @pytest.mark.parametrize("seed", [31, 77])
    @pytest.mark.parametrize("policy", STUDY_POLICIES, ids=lambda p: p.name)
    @pytest.mark.parametrize("peak", [1e9, 160.0, 100.0, 70.0])
    def test_bandwidth_points_match_the_oracle(self, peak, policy, seed):
        spec = BandwidthSpec(
            peak_misses_per_kilocycle=peak, policy=policy, requests=40, seed=seed
        )
        engine = assert_engines_agree(study_runner.bandwidth_engine, spec)
        if peak < 1e9:
            # The arm is live: contention moved the penalties.
            assert all(
                app.miss_penalty > app.base_miss_penalty for app in engine.apps
            )

    @pytest.mark.parametrize("seed", [21, 77])
    @pytest.mark.parametrize("policy", STUDY_POLICIES, ids=lambda p: p.name)
    @pytest.mark.parametrize("cores", [6, 12, 24, 48])
    def test_scaleout_points_match_the_oracle(self, cores, policy, seed):
        spec = ScaleoutSpec(cores=cores, policy=policy, requests=40, seed=seed)
        engine = assert_engines_agree(study_runner.scaleout_engine, spec)
        assert len(engine.apps) == cores


class TestOnlyTheEngineRunsInProduction:
    """The oracle engine is for the walls and the bench only."""

    SPEC = RunSpec(
        mix=MixRef(lc_name="masstree", load=0.2, combo="nft"),
        policy=PolicySpec.of("ubik", slack=0.05),
        requests=30,
        seed=17,
    )

    @pytest.fixture
    def loops(self, monkeypatch):
        """Forbid building the oracle; count the engine's partitioned runs."""
        calls = {"engine": 0}
        engine_loop = MixEngine._run_partitioned

        def forbidden(self, *args, **kwargs):
            raise AssertionError("production built the oracle engine")

        def counted(self):
            calls["engine"] += 1
            return engine_loop(self)

        monkeypatch.setattr(NaiveMixEngine, "__init__", forbidden)
        monkeypatch.setattr(MixEngine, "_run_partitioned", counted)
        # Nothing may be served from a warm cache or worker store.
        monkeypatch.setattr(work, "_WORKER_STORES", {})
        reset_artifacts()
        yield calls
        reset_artifacts()

    def _session(self):
        return Session(store=ResultStore(None), jobs=1)

    def test_production_paths_never_reach_the_oracle(self, loops):
        runs = []

        def ran():
            runs.append(loops["engine"])
            loops["engine"] = 0

        specs = [
            RunSpec(mix=self.SPEC.mix, policy=policy, requests=30, seed=17)
            for policy in (PolicySpec.of("static_lc"), PolicySpec.of("ubik"))
        ]
        self._session().run_many(specs)
        ran()
        self._session().run(self.SPEC)
        ran()
        execute_in_worker(self.SPEC, None)
        ran()
        self._session().run(
            ScaleoutSpec(cores=6, policy=PolicySpec.of("ubik"), requests=30)
        )
        ran()
        self._session().run(
            BandwidthSpec(
                peak_misses_per_kilocycle=70.0,
                policy=PolicySpec.of("ubik"),
                requests=30,
            )
        )
        ran()
        reset_artifacts()
        MixRunner(requests=30, seed=17).baseline(make_lc_workload("shore"), 0.2)
        ran()
        # Each path simulated on the engine (none was a cache hit).
        assert all(count > 0 for count in runs), runs

    def test_execute_spec_is_the_oracle(self, loops):
        with pytest.raises(AssertionError, match="oracle engine"):
            execute_spec(self.SPEC, None)


class TestPlanGroups:
    def test_plan_groups_splits_unequal_keys(self):
        """Cells that differ in any group-key field split into distinct
        groups, first-appearance ordered, positions preserved."""
        keys = [("a", 1), ("b", 1), ("a", 1), ("a", 2), ("b", 1)]
        assert plan_groups(keys) == [[0, 2], [1, 4], [3]]

    def test_plan_groups_keeps_equal_keys_together(self):
        assert plan_groups([("a",)] * 4) == [[0, 1, 2, 3]]
        assert plan_groups([]) == []


class TestEngineMemos:
    def test_segment_tables_are_per_engine_and_per_curve(self, monkeypatch):
        """In one ``run_mix_group`` call, each engine's three LC fills
        share one segment table, its batch fills (distinct curves) have
        one each, and no table passes from one cell's engine to the
        next."""
        runner = MixRunner(requests=40, seed=5)
        spec = mix_spec(load=0.2)
        engines = []
        run = MixEngine.run

        def spy(self):
            engines.append(self)
            return run(self)

        runner.baseline(spec.lc_workload, spec.load)  # no baseline engines below
        monkeypatch.setattr(MixEngine, "run", spy)
        # Two cells without a scheme: equal curves and scheme.
        roster = (
            ("ubik", {"slack": 0.05}, None),
            ("ucp", {}, None),
            ("static_lc", {}, "vantage_sa16"),
        )
        runner.run_mix_group(spec, build_cells(roster))
        assert len(engines) == len(roster)
        tables = []
        for engine in engines:
            lc_tables = {id(app.fill.segments) for app in engine.lc_apps}
            batch_tables = [id(app.fill.segments) for app in engine.batch_apps]
            assert len({id(app.curve) for app in engine.lc_apps}) == 1
            assert len(lc_tables) == 1
            assert len({id(app.curve) for app in engine.batch_apps}) == 3
            assert len(set(batch_tables)) == 3
            assert not lc_tables & set(batch_tables)
            tables.append(lc_tables | set(batch_tables))
        for i, mine in enumerate(tables):
            for theirs in tables[i + 1:]:
                assert not mine & theirs

    def test_curve_calls_in_one_engine_run(self, monkeypatch):
        """One engine run computes each LC app's mean service time once,
        though the first interval's views read it at initialize and
        again at the first reconfiguration, and reads no curve through
        NumPy for it: the only ``MissCurve.__call__`` calls left are
        each Ubik rebuild's two grids per batch curve (the table's and
        Lookahead's)."""
        runner = MixRunner(requests=40, seed=11)
        spec = mix_spec(load=0.5, lc_name="shore")
        baseline = runner.baseline(spec.lc_workload, spec.load)
        lc_specs = runner._mix_lc_specs(spec, baseline)
        ((policy, scheme),) = build_cells((("ubik", {"slack": 0.05}, None),))
        engine = runner._engine(MixEngine, spec, lc_specs, policy, scheme)
        counts = Counter()

        def counted(cls, name, key):
            method = getattr(cls, name)

            def call(self, *args):
                counts[key] += 1
                if key == "views" and self._first_interval:
                    counts["first views"] += 1
                return method(self, *args)

            monkeypatch.setattr(cls, name, call)

        counted(MissCurve, "__call__", "curve calls")
        counted(LCWorkload, "mean_service_cycles", "mean service")
        counted(MixEngine, "_make_views", "views")
        engine.run()
        assert counts["first views"] == 2
        assert counts["mean service"] == LC_INSTANCES
        rebuilds = counts["views"]  # initialize and every reconfiguration
        assert counts["curve calls"] == 2 * len(engine.batch_apps) * rebuilds


class TestStreamStatistics:
    """Each LC app's mean and 95th-percentile accesses per request are
    ``np.mean`` and ``np.percentile(…, 95)`` of its stream, bit for bit.
    The oracle shares the engine's LC app, so the walls above cannot
    see these two drift; they are held to NumPy here, for every LC
    workload at both default loads and the default request count."""

    @pytest.mark.parametrize("load", [LOW_LOAD, HIGH_LOAD])
    @pytest.mark.parametrize("lc_name", LC_NAMES)
    def test_equal_numpy_on_every_lc_stream(self, lc_name, load):
        runner = MixRunner(requests=120, seed=2014)
        spec = mix_spec(load=load, lc_name=lc_name)
        lc_specs = runner._mix_lc_specs(spec, runner.baseline(spec.lc_workload, load))
        ((policy, scheme),) = build_cells((("lru", {}, None),))
        engine = runner._engine(MixEngine, spec, lc_specs, policy, scheme)
        assert len(engine.lc_apps) == LC_INSTANCES
        for app in engine.lc_apps:
            accesses = app.spec.works * app.spec.workload.profile.apki / 1000.0
            assert len(accesses) == 120
            assert float.hex(app.mean_req_accesses) == float.hex(
                float(np.mean(accesses))
            )
            assert float.hex(app.tail_req_accesses) == float.hex(
                float(np.percentile(accesses, 95))
            )

    @pytest.mark.parametrize("requests", [20, 127, 128, 129, 257])
    def test_equal_numpy_across_summation_blocks(self, requests):
        """Stream lengths on both sides of NumPy's 128-element pairwise
        summation block."""
        runner = MixRunner(requests=requests, seed=7)
        spec = mix_spec(load=LOW_LOAD, lc_name="xapian")
        lc_specs = runner._mix_lc_specs(spec, runner.baseline(spec.lc_workload, LOW_LOAD))
        ((policy, scheme),) = build_cells((("lru", {}, None),))
        engine = runner._engine(MixEngine, spec, lc_specs, policy, scheme)
        for app in engine.lc_apps:
            accesses = app.spec.works * app.spec.workload.profile.apki / 1000.0
            assert len(accesses) == requests
            assert app.mean_req_accesses == float(np.mean(accesses))
            assert app.tail_req_accesses == float(np.percentile(accesses, 95))


class TestReplayGroupCounters:
    def test_group_counts_one_miss_then_hits(self):
        """The first cell of a group looks its baseline and streams up
        (a ``replay_group`` miss); every later cell rides them (a hit)
        — surfaced through the same stats the CLI renders."""
        reset_artifacts()
        runner = MixRunner(requests=40, seed=5)
        group_grid(runner, mix_spec(load=0.2), MIXED_ROSTER[:4])
        kinds = get_artifacts().stats()["kinds"]
        assert kinds["replay_group"]["misses"] == 1
        assert kinds["replay_group"]["hits"] == 3
        reset_artifacts()
