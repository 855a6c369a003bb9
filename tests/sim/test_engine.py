"""Tests for repro.sim.engine: the event-driven mix simulator."""

import numpy as np
import pytest

from repro.policies.fixed import FixedPolicy
from repro.policies.lru import LRUPolicy
from repro.policies.onoff import OnOffPolicy
from repro.policies.static_lc import StaticLCPolicy
from repro.sim.config import CMPConfig
from repro.sim.engine import LCInstanceSpec, MixEngine
from repro.workloads.batch import make_batch_workload
from repro.workloads.latency_critical import make_lc_workload


def make_spec(name="masstree", load=0.2, requests=60, seed=0):
    workload = make_lc_workload(name)
    rng = np.random.default_rng(seed)
    works = np.asarray([workload.work.sample(rng) for _ in range(requests)])
    mean_service = workload.mean_service_cycles()
    gaps = rng.exponential(mean_service / load, size=requests)
    arrivals = np.cumsum(gaps)
    return LCInstanceSpec(
        workload=workload,
        arrivals=arrivals,
        works=works,
        deadline_cycles=5 * mean_service,
        target_tail_cycles=4 * mean_service,
        load=load,
    )


def make_engine(policy, lc_specs=None, batch=None, **kwargs):
    lc_specs = lc_specs or [make_spec()]
    if batch is None:
        batch = [make_batch_workload("f", seed=1), make_batch_workload("s", seed=2)]
    return MixEngine(
        lc_specs=lc_specs,
        batch_workloads=batch,
        policy=policy,
        config=CMPConfig(),
        seed=3,
        **kwargs,
    )


class TestBasicRuns:
    def test_all_requests_served(self):
        engine = make_engine(StaticLCPolicy())
        result = engine.run()
        assert result.lc_instances[0].requests_served == 60

    def test_latencies_positive_and_warmup_excluded(self):
        engine = make_engine(StaticLCPolicy(), lc_specs=[make_spec(requests=100)])
        result = engine.run()
        inst = result.lc_instances[0]
        assert len(inst.latencies) == 95  # 5% warmup excluded
        assert all(l > 0 for l in inst.latencies)

    def test_batch_progress_measured(self):
        engine = make_engine(StaticLCPolicy())
        result = engine.run()
        for batch in result.batch_apps:
            assert batch.instructions > 0
            assert batch.cycles == pytest.approx(result.duration_cycles, rel=0.01)

    def test_multiple_lc_instances(self):
        specs = [make_spec(seed=s) for s in range(3)]
        result = make_engine(StaticLCPolicy(), lc_specs=specs).run()
        assert len(result.lc_instances) == 3
        assert all(i.requests_served == 60 for i in result.lc_instances)

    def test_validation(self):
        with pytest.raises(ValueError):
            MixEngine([], [], StaticLCPolicy(), CMPConfig())
        with pytest.raises(ValueError):
            make_engine(StaticLCPolicy(), umon_noise=-1.0)
        with pytest.raises(ValueError):
            make_engine(StaticLCPolicy(), warmup_fraction=1.0)


class TestStreamValidation:
    """A stream the engine cannot replay fails when its spec is built,
    naming the field, instead of serving part of it, raising deep in a
    commit, or never returning."""

    @staticmethod
    def respec(arrivals=None, works=None):
        spec = make_spec(requests=40)
        return LCInstanceSpec(
            workload=spec.workload,
            arrivals=spec.arrivals if arrivals is None else arrivals,
            works=spec.works if works is None else works,
            deadline_cycles=spec.deadline_cycles,
            target_tail_cycles=spec.target_tail_cycles,
            load=spec.load,
        )

    def test_reversed_arrivals_rejected(self):
        arrivals = make_spec(requests=40).arrivals[::-1]
        with pytest.raises(ValueError, match="arrivals"):
            self.respec(arrivals=arrivals)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_arrivals_rejected(self, bad):
        arrivals = make_spec(requests=40).arrivals.copy()
        arrivals[-1] = bad
        with pytest.raises(ValueError, match="arrivals"):
            self.respec(arrivals=arrivals)

    def test_negative_work_rejected(self):
        works = make_spec(requests=40).works.copy()
        works[7] = -works[7]
        with pytest.raises(ValueError, match="works"):
            self.respec(works=works)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_work_rejected(self, bad):
        works = make_spec(requests=40).works.copy()
        works[7] = bad
        with pytest.raises(ValueError, match="works"):
            self.respec(works=works)

    def test_ties_and_zero_work_accepted(self):
        spec = make_spec(requests=40)
        arrivals = spec.arrivals.copy()
        arrivals[1] = arrivals[0]
        works = spec.works.copy()
        works[3] = 0.0
        engine = make_engine(
            StaticLCPolicy(), lc_specs=[self.respec(arrivals=arrivals, works=works)]
        )
        assert engine.run().lc_instances[0].requests_served == 40


class TestPolicyInteraction:
    def test_fixed_policy_latencies_match_queueing_model(self):
        """With a constant warm partition, the engine must reproduce
        plain M/G/1-FIFO behaviour exactly."""
        from repro.server.queueing import simulate_fixed_service
        from repro.cpu import OutOfOrderCore

        spec = make_spec(requests=80)
        workload = spec.workload
        engine = MixEngine(
            lc_specs=[spec],
            batch_workloads=[],
            policy=FixedPolicy({0: float(workload.target_lines)}),
            config=CMPConfig(),
            seed=0,
            umon_noise=0.0,
            warmup_fraction=0.0,
        )
        result = engine.run()
        core = OutOfOrderCore(200.0)
        p = float(workload.miss_curve(workload.target_lines))
        services = [w * core.cpi(workload.profile, p) for w in spec.works]
        expected = simulate_fixed_service(spec.arrivals, services)
        got = result.lc_instances[0].latencies
        want = [e.latency for e in expected]
        assert got == pytest.approx(want, rel=1e-6)

    def test_onoff_degrades_vs_static(self):
        """Cold restarts after idle must hurt under OnOff (inertia)."""
        spec_a = make_spec(name="specjbb", requests=120, seed=4)
        spec_b = make_spec(name="specjbb", requests=120, seed=4)
        static = make_engine(StaticLCPolicy(), lc_specs=[spec_a]).run()
        onoff = make_engine(OnOffPolicy(), lc_specs=[spec_b]).run()
        assert onoff.tail95() > static.tail95()

    def test_lru_mode_runs(self):
        result = make_engine(LRUPolicy()).run()
        assert result.lc_instances[0].requests_served == 60
        assert all(b.instructions > 0 for b in result.batch_apps)

    def test_deboost_events_fire_for_ubik(self):
        from repro.core.ubik import UbikPolicy

        specs = [make_spec(name="specjbb", requests=150, seed=s) for s in range(2)]
        result = make_engine(UbikPolicy(slack=0.0), lc_specs=specs).run()
        total_deboosts = sum(i.deboosts for i in result.lc_instances)
        assert total_deboosts > 0

    def test_deterministic_given_seed(self):
        a = make_engine(StaticLCPolicy(), lc_specs=[make_spec(seed=9)]).run()
        b = make_engine(StaticLCPolicy(), lc_specs=[make_spec(seed=9)]).run()
        assert a.lc_instances[0].latencies == b.lc_instances[0].latencies
        assert a.batch_apps[0].instructions == pytest.approx(
            b.batch_apps[0].instructions
        )
