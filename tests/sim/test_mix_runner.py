"""Tests for repro.sim.mix_runner."""

import pytest

from repro.policies.static_lc import StaticLCPolicy
from repro.sim.mix_runner import MixRunner
from repro.workloads.latency_critical import make_lc_workload
from repro.workloads.mixes import make_mix_specs


@pytest.fixture(scope="module")
def runner():
    return MixRunner(requests=60, seed=5)


@pytest.fixture(scope="module")
def spec():
    return make_mix_specs(lc_names=["masstree"], loads=[0.2], mixes_per_combo=1)[0]


class TestBaselines:
    def test_baseline_metrics_ordered(self, runner):
        workload = make_lc_workload("masstree")
        baseline = runner.baseline(workload, 0.2)
        assert baseline.tail95_cycles >= baseline.p95_cycles > 0

    def test_second_baseline_call_is_served(self, runner):
        """The second call is served from the artifact cache."""
        workload = make_lc_workload("masstree")
        a = runner.baseline(workload, 0.2)
        b = runner.baseline(workload, 0.2)
        assert a is b

    def test_baseline_load_sensitivity(self, runner):
        """Queueing: higher load -> higher baseline tail (Fig 1a)."""
        workload = make_lc_workload("masstree")
        lo = runner.baseline(workload, 0.2)
        hi = runner.baseline(workload, 0.6)
        assert hi.tail95_cycles > lo.tail95_cycles

    def test_requests_validation(self):
        with pytest.raises(ValueError):
            MixRunner(requests=5)


class TestRunMix:
    def test_result_carries_baseline(self, runner, spec):
        result = runner.run_mix(spec, StaticLCPolicy())
        assert result.baseline_tail_cycles > 0
        assert result.tail_degradation() > 0
        assert len(result.lc_instances) == 3
        assert len(result.batch_apps) == 3

    def test_same_streams_across_policies(self, runner, spec):
        """Fixed-work methodology: request streams identical between
        policy runs so comparisons are sample-balanced."""
        a = runner.run_mix(spec, StaticLCPolicy())
        b = runner.run_mix(spec, StaticLCPolicy())
        assert a.lc_instances[0].latencies == b.lc_instances[0].latencies
