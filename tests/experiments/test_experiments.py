"""Tests for the experiment modules (small scales)."""

import numpy as np
import pytest

from repro.experiments.common import (
    ExperimentScale,
    format_table,
    scaled_mix_specs,
)
from repro.experiments.fig1_load_latency import load_latency_curve
from repro.experiments.fig1b_service_cdf import run_fig1b, service_time_cdf
from repro.experiments.fig2_reuse import reuse_breakdown
from repro.experiments.sweep import run_policy_sweep
from repro.experiments.utilization import run_utilization
from repro.runtime.spec import PolicySpec

TINY = ExperimentScale(
    requests=60,
    lc_names=("masstree",),
    loads=(0.2,),
    combos=("nft",),
    mixes_per_combo=1,
)


class TestScale:
    def test_default_grid_size(self):
        scale = ExperimentScale()
        specs = scaled_mix_specs(scale)
        # 5 LC x 2 loads x 6 combos x 1 mix = 60
        assert len(specs) == 60

    def test_combo_filter(self):
        specs = scaled_mix_specs(TINY)
        assert len(specs) == 1
        assert specs[0].batch_combo.startswith("nft")

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentScale(requests=5)
        with pytest.raises(ValueError):
            ExperimentScale(lc_names=("redis",))

    def test_format_table(self):
        text = format_table(["a", "b"], [[1, 2], [3, 4]], title="T")
        assert "T" in text
        assert "3" in text


class TestFig1:
    def test_load_latency_monotone(self):
        points = load_latency_curve("masstree", loads=(0.2, 0.6), requests=80)
        assert points[1].tail95_ms > points[0].tail95_ms
        assert all(p.tail95_ms > p.mean_ms for p in points)

    def test_service_cdf_shape(self):
        cdf = service_time_cdf("xapian")
        assert cdf.value_at(0.0) == pytest.approx(0.0, abs=0.01)
        assert cdf.value_at(cdf.grid_ms[-1]) > 0.99
        assert cdf.p95_ms > cdf.mean_ms

    def test_run_fig1b_all_apps(self):
        cdfs = run_fig1b(["masstree", "shore"])
        assert set(cdfs) == {"masstree", "shore"}
        # masstree near-constant vs shore multi-modal.
        assert (
            cdfs["masstree"].p95_ms / cdfs["masstree"].mean_ms
            < cdfs["shore"].p95_ms / cdfs["shore"].mean_ms
        )


class TestFig2:
    def test_inertia_signature(self):
        r = reuse_breakdown("specjbb", 2.0, num_requests=48)
        assert sum(r.hit_fractions) + r.miss_fraction == pytest.approx(1.0)
        assert r.cross_request_hit_fraction > 0.3

    def test_bigger_cache_less_misses_more_reuse(self):
        r2 = reuse_breakdown("shore", 2.0, num_requests=48)
        r8 = reuse_breakdown("shore", 8.0, num_requests=48)
        assert r8.miss_fraction < r2.miss_fraction
        assert r8.cross_request_hit_fraction >= r2.cross_request_hit_fraction


class TestSweep:
    def test_sweep_records_and_cache(self):
        policies = (
            PolicySpec.of("static_lc", label="StaticLC"),
            PolicySpec.of("ubik", label="Ubik", slack=0.05),
        )
        sweep = run_policy_sweep(TINY, policies=policies)
        assert len(sweep.records) == 2  # 1 spec x 2 policies
        again = run_policy_sweep(TINY, policies=policies)
        assert again is sweep  # memoized

    def test_sweep_accessors(self):
        policies = (PolicySpec.of("static_lc", label="StaticLC"),)
        sweep = run_policy_sweep(TINY, policies=policies)
        assert sweep.policies() == ["StaticLC"]
        degr = sweep.sorted_degradations("StaticLC", "lo")
        assert degr.size == 1
        assert np.isfinite(sweep.average_speedup("StaticLC", "lo"))

    def test_utilization_estimates(self):
        estimates = run_utilization(TINY)
        # LRU pinned at the paper's 10%; partitioned schemes higher
        # when safe.
        if "LRU" in estimates:
            assert estimates["LRU"].utilization == pytest.approx(0.10)

    def test_utilization_without_a_low_load_fails_before_simulating(
        self, forbid_evaluation
    ):
        forbid_evaluation()
        high_only = ExperimentScale(
            requests=60, lc_names=("masstree",), loads=(0.6,), combos=("nft",)
        )
        with pytest.raises(ValueError, match=r"loads must include one at most 0\.4"):
            run_utilization(high_only)
