"""Cross-substrate consistency: trace-driven arrays vs analytic models.

The mix engine substitutes behavioural models for hardware; these tests
validate the substitutions against the trace-driven reference
implementations, closing the loop the paper closes with zsim.
"""

import numpy as np
import pytest

from repro.cache.set_assoc import SetAssociativeCache
from repro.cache.vantage import VantageCache
from repro.monitor.miss_curve import MissCurve
from repro.monitor.umon import UtilityMonitor
from repro.sim.fill import FillState
from repro.workloads.trace import TraceConfig, ZipfSampler, generate_request_trace


class TestUMONMeasuresTrueCurve:
    """A UMON's sampled curve must track the cache's real miss ratios."""

    def test_umon_vs_fully_associative_cache(self):
        # Uniform popularity: address sampling is then unbiased (with
        # skewed popularity, whether the hottest lines land in the
        # sampled subset dominates the estimate — the "small UMON
        # sampling error" the paper guards against).
        rng = np.random.default_rng(0)
        addrs = rng.integers(0, 2000, size=60_000)

        umon = UtilityMonitor.for_cache(1024, ways=16, sets=4)
        for addr in addrs:
            umon.observe(int(addr))
        curve = umon.miss_curve(points=17)

        # Ground truth at one allocation: a fully-associative LRU cache
        # of the same size.
        cache = SetAssociativeCache(1024, 1024)
        for addr in addrs:
            cache.access(int(addr))
        measured = cache.miss_ratio
        predicted = float(curve(1024))
        assert predicted == pytest.approx(measured, abs=0.08)


class TestVantageMatchesFillModel:
    """The engine's one-line-per-miss growth law is exactly what the
    trace-driven Vantage cache exhibits."""

    def test_growth_trajectories_agree(self):
        # Trace: uniform accesses over a working set larger than the
        # partition target, so the miss ratio is predictable.
        capacity, target, working_set = 4096, 1024, 2048
        cache = VantageCache(capacity, 2, candidates=52, seed=1)
        cache.set_target(0, target)
        cache.set_target(1, capacity - target)
        # Fill partition 1 so the array is under pressure.
        for addr in range(10_000, 10_000 + capacity):
            cache.access(1, addr)

        rng = np.random.default_rng(2)
        misses = 0
        accesses = 4000
        for addr in rng.integers(0, working_set, size=accesses):
            if not cache.access(0, int(addr)).hit:
                misses += 1

        # Analytic model with the matching miss curve: at occupancy r,
        # a uniform working set of W lines hits with probability r/W.
        curve = MissCurve(
            [0, working_set, capacity], [1.0, 0.0, 0.0]
        )
        fill = FillState(curve, hit_interval=1.0, miss_penalty=0.0,
                         resident=0.0, target=target)
        __, __, modelled_misses = fill.advance_accesses(accesses)

        assert cache.actual_size(0) == pytest.approx(fill.resident, rel=0.1)
        assert misses == pytest.approx(modelled_misses, rel=0.15)


def _monitored_loop(managed: bool):
    """A reusing app (uniform over 700 lines) beside a streaming app on
    a 1024-line Vantage cache split evenly.  When ``managed``, each
    window's UMON curves go to Lookahead, whose allocations become the
    next window's targets.  Returns the cache and the last window's
    misses per app."""
    from repro.policies.lookahead import lookahead_partition

    capacity = 1024
    cache = VantageCache(capacity, 2, candidates=52, seed=4)
    for part in (0, 1):
        cache.set_target(part, capacity // 2)
    umons = [UtilityMonitor.for_cache(capacity) for _ in range(2)]
    rng = np.random.default_rng(5)
    scan = iter(range(10**7, 2 * 10**7))
    for _ in range(3):
        before = cache.misses.tolist()
        for reuse in rng.integers(0, 700, size=4000).tolist():
            for part, addr in ((0, reuse), (1, next(scan))):
                cache.access(part, addr)
                umons[part].observe(addr)
        if managed:
            curves = [umon.miss_curve() for umon in umons]
            targets = lookahead_partition(curves, [1.0, 1.0], capacity)
            for part, lines in enumerate(targets):
                cache.set_target(part, int(lines))
            for umon in umons:
                umon.reset()
    return cache, [now - then for now, then in zip(cache.misses.tolist(), before)]


class TestMonitoredPartitioning:
    """Monitor, controller and enforcement composed: UMON curves fed to
    Lookahead set Vantage targets, the loop Ubik closes in hardware."""

    def test_lookahead_on_umon_curves_starves_the_streaming_app(self):
        cache, __ = _monitored_loop(managed=True)
        assert cache.target(0) >= 700
        assert cache.target(0) > 2 * cache.target(1)
        assert cache.actual_size(0) >= 700

    def test_monitored_targets_beat_an_even_split(self):
        __, managed = _monitored_loop(managed=True)
        __, static = _monitored_loop(managed=False)
        # The scan misses on every access under any split.
        assert managed[1] == static[1] == 4000
        assert managed[0] < 0.25 * static[0]


class TestTraceStatistics:
    """Synthetic traces must respect their configured composition."""

    def test_shared_fraction_realized(self):
        config = TraceConfig(
            hot_lines=500,
            private_lines_per_request=20,
            accesses_per_request=200,
            shared_fraction=0.7,
        )
        rng = np.random.default_rng(3)
        requests = generate_request_trace(config, 30, rng)
        shared = sum(int((r < 500).sum()) for r in requests)
        total = sum(len(r) for r in requests)
        assert shared / total == pytest.approx(0.7, abs=0.02)

    def test_apki_scale_consistency(self):
        """Trace volume derives from the workload's APKI and work."""
        from repro.units import mb_to_lines
        from repro.workloads.latency_critical import make_lc_workload
        from repro.workloads.trace import lc_trace_config

        for name in ("moses", "specjbb"):
            workload = make_lc_workload(name)
            config = lc_trace_config(workload, mb_to_lines(2), scale=1.0)
            expected = workload.profile.accesses_for(workload.work.mean())
            assert config.accesses_per_request == pytest.approx(expected, rel=0.05)
