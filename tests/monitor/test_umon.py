"""Tests for repro.monitor.umon."""

import numpy as np
import pytest

from repro.monitor.umon import UtilityMonitor


def feed_working_set(umon, lines, passes=8, offset=0):
    """Loop over a working set of `lines` addresses."""
    for _ in range(passes):
        for addr in range(offset, offset + lines):
            umon.observe(addr)


class TestSampling:
    def test_only_sampled_addresses_counted(self):
        umon = UtilityMonitor(ways=4, sets=2, sample_shift=4, lines_per_way=8)
        feed_working_set(umon, 256, passes=2)
        # 1/16 sampling: roughly 32 of 512 accesses observed.
        assert 0 < umon.sampled < 512

    def test_sample_shift_zero_samples_everything(self):
        umon = UtilityMonitor(ways=4, sets=2, sample_shift=0, lines_per_way=8)
        feed_working_set(umon, 16, passes=1)
        assert umon.sampled == 16

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            UtilityMonitor(ways=0)
        with pytest.raises(ValueError):
            UtilityMonitor(sets=0)
        with pytest.raises(ValueError):
            UtilityMonitor(sample_shift=-1)
        with pytest.raises(ValueError):
            UtilityMonitor(lines_per_way=0)


class TestGeometry:
    @pytest.mark.parametrize("cache_lines, ways, sets", [(1024, 16, 4), (4096, 32, 8)])
    def test_for_cache_ways_cover_the_cache(self, cache_lines, ways, sets):
        umon = UtilityMonitor.for_cache(cache_lines, ways=ways, sets=sets)
        assert umon.lines_per_way * umon.ways == cache_lines
        # The sampled address space spread over the stacks is one way.
        assert (umon.sample_mask + 1) * umon.sets == umon.lines_per_way

    def test_for_cache_rejects_a_cache_smaller_than_the_monitor(self):
        with pytest.raises(ValueError):
            UtilityMonitor.for_cache(100, ways=32, sets=8)

    def test_stack_keeps_at_most_ways_tags(self):
        umon = UtilityMonitor(ways=4, sets=1, sample_shift=0, lines_per_way=1)
        for addr in range(5):  # 0 falls off the 4-deep stack
            umon.observe(addr)
        umon.observe(0)
        assert umon.miss_count == 6
        umon.observe(4)  # behind 0 only
        assert umon.way_hits.tolist() == [0, 1, 0, 0]


class TestMissCurve:
    def test_curve_reads_the_hit_counters(self):
        """A 4-line loop hits at stack depth 3 after its cold pass: the
        curve is 1 below 4 lines and the cold-miss share from there."""
        umon = UtilityMonitor(ways=8, sets=1, sample_shift=0, lines_per_way=1)
        feed_working_set(umon, 4, passes=10)
        assert umon.way_hits.tolist() == [0, 0, 0, 36, 0, 0, 0, 0]
        curve = umon.miss_curve(points=9)
        assert float(curve(3)) == pytest.approx(1.0)
        assert float(curve(4)) == pytest.approx(0.1)
        assert float(curve(8)) == pytest.approx(0.1)

    def test_small_working_set_hits_at_small_allocations(self):
        umon = UtilityMonitor(ways=8, sets=1, sample_shift=0, lines_per_way=4)
        feed_working_set(umon, 4, passes=50)
        curve = umon.miss_curve(points=33)
        # Working set of 4 lines fits in one monitored way's worth.
        assert curve(32) < 0.1

    def test_streaming_never_hits(self):
        umon = UtilityMonitor(ways=4, sets=1, sample_shift=0, lines_per_way=4)
        for addr in range(2000):
            umon.observe(addr)
        curve = umon.miss_curve(points=17)
        assert curve(16) > 0.95

    def test_curve_requires_samples(self):
        umon = UtilityMonitor()
        with pytest.raises(RuntimeError):
            umon.miss_curve()

    def test_curve_monotone(self):
        umon = UtilityMonitor(ways=8, sets=2, sample_shift=0, lines_per_way=16)
        rng = np.random.default_rng(1)
        zipf_like = rng.integers(0, 40, size=4000) ** 2 % 64
        for addr in zipf_like.tolist():
            umon.observe(addr)
        curve = umon.miss_curve(points=65)
        assert np.all(np.diff(curve.miss_ratios) <= 1e-12)

    def test_reset_clears_counters_keeps_tags(self):
        umon = UtilityMonitor(ways=4, sets=1, sample_shift=0, lines_per_way=4)
        feed_working_set(umon, 4, passes=10)
        umon.reset()
        assert umon.sampled == 0
        assert umon.miss_count == 0
        # Tags persist: next pass over the same set hits immediately.
        feed_working_set(umon, 4, passes=1)
        assert umon.way_hits.sum() == 4


class TestDeBoostCounters:
    def test_would_have_missed_counts_deep_hits(self):
        umon = UtilityMonitor(ways=4, sets=1, sample_shift=0, lines_per_way=10)
        # Warm 4 lines, mark, then access them in LRU order so each
        # hit lands at depth 3 (the deepest way).
        for addr in range(4):
            umon.observe(addr)
        umon.mark()
        for addr in range(4):
            umon.observe(addr)
        # With only 1 way's allocation (10 lines), depth-3 hits would
        # have been misses.
        assert umon.would_have_missed(10) > 0
        # With the full allocation, nothing extra would have missed.
        assert umon.would_have_missed(40) == 0

    def test_would_have_missed_clamps_to_the_monitored_ways(self):
        umon = UtilityMonitor(ways=2, sets=1, sample_shift=0, lines_per_way=4)
        for addr in (0, 1, 2):
            umon.observe(addr)
        umon.mark()
        umon.observe(1)  # a hit at depth 1
        umon.observe(9)  # a miss
        assert umon.would_have_missed(4) == 2
        # Beyond the monitor's 8 lines only real misses count.
        assert umon.would_have_missed(1000) == umon.misses_since_mark() == 1

    def test_misses_since_mark(self):
        umon = UtilityMonitor(ways=2, sets=1, sample_shift=0, lines_per_way=4)
        umon.observe(0)
        umon.mark()
        umon.observe(1)
        umon.observe(2)
        assert umon.misses_since_mark() == 2
