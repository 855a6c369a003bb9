"""Tests for repro.cache.vantage: the properties Ubik relies on."""

import numpy as np
import pytest

from repro.cache.vantage import VantageCache


def fill_partition(cache, partition, count, base=0):
    for addr in range(base, base + count):
        cache.access(partition, addr)


class TestConfiguration:
    def test_validation(self):
        with pytest.raises(ValueError):
            VantageCache(0, 2)
        with pytest.raises(ValueError):
            VantageCache(16, 0)
        cache = VantageCache(16, 2)
        with pytest.raises(ValueError):
            cache.set_target(5, 4)
        with pytest.raises(ValueError):
            cache.set_target(0, -1)

    def test_targets_roundtrip(self):
        cache = VantageCache(64, 2)
        cache.set_target(0, 40)
        assert cache.target(0) == 40


class TestGrowthTransient:
    def test_partition_grows_one_line_per_miss(self):
        """Paper Section 5.1: an under-target partition grows by one
        line per miss and suffers ~no evictions until it reaches its
        target."""
        cache = VantageCache(1024, 2, candidates=52, seed=0)
        cache.set_target(0, 256)
        cache.set_target(1, 768)
        fill_partition(cache, 1, 1024, base=10_000)  # pressure from p1
        start = cache.actual_size(0)
        misses_before = int(cache.misses[0])
        fill_partition(cache, 0, 200)  # 200 cold misses
        grown = cache.actual_size(0) - start
        new_misses = int(cache.misses[0]) - misses_before
        assert grown == new_misses  # exactly one line per miss

    def test_under_target_partition_rarely_loses_lines(self):
        cache = VantageCache(2048, 2, candidates=52, seed=2)
        cache.set_target(0, 512)
        cache.set_target(1, 1536)
        fill_partition(cache, 0, 300)  # p0 under target (300 < 512)
        # Heavy streaming from p1 must not displace p0's lines.
        fill_partition(cache, 1, 8000, base=50_000)
        assert cache.under_target_evictions[0] <= 8000 * 0.01

    def test_over_target_partition_shrinks_under_pressure(self):
        cache = VantageCache(1024, 2, candidates=52, seed=3)
        cache.set_target(0, 512)
        cache.set_target(1, 512)
        fill_partition(cache, 0, 1024)  # p0 overfills while p1 empty
        assert cache.actual_size(0) == 1024
        cache.set_target(0, 256)  # downsize p0
        fill_partition(cache, 1, 2000, base=30_000)
        # p1's insertions demote p0 toward its new target.
        assert cache.actual_size(0) <= 300

    def test_partition_sizes_sum_to_occupancy(self):
        cache = VantageCache(256, 3, seed=1)
        cache.set_target(0, 100)
        cache.set_target(1, 100)
        cache.set_target(2, 56)
        for p in range(3):
            fill_partition(cache, p, 200, base=p * 10_000)
        assert sum(cache.partition_sizes()) == cache.occupancy


class TestIsolation:
    def test_partition_hit_isolation(self):
        """A partition at target keeps its working set despite a
        streaming co-runner — Vantage's interference guarantee."""
        cache = VantageCache(1024, 2, candidates=52, seed=4)
        cache.set_target(0, 256)
        cache.set_target(1, 768)
        # p0 warms a working set that fits its target.
        for _ in range(3):
            fill_partition(cache, 0, 200)
        hits_before = int(cache.hits[0])
        # p1 streams 20k cold lines.
        fill_partition(cache, 1, 20_000, base=100_000)
        # p0's set still hits.
        fill_partition(cache, 0, 200)
        new_hits = int(cache.hits[0]) - hits_before
        assert new_hits >= 190  # ~all of the 200 re-accesses hit

    def test_miss_ratio_accounting(self):
        cache = VantageCache(64, 2, seed=0)
        cache.set_target(0, 32)
        cache.set_target(1, 32)
        fill_partition(cache, 0, 16)
        fill_partition(cache, 0, 16)  # re-touch: hits
        assert cache.partition_miss_ratio(0) == pytest.approx(0.5)
        assert cache.partition_miss_ratio(1) == 0.0


class TestCandidateArray:
    """The R-candidate array under the partitions: a miss fills a free
    slot first, else evicts among R uniform candidate slots, so with
    one partition Vantage is a zcache-style array that evicts the LRU
    of its candidates."""

    def test_candidates_validation(self):
        with pytest.raises(ValueError):
            VantageCache(16, 1, candidates=0)

    def test_candidates_clamped_to_capacity(self):
        cache = VantageCache(8, 1, candidates=52)
        assert cache.candidates == 8

    def test_miss_then_hit(self):
        cache = VantageCache(16, 1)
        assert not cache.access(0, 5).hit
        assert cache.access(0, 5).hit
        assert 5 in cache

    def test_fills_before_evicting(self):
        cache = VantageCache(16, 1)
        for addr in range(16):
            assert cache.access(0, addr).evicted is None
        assert cache.occupancy == 16
        evicted = cache.access(0, 99).evicted
        assert evicted in range(16)
        assert evicted not in cache

    def test_occupancy_never_exceeds_capacity(self):
        cache = VantageCache(16, 2, seed=0)
        cache.set_target(0, 8)
        cache.set_target(1, 8)
        for addr in range(1000):
            cache.access(addr % 2, addr)
            assert cache.occupancy <= 16
        assert cache.occupancy == 16
        assert sum(cache.partition_sizes()) == 16

    def test_replacement_prefers_older_lines(self):
        """52 of 64 slots as candidates approximate LRU: a hot set
        touched between cold insertions is never evicted."""
        cache = VantageCache(64, 1, candidates=52, seed=1)
        fill_partition(cache, 0, 64)
        hot = range(8)
        for cold in range(100, 400):
            for addr in hot:
                cache.access(0, addr)
            cache.access(0, cold)
        assert all(addr in cache for addr in hot)

    def test_miss_ratio_statistic(self):
        cache = VantageCache(32, 1, seed=0)
        rng = np.random.default_rng(0)
        for addr in rng.integers(0, 64, size=2000).tolist():
            cache.access(0, addr)
        # The working set is twice the capacity: far from 0 and from 1.
        assert 0.05 < cache.partition_miss_ratio(0) < 0.8

    def test_determinism_by_seed(self):
        def run(seed):
            cache = VantageCache(32, 2, candidates=8, seed=seed)
            cache.set_target(0, 24)
            cache.set_target(1, 8)
            rng = np.random.default_rng(7)
            return [
                cache.access(addr % 2, addr)
                for addr in rng.integers(0, 100, size=500).tolist()
            ]

        assert run(3) == run(3)
        assert run(3) != run(4)


class _NaiveVantage:
    """The two-stage victim rule of :class:`VantageCache`, written for
    clarity: a miss takes the lowest free slot, else draws R candidate
    slots and evicts the least recently used candidate of an
    over-target partition, else of an at-target one, else of any."""

    def __init__(self, num_lines, num_partitions, candidates, seed):
        self.rng = np.random.default_rng(seed)
        self.slots = [None] * num_lines  # (addr, partition, last use)
        self.candidates = min(candidates, num_lines)
        self.targets = [0] * num_partitions
        self.under_target_evictions = [0] * num_partitions
        self.clock = 0

    def sizes(self):
        sizes = [0] * len(self.targets)
        for slot in self.slots:
            if slot is not None:
                sizes[slot[1]] += 1
        return sizes

    def access(self, partition, addr):
        self.clock += 1
        for index, slot in enumerate(self.slots):
            if slot is not None and slot[0] == addr:
                self.slots[index] = (addr, slot[1], self.clock)
                return True, None
        evicted = None
        if None in self.slots:
            index = self.slots.index(None)
        else:
            sizes = self.sizes()
            picks = self.rng.integers(0, len(self.slots), size=self.candidates)

            def oldest(keep):
                kept = [p for p in picks.tolist() if keep(self.slots[p][1])]
                return min(kept, key=lambda p: self.slots[p][2]) if kept else None

            index = oldest(lambda q: sizes[q] > self.targets[q])
            if index is None:
                index = oldest(lambda q: sizes[q] >= self.targets[q])
            if index is None:
                index = oldest(lambda q: True)
            evicted, owner, __ = self.slots[index]
            if sizes[owner] < self.targets[owner]:
                self.under_target_evictions[owner] += 1
        self.slots[index] = (addr, partition, self.clock)
        return False, evicted


class TestVictimSelection:
    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_streams_and_targets_match_the_rule(self, seed):
        """Random accessors and random retargeting: every access's hit
        and victim, the partition sizes and the counters equal the
        rule's, candidate draw for candidate draw."""
        rng = np.random.default_rng(seed)
        num_lines = int(rng.choice([16, 64, 128]))
        partitions = int(rng.integers(1, 5))
        candidates = int(rng.choice([4, 16, 52]))
        cache = VantageCache(num_lines, partitions, candidates=candidates, seed=seed)
        naive = _NaiveVantage(num_lines, partitions, candidates, seed)
        for _ in range(6):
            targets = rng.multinomial(num_lines, [1 / partitions] * partitions)
            for part, lines in enumerate(targets.tolist()):
                cache.set_target(part, lines)
                naive.targets[part] = lines
            for addr in rng.integers(0, 3 * num_lines, size=400).tolist():
                part = int(rng.integers(0, partitions))
                got = cache.access(part, addr)
                assert (got.hit, got.evicted) == naive.access(part, addr)
        assert cache.partition_sizes() == naive.sizes()
        assert cache.under_target_evictions.tolist() == naive.under_target_evictions

    def test_over_target_lines_go_before_older_at_target_lines(self):
        """The first stage: while an over-target partition holds
        candidates, an at-target partition loses nothing, however old
        its lines."""
        cache = VantageCache(1024, 2, candidates=52, seed=5)
        cache.set_target(0, 512)
        cache.set_target(1, 256)
        fill_partition(cache, 0, 512)  # oldest lines, exactly at target
        fill_partition(cache, 1, 5000, base=100_000)  # over target
        assert cache.actual_size(0) == 512
        assert all(addr in cache for addr in range(512))

    def test_every_victim_counts_when_all_partitions_are_under_target(self):
        """The last stage: with targets above capacity no candidate is
        at or over target, and each eviction is an under-target one."""
        cache = VantageCache(16, 2, candidates=8, seed=6)
        cache.set_target(0, 16)
        cache.set_target(1, 16)
        fill_partition(cache, 0, 8)
        fill_partition(cache, 1, 8, base=100)
        fill_partition(cache, 1, 6, base=200)
        assert int(cache.under_target_evictions.sum()) == 6

    def test_hits_do_not_transfer_ownership(self):
        cache = VantageCache(64, 2, seed=0)
        cache.access(0, 7)
        assert cache.access(1, 7).hit
        assert cache.partition_sizes() == [1, 0]
        assert (int(cache.hits[1]), int(cache.misses[1])) == (1, 0)

    def test_resizing_moves_no_lines(self):
        """A new target takes effect on later misses only: setting it
        evicts, moves and invalidates nothing."""
        cache = VantageCache(64, 2, seed=0)
        cache.set_target(0, 48)
        cache.set_target(1, 16)
        fill_partition(cache, 0, 48)
        fill_partition(cache, 1, 16, base=1000)
        cache.set_target(0, 8)
        cache.set_target(1, 56)
        assert cache.partition_sizes() == [48, 16]
        assert all(addr in cache for addr in range(48))
        assert int(cache.under_target_evictions.sum()) == 0
