"""Tests for repro.cache.set_assoc."""

import pytest

from repro.cache.set_assoc import SetAssociativeCache


class TestBasics:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(0, 4)
        with pytest.raises(ValueError):
            SetAssociativeCache(16, 0)
        with pytest.raises(ValueError):
            SetAssociativeCache(10, 4)  # not a multiple of ways

    def test_geometry(self):
        cache = SetAssociativeCache(64, 4)
        assert cache.num_sets == 16
        assert cache.ways == 4

    def test_miss_then_hit(self):
        cache = SetAssociativeCache(16, 4)
        assert not cache.access(5).hit
        assert cache.access(5).hit
        assert 5 in cache

    def test_counts(self):
        cache = SetAssociativeCache(16, 4)
        cache.access(1)
        cache.access(1)
        cache.access(2)
        assert cache.hits == 1
        assert cache.misses == 2
        assert cache.miss_ratio == pytest.approx(2 / 3)

    def test_occupancy_grows_to_capacity(self):
        cache = SetAssociativeCache(16, 4)
        for addr in range(16):
            cache.access(addr)
        assert cache.occupancy == 16
        assert len(cache) == 16


class TestLRUReplacement:
    def test_lru_victim_within_set(self):
        # One set of 2 ways: addresses mapping to set 0 of a 2-set cache.
        cache = SetAssociativeCache(4, 2)  # 2 sets
        cache.access(0)  # set 0
        cache.access(2)  # set 0
        cache.access(0)  # touch 0: now 2 is LRU
        result = cache.access(4)  # set 0, evicts 2
        assert result.evicted == 2
        assert 0 in cache
        assert 2 not in cache

    def test_hit_refreshes_recency(self):
        cache = SetAssociativeCache(2, 2)  # 1 set, 2 ways
        cache.access(0)
        cache.access(1)
        cache.access(0)  # 1 is now LRU
        assert cache.access(2).evicted == 1

    def test_stack_property(self):
        """A bigger cache's contents always include a smaller one's hits."""
        small = SetAssociativeCache(16, 16)  # fully associative
        big = SetAssociativeCache(64, 64)
        import numpy as np

        rng = np.random.default_rng(3)
        small_hits = big_hits = 0
        for addr in rng.integers(0, 40, size=2000):
            small_hits += small.access(int(addr)).hit
            big_hits += big.access(int(addr)).hit
        assert big_hits >= small_hits

    def test_flush(self):
        cache = SetAssociativeCache(16, 4)
        cache.access(1)
        cache.flush()
        assert cache.occupancy == 0
        assert cache.misses == 0
        assert 1 not in cache

    def test_working_set_that_fits_always_hits(self):
        cache = SetAssociativeCache(64, 4)
        for _ in range(5):
            for addr in range(32):
                cache.access(addr)
        # After the first cold pass, everything hits (no conflicts at
        # 2x headroom and uniform mapping).
        assert cache.hits == 4 * 32


class TestBatchedAccess:
    def test_access_many_hit_mask(self):
        import numpy as np

        cache = SetAssociativeCache(16, 4)
        hits = cache.access_many(np.array([5, 5, 6, 5]))
        assert hits.dtype == np.bool_
        assert hits.tolist() == [False, True, False, True]
        assert cache.hits == 2 and cache.misses == 2

    def test_access_many_equals_scalar_sequence(self):
        import numpy as np

        rng = np.random.default_rng(12)
        stream = rng.integers(0, 64, size=800)
        batched = SetAssociativeCache(32, 4)
        scalar = SetAssociativeCache(32, 4)
        mask = batched.access_many(stream)
        want = [scalar.access(int(a)).hit for a in stream]
        assert mask.tolist() == want
        assert batched.tags.tolist() == scalar.tags.tolist()
        assert batched.stamps.tolist() == scalar.stamps.tolist()
        for index in range(batched.num_sets):
            assert batched.lru_order(index) == scalar.lru_order(index)

    def test_flush_resets_batched_state(self):
        cache = SetAssociativeCache(16, 4)
        cache.access_many([1, 2, 3])
        cache.flush()
        assert cache.occupancy == 0
        assert cache.access_many([1]).tolist() == [False]


class TestReplacementOrderContract:
    """The flat-array rules (module docstring): a miss claims the
    lowest-indexed empty way of its set, else evicts the set's
    minimum-stamp line; the clock ticks once per access, and a hit
    restamps its line in place."""

    def test_empty_ways_claimed_lowest_index_first(self):
        cache = SetAssociativeCache(8, 4)  # 2 sets
        for addr in (0, 2, 4):  # all map to set 0
            cache.access(addr)
        assert cache.tags.tolist() == [0, 2, 4, -1, -1, -1, -1, -1]

    def test_victim_is_minimum_stamp_in_set(self):
        cache = SetAssociativeCache(4, 4)  # 1 set, 4 ways
        for addr in (0, 1, 2, 3):
            cache.access(addr)
        cache.access(1)  # restamp 1: 0 is now the oldest
        assert cache.access(4).evicted == 0
        # Next-oldest is 2 (1 and 3 were touched later than it).
        assert cache.access(5).evicted == 2

    def test_eviction_stays_in_its_set_even_when_older_elsewhere(self):
        cache = SetAssociativeCache(4, 2)  # 2 sets
        cache.access(1)  # set 1: the oldest line in the cache
        cache.access(0)
        cache.access(2)  # set 0 is now full
        assert cache.access(4).evicted == 0
        assert 1 in cache

    def test_hit_restamps_in_place(self):
        cache = SetAssociativeCache(4, 4)
        for addr in (0, 1, 2):
            cache.access(addr)
        tags_before = cache.tags.tolist()
        assert cache.access(0).hit
        assert cache.tags.tolist() == tags_before
        assert cache.stamps.tolist()[:3] == [4, 2, 3]

    def test_stamps_are_each_lines_last_access(self):
        """Each resident line's stamp is the clock of its last access,
        so stamps are unique and the LRU victim is unambiguous."""
        import numpy as np

        cache = SetAssociativeCache(32, 4)
        last_use = {}
        stream = np.random.default_rng(5).integers(0, 80, size=600).tolist()
        for clock, addr in enumerate(stream, start=1):
            cache.access(addr)
            last_use[addr] = clock
        resident = [
            (tag, stamp)
            for tag, stamp in zip(cache.tags.tolist(), cache.stamps.tolist())
            if tag != -1
        ]
        assert len(resident) == cache.occupancy
        assert all(stamp == last_use[tag] for tag, stamp in resident)
        assert len({stamp for __, stamp in resident}) == len(resident)
