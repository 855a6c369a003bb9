"""Property tests: the set-associative array == its kept naive reference.

The flat-array rewrite (integer LRU stamps, batched ``access_many``)
must be *access-for-access* identical to the original ``List`` +
``dict`` implementation preserved in :mod:`repro.cache.reference`:
same hits, same evictions, same final LRU state, across randomized
address streams and geometries.  These tests drive both generations
side by side and also cross-check the scalar path against the batched
path (batch boundaries must be invisible).
"""

import numpy as np
import pytest

from repro.cache.reference import NaiveSetAssociativeCache
from repro.cache.set_assoc import SetAssociativeCache


def _random_batches(rng, addrs):
    """Split a stream into random-sized batches (batching must be
    invisible, so sizes should not matter)."""
    out = []
    start = 0
    while start < len(addrs):
        size = int(rng.integers(1, 400))
        out.append(addrs[start : start + size])
        start += size
    return out


GEOMETRIES = [(64, 4), (256, 16), (1024, 8), (32, 32)]


class TestSetAssociativeEquivalence:
    @pytest.mark.parametrize("num_lines,ways", GEOMETRIES)
    def test_scalar_access_matches_naive(self, num_lines, ways):
        """Hits AND evictions agree access for access."""
        rng = np.random.default_rng(num_lines + ways)
        fast = SetAssociativeCache(num_lines, ways)
        naive = NaiveSetAssociativeCache(num_lines, ways)
        for addr in rng.integers(0, 4 * num_lines, size=6000).tolist():
            got = fast.access(addr)
            want = naive.access(addr)
            assert (got.hit, got.evicted) == (want.hit, want.evicted)
        assert (fast.hits, fast.misses) == (naive.hits, naive.misses)
        assert set(fast._where) == set(naive._where)

    @pytest.mark.parametrize("num_lines,ways", GEOMETRIES)
    def test_batched_access_matches_naive(self, num_lines, ways):
        """access_many == per-access naive loop, incl. final LRU state."""
        rng = np.random.default_rng(17 * num_lines + ways)
        fast = SetAssociativeCache(num_lines, ways)
        naive = NaiveSetAssociativeCache(num_lines, ways)
        stream = rng.integers(0, 3 * num_lines, size=8000)
        naive_hits = [naive.access(int(a)).hit for a in stream]
        fast_hits: list = []
        for batch in _random_batches(rng, stream):
            fast_hits.extend(fast.access_many(batch).tolist())
        assert fast_hits == naive_hits
        assert (fast.hits, fast.misses) == (naive.hits, naive.misses)
        assert fast.occupancy == naive.occupancy
        for index in range(fast.num_sets):
            assert fast.lru_order(index) == naive.lru_order(index)

    def test_scalar_and_batched_agree(self):
        """One cache driven scalar, one batched: identical end state."""
        rng = np.random.default_rng(5)
        stream = rng.integers(0, 300, size=4000)
        scalar = SetAssociativeCache(128, 8)
        batched = SetAssociativeCache(128, 8)
        scalar_hits = [scalar.access(int(a)).hit for a in stream]
        batched_hits: list = []
        for batch in _random_batches(rng, stream):
            batched_hits.extend(batched.access_many(batch).tolist())
        assert scalar_hits == batched_hits
        assert scalar.tags.tolist() == batched.tags.tolist()
        assert scalar.stamps.tolist() == batched.stamps.tolist()
