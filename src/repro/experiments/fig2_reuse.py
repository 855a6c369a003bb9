"""Figure 2: LLC access breakdown by cross-request reuse distance.

Trace-driven characterization of performance inertia: each app's
synthetic address trace is run through a set-associative LRU cache at
(scaled) 2 MB and 8 MB capacities, and each hit is classified by how
many requests ago its line was last touched (0 = same request, 1 = one
request ago, ..., 8+ = eight or more).  Expected shapes (Section 3.4):

* more than half of hits come from lines last touched by *earlier*
  requests — taking space from idle LC apps hurts;
* the 8 MB cache shows lower miss rates and deeper cross-request reuse
  than the 2 MB cache — bigger caches mean more inertia;
* APKI ordering: moses > specjbb > masstree > shore > xapian.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from ..cache.set_assoc import SetAssociativeCache
from ..units import mb_to_lines
from ..workloads.latency_critical import make_lc_workload
from ..workloads.trace import generate_request_trace, lc_trace_config

__all__ = ["ReuseBreakdown", "reuse_breakdown", "run_fig2"]

#: Reuse classes: hits 0..7 requests ago, then "8+", then misses.
NUM_CLASSES = 9


@dataclass(frozen=True)
class ReuseBreakdown:
    """Access breakdown for one app at one cache size."""

    name: str
    cache_mb: float
    apki: float
    hit_fractions: Tuple[float, ...]  # by requests-ago class (len 9)
    miss_fraction: float

    @property
    def cross_request_hit_fraction(self) -> float:
        """Hits to lines last touched by an earlier request, as a
        fraction of all hits."""
        total_hits = sum(self.hit_fractions)
        if total_hits == 0:
            return 0.0
        return sum(self.hit_fractions[1:]) / total_hits


def reuse_breakdown(
    lc_name: str,
    cache_mb: float,
    scale: float = 1.0 / 16.0,
    num_requests: int | None = None,
    ways: int = 16,
    seed: int = 11,
) -> ReuseBreakdown:
    """Run one app's trace through a scaled cache and classify hits.

    ``num_requests=None`` sizes the window adaptively: low-APKI apps
    (xapian) re-reference hot lines only once every ~100 requests, so
    the window must span several re-reference distances to observe
    their cross-request reuse, exactly as the paper's long runs do.
    """
    workload = make_lc_workload(lc_name)
    full_lines = mb_to_lines(cache_mb)
    lines = max(ways, int(full_lines * scale) // ways * ways)
    cache = SetAssociativeCache(lines, ways)
    config = lc_trace_config(workload, full_lines, scale=scale)
    if num_requests is None:
        shared_per_request = max(
            1.0, config.accesses_per_request * config.shared_fraction
        )
        reref_distance = config.hot_lines / shared_per_request
        num_requests = int(min(max(64, 6 * reref_distance), 512))
    rng = np.random.default_rng(seed)
    requests = generate_request_trace(config, num_requests, rng)

    last_touch: Dict[int, int] = {}
    class_counts = np.zeros(NUM_CLASSES, dtype=np.int64)
    misses = 0
    total = 0
    warmup = max(8, num_requests // 8)
    top_class = NUM_CLASSES - 1
    for req_id, addrs in enumerate(requests):
        addr_list = np.asarray(addrs, dtype=np.int64).tolist()
        hit_mask = cache.access_many(addr_list)
        if req_id < warmup:
            # Warmup requests only feed the cache and the touch map.
            last_touch.update(dict.fromkeys(addr_list, req_id))
            continue
        total += len(addr_list)
        batch_hits = int(np.count_nonzero(hit_mask))
        misses += len(addr_list) - batch_hits
        get = last_touch.get
        for addr, hit in zip(addr_list, hit_mask.tolist()):
            if hit:
                ago = req_id - get(addr, req_id)
                class_counts[min(ago, top_class)] += 1
            last_touch[addr] = req_id
    if total == 0:
        raise RuntimeError("no post-warmup accesses")
    return ReuseBreakdown(
        name=lc_name,
        cache_mb=cache_mb,
        apki=workload.profile.apki,
        hit_fractions=tuple(float(c) / total for c in class_counts),
        miss_fraction=misses / total,
    )


def run_fig2(
    lc_names: Sequence[str],
    cache_sizes_mb: Sequence[float] = (2.0, 8.0),
    scale: float = 1.0 / 16.0,
    num_requests: int | None = None,
) -> Dict[Tuple[str, float], ReuseBreakdown]:
    """The full Figure 2: every app at every cache size."""
    out: Dict[Tuple[str, float], ReuseBreakdown] = {}
    for name in lc_names:
        for mb in cache_sizes_mb:
            out[(name, mb)] = reuse_breakdown(
                name, mb, scale=scale, num_requests=num_requests
            )
    return out
