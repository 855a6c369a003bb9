"""Trace-driven partitioned-cache simulation.

The mix engine is analytic; this module is its hardware-in-the-loop
counterpart: real address streams interleaved into a real
:class:`~repro.cache.vantage.VantageCache`, with per-app UMONs feeding
a partitioning policy's Lookahead, exactly the monitor -> controller ->
enforcement loop of paper Figure 3.  It has no timing model — it
measures *miss ratios* — and is used to validate that:

* UMON-measured curves drive Lookahead to sensible allocations on
  real streams (not just parametric curves);
* Vantage enforces those allocations with isolation;
* the closed loop reduces total misses versus static even splits.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from ..cache.vantage import VantageCache
from ..monitor.umon import UtilityMonitor
from ..policies.lookahead import lookahead_partition
from ..workloads.trace import ZipfSampler

__all__ = [
    "AccessGenerator",
    "ZipfWorkingSetGenerator",
    "ScanGenerator",
    "PhasedGenerator",
    "TraceApp",
    "TraceWindowStats",
    "TraceSimResult",
    "TraceDrivenSimulator",
]


class AccessGenerator(abc.ABC):
    """A source of line addresses for one application."""

    @abc.abstractmethod
    def next_batch(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Produce the app's next ``count`` line addresses."""


class ZipfWorkingSetGenerator(AccessGenerator):
    """Zipfian reuse over a fixed working set (cache-friendly apps)."""

    def __init__(self, working_set_lines: int, alpha: float = 0.6, base: int = 0):
        if working_set_lines < 1:
            raise ValueError("working set must be positive")
        self.base = base
        self._sampler = ZipfSampler(working_set_lines, alpha)

    def next_batch(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return self._sampler.sample(count, rng) + self.base


class ScanGenerator(AccessGenerator):
    """Sequential scan with no reuse (streaming apps)."""

    def __init__(self, base: int = 0):
        self._next = np.int64(base)

    def next_batch(self, count: int, rng: np.random.Generator) -> np.ndarray:
        out = np.arange(self._next, self._next + count, dtype=np.int64)
        self._next += count
        return out


class PhasedGenerator(AccessGenerator):
    """Alternates between two generators (phase-changing apps).

    Used to test that the closed loop *adapts*: when an app's working
    set changes, its UMON curve changes, and the next reconfiguration
    should reallocate.
    """

    def __init__(
        self,
        first: AccessGenerator,
        second: AccessGenerator,
        switch_after: int,
    ):
        if switch_after < 1:
            raise ValueError("switch_after must be positive")
        self.first = first
        self.second = second
        self.switch_after = switch_after
        self._produced = 0

    def next_batch(self, count: int, rng: np.random.Generator) -> np.ndarray:
        source = self.first if self._produced < self.switch_after else self.second
        self._produced += count
        return source.next_batch(count, rng)


@dataclass
class TraceApp:
    """One trace-driven application: a stream plus an access weight."""

    name: str
    generator: AccessGenerator
    weight: float = 1.0  # relative accesses per interleave round

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("weight must be positive")


@dataclass(frozen=True)
class TraceWindowStats:
    """Per-app statistics over one reconfiguration window."""

    window: int
    app: str
    accesses: int
    misses: int
    allocation_lines: int

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


@dataclass
class TraceSimResult:
    """All windows of one trace-driven run."""

    windows: List[TraceWindowStats] = field(default_factory=list)

    def for_app(self, app: str) -> List[TraceWindowStats]:
        return [w for w in self.windows if w.app == app]

    def total_misses(self) -> int:
        return sum(w.misses for w in self.windows)

    def final_allocations(self) -> Dict[str, int]:
        last: Dict[str, TraceWindowStats] = {}
        for w in self.windows:
            last[w.app] = w
        return {name: w.allocation_lines for name, w in last.items()}


class TraceDrivenSimulator:
    """Interleaved access streams over Vantage, managed by Lookahead.

    Parameters
    ----------
    cache_lines:
        Shared cache capacity.
    apps:
        The co-running applications.
    reconfig_accesses:
        Total accesses between controller invocations (the access-level
        analogue of the 50 ms interval).
    managed:
        If False, partitions are fixed at an even split (the static
        baseline the closed loop is compared against).
    """

    def __init__(
        self,
        cache_lines: int,
        apps: Sequence[TraceApp],
        reconfig_accesses: int = 20_000,
        managed: bool = True,
        candidates: int = 52,
        seed: int = 0,
        umon_ways: int = 16,
        umon_sets: int = 4,
    ):
        if not apps:
            raise ValueError("need at least one app")
        if reconfig_accesses < len(apps):
            raise ValueError("window too small for the app count")
        self.cache_lines = cache_lines
        self.apps = list(apps)
        self.reconfig_accesses = reconfig_accesses
        self.managed = managed
        self.rng = np.random.default_rng(seed)
        self.cache = VantageCache(
            cache_lines, len(apps), candidates=candidates, seed=seed
        )
        self.umons = [
            UtilityMonitor.for_cache(cache_lines, ways=umon_ways, sets=umon_sets)
            for _ in apps
        ]
        even = cache_lines // len(apps)
        for index in range(len(apps)):
            self.cache.set_target(index, even)
        # Address-space separation so streams never alias.
        self._bases = [i << 40 for i in range(len(apps))]

    # ------------------------------------------------------------------
    # Control loop
    # ------------------------------------------------------------------
    def _reconfigure(self) -> None:
        curves = []
        for umon in self.umons:
            if umon.sampled < 16:
                return  # not enough signal yet; keep current targets
            curves.append(umon.miss_curve(points=65))
        weights = [app.weight for app in self.apps]
        allocations = lookahead_partition(
            curves, weights, self.cache_lines, buckets=64
        )
        for index, lines in enumerate(allocations):
            self.cache.set_target(index, int(lines))
        for umon in self.umons:
            umon.reset()

    def run(self, windows: int) -> TraceSimResult:
        """Run ``windows`` reconfiguration windows; returns statistics."""
        if windows < 1:
            raise ValueError("need at least one window")
        result = TraceSimResult()
        total_weight = sum(app.weight for app in self.apps)
        for window in range(windows):
            window_hits = [0] * len(self.apps)
            window_misses = [0] * len(self.apps)
            # Interleave in small rounds to approximate concurrency.
            rounds = 50
            per_round = [
                max(1, int(self.reconfig_accesses * app.weight / total_weight / rounds))
                for app in self.apps
            ]
            for _ in range(rounds):
                for index, app in enumerate(self.apps):
                    addrs = app.generator.next_batch(per_round[index], self.rng)
                    addrs = addrs + self._bases[index]
                    # UMON and cache share no state, so feeding each a
                    # whole batch preserves per-access semantics while
                    # using the vectorized/batched hot paths.
                    self.umons[index].observe_many(addrs)
                    hit_mask = self.cache.access_many(index, addrs)
                    batch_hits = int(np.count_nonzero(hit_mask))
                    window_hits[index] += batch_hits
                    window_misses[index] += int(hit_mask.size) - batch_hits
            for index, app in enumerate(self.apps):
                result.windows.append(
                    TraceWindowStats(
                        window=window,
                        app=app.name,
                        accesses=window_hits[index] + window_misses[index],
                        misses=window_misses[index],
                        allocation_lines=self.cache.target(index),
                    )
                )
            if self.managed:
                self._reconfigure()
        return result
