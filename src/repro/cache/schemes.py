"""Behavioural partitioning-scheme models for the mix engine (Fig 13).

The mix engine is analytic, so it consumes a *descriptor* of the
partitioning scheme's imperfections rather than a tag array:

* ``granularity_lines`` — the allocation quantum (one line for
  Vantage; one way's capacity for way-partitioning).
* ``fill_efficiency`` — range of the per-transient growth-rate
  multiplier.  Vantage on a zcache grows a partition by exactly one
  line per miss (efficiency 1.0, deterministic).  Way-partitioning
  claims a reassigned way only as the new owner misses in each set, so
  growth is slower and *pattern-dependent*: the engine draws an
  efficiency uniformly from this range at every idle->active transient.
  Crucially, Ubik's controller always plans with the Vantage model, so
  a scheme whose real transients are slower makes Ubik miss deadlines —
  exactly the paper's Figure 13 result.
* ``assoc_penalty`` — miss-ratio inflation for small allocations:
  a way-partitioned partition with ``w`` ways has associativity ``w``.
* ``forced_eviction_frac`` / ``eviction_jitter`` — soft-partitioning
  losses: Vantage on low-associativity set-associative arrays cannot
  always find demotion candidates and leaks lines from under-target
  partitions (steady deficit plus per-idle-period jitter).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SchemeModel",
    "vantage_zcache",
    "vantage_setassoc",
    "way_partitioning",
    "FIG13_SCHEMES",
]


@dataclass(frozen=True)
class SchemeModel:
    """Imperfection descriptor for one partitioning scheme + array."""

    name: str
    granularity_lines: int
    fill_efficiency: Tuple[float, float]
    assoc_ways_per_partition: float  # associativity at full allocation; 0 = n/a
    assoc_penalty_coeff: float  # miss multiplier = 1 + coeff / ways_allocated
    forced_eviction_frac: float  # steady resident deficit (fraction of target)
    eviction_jitter: float  # extra per-idle-period resident loss (uniform max)
    max_partitions: int = 0  # 0 = unlimited

    def __post_init__(self) -> None:
        low, high = self.fill_efficiency
        if not 0.0 < low <= high <= 1.0:
            raise ValueError("fill efficiency range must satisfy 0 < low <= high <= 1")
        if self.granularity_lines < 1:
            raise ValueError("granularity must be at least one line")
        if not 0.0 <= self.forced_eviction_frac < 1.0:
            raise ValueError("forced eviction fraction must be in [0, 1)")
        if not 0.0 <= self.eviction_jitter < 1.0:
            raise ValueError("eviction jitter must be in [0, 1)")

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------
    def quantize(self, lines: float) -> int:
        """Round an allocation to the scheme's quantum (floor, min 1)."""
        quanta = max(1, int(lines // self.granularity_lines))
        return quanta * self.granularity_lines

    def draw_fill_efficiency(self, rng: np.random.Generator) -> float:
        """Growth-rate multiplier for one partition-fill transient."""
        low, high = self.fill_efficiency
        if low == high:
            return low
        return float(rng.uniform(low, high))

    def miss_multiplier(self, allocation_lines: float, total_lines: float) -> float:
        """Associativity penalty at a given allocation.

        For way-partitioned arrays the partition's associativity equals
        its way count; small allocations inflate the miss ratio.
        """
        if self.assoc_penalty_coeff == 0.0 or allocation_lines <= 0:
            return 1.0
        way_lines = self.granularity_lines
        ways_allocated = max(1.0, allocation_lines / way_lines)
        return 1.0 + self.assoc_penalty_coeff / ways_allocated

    def effective_target(self, target_lines: float) -> float:
        """Lines a partition actually retains at steady state."""
        return target_lines * (1.0 - self.forced_eviction_frac)

    def draw_idle_loss(self, rng: np.random.Generator) -> float:
        """Fraction of resident lines additionally lost over an idle gap."""
        if self.eviction_jitter == 0.0:
            return 0.0
        return float(rng.uniform(0.0, self.eviction_jitter))


def vantage_zcache(llc_lines: int) -> SchemeModel:
    """Vantage on a 4-way 52-candidate zcache: the paper's default."""
    return SchemeModel(
        name="Vantage Z4/52",
        granularity_lines=1,
        fill_efficiency=(1.0, 1.0),
        assoc_ways_per_partition=52.0,
        assoc_penalty_coeff=0.0,
        forced_eviction_frac=0.0,
        eviction_jitter=0.0,
    )


def vantage_setassoc(llc_lines: int, ways: int) -> SchemeModel:
    """Vantage on a set-associative array: soft partitioning.

    With few ways Vantage loses its analytical guarantees; forced
    evictions leak lines from under-target partitions (paper Sec 7.3:
    SA16 hurts tails by up to 45%; SA64 behaves nearly like a zcache).
    """
    if ways not in (16, 64):
        raise ValueError("modelled configurations are 16 and 64 ways")
    if ways == 16:
        forced, jitter = 0.06, 0.15
    else:
        forced, jitter = 0.01, 0.03
    return SchemeModel(
        name=f"Vantage SA{ways}",
        granularity_lines=1,
        fill_efficiency=(1.0, 1.0),
        assoc_ways_per_partition=float(ways),
        assoc_penalty_coeff=0.0,
        forced_eviction_frac=forced,
        eviction_jitter=jitter,
    )


def way_partitioning(llc_lines: int, ways: int) -> SchemeModel:
    """Way-partitioning: coarse, slow, unpredictable transients."""
    if ways not in (16, 64):
        raise ValueError("modelled configurations are 16 and 64 ways")
    way_lines = max(1, llc_lines // ways)
    if ways == 16:
        fill = (0.25, 0.85)
        penalty = 0.45
    else:
        fill = (0.35, 0.95)
        penalty = 0.25
    return SchemeModel(
        name=f"WayPart SA{ways}",
        granularity_lines=way_lines,
        fill_efficiency=fill,
        assoc_ways_per_partition=float(ways),
        assoc_penalty_coeff=penalty,
        forced_eviction_frac=0.0,
        eviction_jitter=0.0,
        max_partitions=ways,
    )


def FIG13_SCHEMES(llc_lines: int):
    """The five scheme/array configurations of paper Figure 13."""
    return (
        way_partitioning(llc_lines, 16),
        way_partitioning(llc_lines, 64),
        vantage_setassoc(llc_lines, 16),
        vantage_setassoc(llc_lines, 64),
        vantage_zcache(llc_lines),
    )
