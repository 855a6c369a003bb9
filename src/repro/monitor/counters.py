"""Basic per-core performance counters.

The Ubik runtime derives its model inputs (the paper's ``c``, ``p`` and
``Taccess``) from ordinary performance counters plus the UMON and MLP
profiler.  This module provides the counter bundle and those derived
quantities.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PerfCounters"]


@dataclass
class PerfCounters:
    """Accumulated cycles / instructions / LLC accesses / LLC misses."""

    cycles: float = 0.0
    instructions: float = 0.0
    accesses: float = 0.0
    misses: float = 0.0

    def add(
        self,
        cycles: float = 0.0,
        instructions: float = 0.0,
        accesses: float = 0.0,
        misses: float = 0.0,
    ) -> None:
        """Accumulate one observation window."""
        if min(cycles, instructions, accesses, misses) < 0:
            raise ValueError("counter increments must be non-negative")
        if misses > accesses + 1e-9:
            raise ValueError("misses cannot exceed accesses")
        self.cycles += cycles
        self.instructions += instructions
        self.accesses += accesses
        self.misses += misses

    def merge(self, other: "PerfCounters") -> "PerfCounters":
        """Sum of two counter bundles (returns a new bundle)."""
        return PerfCounters(
            cycles=self.cycles + other.cycles,
            instructions=self.instructions + other.instructions,
            accesses=self.accesses + other.accesses,
            misses=self.misses + other.misses,
        )

    def reset(self) -> None:
        """Zero all counters (end of a reconfiguration interval)."""
        self.cycles = 0.0
        self.instructions = 0.0
        self.accesses = 0.0
        self.misses = 0.0

    # ------------------------------------------------------------------
    # Derived quantities (paper Section 5.1 worked example)
    # ------------------------------------------------------------------
    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def apki(self) -> float:
        if not self.instructions:
            return 0.0
        return self.accesses / self.instructions * 1000.0

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def access_interval(self) -> float:
        """Average cycles between LLC accesses (``Taccess``)."""
        return self.cycles / self.accesses if self.accesses else float("inf")

    def hit_interval(self, miss_penalty: float) -> float:
        """The paper's ``c``: ``Taccess - p*M`` from raw counters."""
        if miss_penalty < 0:
            raise ValueError("penalty must be non-negative")
        if not self.accesses:
            return float("inf")
        return max(0.0, self.access_interval() - self.miss_ratio * miss_penalty)
