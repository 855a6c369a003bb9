"""Result containers for mix simulations."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from ..server.latency import tail_mean

__all__ = ["LCInstanceResult", "BatchAppResult", "MixResult"]


@dataclass
class LCInstanceResult:
    """Measured behaviour of one latency-critical instance."""

    name: str
    latencies: List[float] = field(default_factory=list)  # cycles, post-warmup
    requests_served: int = 0
    activations: int = 0
    deboosts: int = 0
    watermarks: int = 0

    def tail95(self) -> float:
        return tail_mean(self.latencies, 95.0)

    def mean_latency(self) -> float:
        return float(np.mean(self.latencies))


@dataclass
class BatchAppResult:
    """Measured behaviour of one batch app over the run."""

    name: str
    instructions: float = 0.0
    cycles: float = 0.0
    baseline_ipc: float = 0.0  # IPC with a private 2 MB LLC (steady)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def speedup(self) -> float:
        if self.baseline_ipc <= 0:
            return 0.0
        return self.ipc / self.baseline_ipc


@dataclass
class MixResult:
    """Everything measured from one six-app mix run."""

    mix_id: str
    policy: str
    lc_instances: List[LCInstanceResult]
    batch_apps: List[BatchAppResult]
    duration_cycles: float
    baseline_tail_cycles: float = 0.0

    def all_lc_latencies(self) -> np.ndarray:
        """Pooled latencies across the three LC instances.

        The paper reports per-mix tails over all instances together.
        """
        pools = [inst.latencies for inst in self.lc_instances if inst.latencies]
        if not pools:
            return np.empty(0)
        return np.concatenate([np.asarray(p) for p in pools])

    def tail95(self) -> float:
        return tail_mean(self.all_lc_latencies(), 95.0)

    def tail_degradation(self) -> float:
        """Tail latency vs the isolated 2 MB private baseline."""
        if self.baseline_tail_cycles <= 0:
            raise ValueError("baseline tail not set")
        return self.tail95() / self.baseline_tail_cycles

    def weighted_speedup(self) -> float:
        """Batch multiprogrammed speedup vs private LLCs (paper Sec 6)."""
        if not self.batch_apps:
            return 1.0
        return float(np.mean([b.speedup for b in self.batch_apps]))

    def summary(self) -> Dict[str, float]:
        return {
            "tail_degradation": self.tail_degradation(),
            "weighted_speedup": self.weighted_speedup(),
            "duration_cycles": self.duration_cycles,
        }
