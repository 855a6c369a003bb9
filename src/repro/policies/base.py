"""Partitioning-policy interface shared by UCP, StaticLC, OnOff and Ubik.

A policy is the software controller of paper Figure 3.  In hardware it
reads UMON miss curves, the MLP profiler and performance counters;
here it reads the engine's modelled equivalents (see :class:`AppView`)
through a :class:`PolicyContext` and returns partition-size
:class:`Decision` objects.  The engine invokes it at coarse-grained
reconfiguration intervals and, for event-driven policies, at
latency-critical apps' idle/active transitions and Ubik's
de-boost/watermark interrupts.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..monitor.miss_curve import MissCurve

__all__ = ["AppView", "BoostPlan", "Decision", "PolicyContext", "Policy"]


@dataclass
class AppView:
    """What the policy can observe about one application.

    The engine models the monitors rather than running them.  The miss
    curve is the app's model curve with UMON-like sampling noise.
    ``hit_interval`` (the paper's ``c``) and ``miss_penalty`` (``M``)
    come from the core model (``core.hit_interval``/``core.miss_penalty``),
    with ``M`` scaled for memory-bandwidth contention.  Rates, idle
    fractions and latencies are measured over the last interval, and
    estimated from the specs before the first.
    """

    index: int
    name: str
    kind: str  # "lc" or "batch"
    curve: MissCurve
    apki: float
    hit_interval: float
    miss_penalty: float
    access_rate: float  # accesses per cycle, averaged over the last interval
    target_lines: float = 0.0  # LC QoS target allocation (s_active baseline)
    deadline_cycles: float = 0.0  # LC deadline (95p latency at target size)
    idle_fraction: float = 0.0  # LC fraction of time idle, last interval
    activation_rate: float = 0.0  # LC idle->active transitions per cycle
    recent_latencies: Tuple[float, ...] = ()
    target_tail_cycles: float = 0.0  # LC baseline tail-latency target
    accesses_per_request: float = 0.0  # LC average LLC accesses per request
    tail_accesses_per_request: float = 0.0  # LC p95 accesses per request

    def __post_init__(self) -> None:
        if self.kind not in ("lc", "batch"):
            raise ValueError(f"unknown app kind {self.kind!r}")

    @property
    def is_lc(self) -> bool:
        return self.kind == "lc"


@dataclass(frozen=True)
class BoostPlan:
    """Ubik's per-activation sizing plan, enforced by the engine.

    While the plan is armed, the engine's de-boost circuit compares the
    misses the request *would have* incurred at ``active_lines`` (the
    UMON-projected count) against actual misses; when the projection
    exceeds actuals by the guard, the transient's cost is repaid and
    the partition drops from ``boost_lines`` to ``active_lines``.

    ``watermark_factor`` arms the slack variant's low-watermark check:
    once the partition has filled to the boost size, actual misses
    exceeding the projection by this factor trigger a fallback to the
    conservative (no-slack) plan.
    """

    boost_lines: float
    active_lines: float
    guard_fraction: float = 0.02
    watermark_factor: Optional[float] = None

    def __post_init__(self) -> None:
        if self.boost_lines < self.active_lines:
            raise ValueError("boost size must be at least the active size")
        if self.guard_fraction < 0:
            raise ValueError("guard must be non-negative")
        if self.watermark_factor is not None and self.watermark_factor < 1.0:
            raise ValueError("watermark factor must be at least 1")


@dataclass
class Decision:
    """New partition targets (lines) and optional boost plans."""

    targets: Dict[int, float] = field(default_factory=dict)
    boost_plans: Dict[int, BoostPlan] = field(default_factory=dict)

    def merged_over(self, current: Dict[int, float]) -> Dict[int, float]:
        """Full target map: this decision overlaid on current targets."""
        merged = dict(current)
        merged.update(self.targets)
        return merged


@dataclass
class PolicyContext:
    """Snapshot of system state handed to every policy callback.

    The engine builds ``apps`` when the hook first reads them, directly
    or through ``lc_apps``, ``batch_apps`` or :meth:`app`; the views are
    the ones an up-front build would give, and a hook that reads only
    the maps builds none.
    """

    llc_lines: int
    apps: List[AppView]
    current_targets: Dict[int, float]
    now: float
    avg_batch_lines: float
    lc_active: Dict[int, bool]
    rng: np.random.Generator
    lc_boosted: Dict[int, bool] = field(default_factory=dict)

    @property
    def lc_apps(self) -> List[AppView]:
        return [a for a in self.apps if a.is_lc]

    @property
    def batch_apps(self) -> List[AppView]:
        return [a for a in self.apps if not a.is_lc]

    def app(self, index: int) -> AppView:
        for a in self.apps:
            if a.index == index:
                return a
        raise KeyError(f"no app with index {index}")


class Policy(abc.ABC):
    """Base class for LLC partitioning policies."""

    #: Human-readable policy name used in reports.
    name: str = "abstract"

    #: False for unmanaged LRU: the engine then models shared-cache
    #: occupancy competition instead of enforcing partitions.
    uses_partitioning: bool = True

    @abc.abstractmethod
    def initialize(self, ctx: PolicyContext) -> Decision:
        """Initial partition targets before the simulation starts."""

    def on_interval(self, ctx: PolicyContext) -> Optional[Decision]:
        """Coarse-grained periodic reconfiguration (every ~50 ms)."""
        return None

    def on_lc_idle(self, ctx: PolicyContext, app_index: int) -> Optional[Decision]:
        """A latency-critical app ran out of requests."""
        return None

    def on_lc_active(self, ctx: PolicyContext, app_index: int) -> Optional[Decision]:
        """A latency-critical app received work after being idle."""
        return None

    def on_deboost(self, ctx: PolicyContext, app_index: int) -> Optional[Decision]:
        """The de-boost circuit fired: transient cost repaid."""
        return None

    def on_watermark(self, ctx: PolicyContext, app_index: int) -> Optional[Decision]:
        """The slack low-watermark fired: request suffering excessively."""
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"
