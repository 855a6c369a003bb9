"""Extension: memory-bandwidth contention (paper future work).

The paper's engine models fixed-latency memory; its Section 6 notes
that bandwidth has no inertia and defers combining Ubik with bandwidth
partitioning.  This experiment supplies the motivating data: sweep the
memory channel's sustainable throughput and measure how tail latency
degrades under cache partitioning alone.

Expected shape: with generous bandwidth, Ubik and StaticLC hold tails
at ~1.0x; as the channel tightens, *both* degrade — the interference
arrives through a resource neither manages — demonstrating why the
paper calls for pairing Ubik with bandwidth partitioning.

Each (channel capacity, policy) point is a declarative
:class:`BandwidthSpec` evaluated by the runtime session — store
and ``--jobs`` included; the engine driving lives in
:func:`repro.sim.study_runner.run_bandwidth_point`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, List, Optional, Sequence

from ..runtime.session import Session, get_session
from ..runtime.spec import PolicySpec, TaskSpec

__all__ = ["BandwidthPoint", "BandwidthSpec", "run_bandwidth_study"]


@dataclass(frozen=True)
class BandwidthPoint:
    """Metrics at one channel capacity under one policy."""

    peak_misses_per_kilocycle: float
    policy: str
    tail_degradation: float
    weighted_speedup: float


@dataclass(frozen=True)
class BandwidthSpec(TaskSpec):
    """One (channel capacity, policy) contention point, declaratively.

    ``mix_index`` selects which of the twenty single-replicate batch
    combos hosts the study (the historical default is index 9, a
    streaming-heavy trio that actually pressures the channel).
    """

    kind: ClassVar[str] = "bandwidth"
    result_type: ClassVar[Optional[type]] = BandwidthPoint

    peak_misses_per_kilocycle: float
    policy: PolicySpec
    lc_name: str = "specjbb"
    load: float = 0.3
    requests: int = 120
    seed: int = 31
    mix_index: int = 9

    def compute(self, store) -> BandwidthPoint:
        from ..sim.study_runner import run_bandwidth_point

        return run_bandwidth_point(self, store)


#: StaticLC versus Ubik, as in the historical study.
_BANDWIDTH_POLICIES = (
    PolicySpec.of("static_lc"),
    PolicySpec.of("ubik", slack=0.05),
)


def run_bandwidth_study(
    peaks: Sequence[float] = (1e9, 160.0, 100.0, 70.0),
    lc_name: str = "specjbb",
    load: float = 0.3,
    requests: int = 120,
    seed: int = 31,
    session: Optional[Session] = None,
) -> List[BandwidthPoint]:
    """Sweep channel capacity for one mix under StaticLC and Ubik.

    ``peaks`` are total sustainable misses per kilocycle; the first
    default is effectively infinite (the paper's fixed-latency memory),
    the rest put the streaming-heavy mix at roughly 30%, 50% and 70%
    channel utilization.
    """
    specs = [
        BandwidthSpec(
            peak_misses_per_kilocycle=float(peak),
            policy=policy,
            lc_name=lc_name,
            load=load,
            requests=requests,
            seed=seed,
        )
        for peak in peaks
        for policy in _BANDWIDTH_POLICIES
    ]
    session = session or get_session()
    return session.run_many(specs)
