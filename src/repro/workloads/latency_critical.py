"""The five latency-critical workload models (paper Table 1, Section 3).

Each model is calibrated against the paper's published per-app data:

* **APKI** and miss-rate levels from Figure 2 (LLC access breakdowns at
  2 MB and 8 MB),
* **service-time distribution shape** from Figure 1b (near-constant,
  long-tailed, or multi-modal CDFs),
* **request counts and configurations** from Table 1,
* qualitative notes from Section 7.1 (e.g., masstree's high MLP,
  moses's reuse appearing only beyond ~4 MB).

The per-request *work* distribution is derived so that the mean service
time at the paper's baseline — running alone on an OOO core with a warm
2 MB LLC — matches the Figure 1b means.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from ..cpu import AppProfile, OutOfOrderCore
from ..monitor.miss_curve import MissCurve
from ..units import mb_to_lines, ms_to_cycles
from .curve_shapes import (
    exponential_curve,
    plateau_then_decline_curve,
)
from .names import LC_NAMES
from .service_time import (
    LognormalWork,
    MixtureWork,
    TruncatedNormalWork,
    WorkDistribution,
)

__all__ = [
    "LCWorkload",
    "LC_NAMES",
    "DEFAULT_TARGET_MB",
    "DEFAULT_MEM_LATENCY",
    "make_lc_workload",
    "all_lc_workloads",
    "TABLE1_ROWS",
]

#: LC apps get a 2 MB target allocation, matching the paper's baseline
#: of per-core 2 MB private LLCs (Section 6).
DEFAULT_TARGET_MB = 2.0

#: Table 2 memory latency, used for service-time calibration.
DEFAULT_MEM_LATENCY = 200.0

#: Full curve range: the 12 MB shared LLC.
_MAX_LINES = mb_to_lines(12.0)


@dataclass(frozen=True)
class LCWorkload:
    """A latency-critical application model.

    Attributes
    ----------
    profile:
        Execution profile (APKI, base CPI, MLP).
    miss_curve:
        Steady-state (warm) miss ratio versus allocated lines.
    work:
        Per-request instruction-count distribution, calibrated to the
        Figure 1b service times at the 2 MB baseline.
    target_lines:
        The app's QoS target allocation (2 MB by default).
    mean_service_ms:
        Calibrated mean service time at the baseline, for reference.
    table1_requests:
        Simulated request count from paper Table 1.
    table1_config:
        Input-set description from paper Table 1.
    reuse_fraction:
        Fraction of LLC hits to lines last touched by *earlier*
        requests at 2 MB (Figure 2); drives the trace generators.
    """

    name: str
    profile: AppProfile
    miss_curve: MissCurve
    work: WorkDistribution
    target_lines: int
    mean_service_ms: float
    table1_requests: int
    table1_config: str
    reuse_fraction: float

    def mean_service_cycles(self, core=None) -> float:
        """Mean service time (cycles) at the warm baseline allocation.

        The miss ratio is the scalar read
        :meth:`~repro.monitor.miss_curve.MissCurve.at`, bit-equal to
        ``float(self.miss_curve(self.target_lines))``.
        """
        core = core or OutOfOrderCore(DEFAULT_MEM_LATENCY)
        miss_ratio = self.miss_curve.at(self.target_lines)
        return self.work.mean() * core.cpi(self.profile, miss_ratio)

    def arrival_rate_for_load(self, load: float, core=None) -> float:
        """Requests per cycle achieving offered load ``rho``."""
        if not 0.0 < load < 1.0:
            raise ValueError("load must be in (0, 1)")
        return load / self.mean_service_cycles(core)


# ----------------------------------------------------------------------
# Per-app specifications
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _LCSpec:
    profile: AppProfile
    curve_factory: Callable[[], MissCurve]
    relative_work: WorkDistribution  # unit-mean shape
    mean_service_ms: float  # target at 2 MB warm baseline, OOO core
    table1_requests: int
    table1_config: str
    reuse_fraction: float


def _xapian_spec() -> _LCSpec:
    # Web search: compute-intensive, tiny LLC footprint (0.1 APKI),
    # long-tailed query-dependent service times.
    return _LCSpec(
        profile=AppProfile("xapian", apki=0.1, base_cpi=0.65, mlp=1.5),
        curve_factory=lambda: exponential_curve(
            miss_at_zero=0.80,
            miss_floor=0.05,
            half_size_lines=mb_to_lines(0.5),
            max_lines=_MAX_LINES,
        ),
        relative_work=LognormalWork(mean_work=1.0, sigma=1.2),
        mean_service_ms=0.75,
        table1_requests=6000,
        table1_config="English Wikipedia, zipfian query popularity",
        reuse_fraction=0.55,
    )


def _masstree_spec() -> _LCSpec:
    # In-memory key-value store: near-constant tiny requests, high MLP,
    # 1.1 GB table keeps the miss floor high at any LLC size.
    return _LCSpec(
        profile=AppProfile("masstree", apki=8.8, base_cpi=0.70, mlp=4.0),
        curve_factory=lambda: exponential_curve(
            miss_at_zero=0.90,
            miss_floor=0.28,
            half_size_lines=mb_to_lines(1.5),
            max_lines=_MAX_LINES,
        ),
        relative_work=TruncatedNormalWork(mean_work=1.0, cv=0.12),
        mean_service_ms=0.105,
        table1_requests=9000,
        table1_config="mycsb-a (50% GETs, 50% PUTs), 1.1GB table",
        reuse_fraction=0.62,
    )


def _moses_spec() -> _LCSpec:
    # Statistical machine translation: very memory-intensive
    # (25.8 APKI), near-constant long requests, and no reuse below
    # ~3 MB with significant reuse appearing around 4 MB (Section 7.1).
    return _LCSpec(
        profile=AppProfile("moses", apki=25.8, base_cpi=0.80, mlp=1.8),
        curve_factory=lambda: plateau_then_decline_curve(
            miss_plateau=0.92,
            miss_floor=0.30,
            plateau_lines=mb_to_lines(3.0),
            half_size_lines=mb_to_lines(1.5),
            max_lines=_MAX_LINES,
        ),
        relative_work=TruncatedNormalWork(mean_work=1.0, cv=0.12),
        mean_service_ms=4.2,
        table1_requests=900,
        table1_config="opensubtitles.org corpora, phrase-based mode",
        reuse_fraction=0.55,
    )


def _shore_spec() -> _LCSpec:
    # OLTP DBMS (TPC-C): bimodal transactions (light lookups vs heavy
    # new-order style), strong cross-request reuse.
    relative = MixtureWork.of(
        [
            TruncatedNormalWork(mean_work=0.45, cv=0.25),
            TruncatedNormalWork(mean_work=2.40, cv=0.30),
        ],
        [0.72, 0.28],
    )
    return _LCSpec(
        profile=AppProfile("shore", apki=5.7, base_cpi=0.75, mlp=1.5),
        curve_factory=lambda: exponential_curve(
            miss_at_zero=0.85,
            miss_floor=0.08,
            half_size_lines=mb_to_lines(1.25),
            max_lines=_MAX_LINES,
        ),
        relative_work=relative,
        mean_service_ms=0.90,
        table1_requests=7500,
        table1_config="TPC-C, 10 warehouses",
        reuse_fraction=0.70,
    )


def _specjbb_spec() -> _LCSpec:
    # Middle-tier business logic: mostly small operations with a heavy
    # mode, memory-intensive with strong cross-request reuse.
    relative = MixtureWork.of(
        [
            TruncatedNormalWork(mean_work=0.60, cv=0.30),
            TruncatedNormalWork(mean_work=3.10, cv=0.30),
        ],
        [0.85, 0.15],
    )
    return _LCSpec(
        profile=AppProfile("specjbb", apki=16.3, base_cpi=0.70, mlp=2.0),
        curve_factory=lambda: exponential_curve(
            miss_at_zero=0.88,
            miss_floor=0.10,
            half_size_lines=mb_to_lines(1.5),
            max_lines=_MAX_LINES,
        ),
        relative_work=relative,
        mean_service_ms=0.19,
        table1_requests=37500,
        table1_config="1 warehouse",
        reuse_fraction=0.65,
    )


_SPECS: Dict[str, Callable[[], _LCSpec]] = {
    "xapian": _xapian_spec,
    "masstree": _masstree_spec,
    "moses": _moses_spec,
    "shore": _shore_spec,
    "specjbb": _specjbb_spec,
}


def make_lc_workload(
    name: str,
    target_mb: float = DEFAULT_TARGET_MB,
    mem_latency_cycles: float = DEFAULT_MEM_LATENCY,
    freq_hz: float = 3.2e9,
) -> LCWorkload:
    """Build one of the five LC workload models by name.

    Work is calibrated so the mean service time at a warm ``target_mb``
    allocation on an OOO core equals the Figure 1b mean.
    """
    try:
        spec = _SPECS[name]()
    except KeyError:
        raise ValueError(f"unknown LC workload {name!r}; choose from {LC_NAMES}") from None
    curve = spec.curve_factory()
    target_lines = mb_to_lines(target_mb)
    core = OutOfOrderCore(mem_latency_cycles)
    baseline_cpi = core.cpi(spec.profile, float(curve(target_lines)))
    mean_work = ms_to_cycles(spec.mean_service_ms, freq_hz) / baseline_cpi
    # Normalize: relative shapes are unit-mean by construction, but
    # mixtures drift slightly; divide by the actual mean so the
    # calibrated service time is exact.
    scale = mean_work / spec.relative_work.mean()
    return LCWorkload(
        name=name,
        profile=spec.profile,
        miss_curve=curve,
        work=spec.relative_work.scaled(scale),
        target_lines=target_lines,
        mean_service_ms=spec.mean_service_ms,
        table1_requests=spec.table1_requests,
        table1_config=spec.table1_config,
        reuse_fraction=spec.reuse_fraction,
    )


def all_lc_workloads(**kwargs) -> Dict[str, LCWorkload]:
    """All five LC workload models, keyed by name."""
    return {name: make_lc_workload(name, **kwargs) for name in LC_NAMES}


#: Paper Table 1, for the benchmark harness.
TABLE1_ROWS = tuple(
    (name, _SPECS[name]().table1_config, _SPECS[name]().table1_requests)
    for name in LC_NAMES
)
