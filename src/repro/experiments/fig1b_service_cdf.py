"""Figure 1b: CDFs of request service time (no queueing delay).

Service times are evaluated at the paper's characterization point: the
app alone with a warm 2 MB LLC, so service time is work times the CPI
at the steady miss ratio.  Expected shapes: near-constant for masstree
and moses; long-tailed for xapian; multi-modal for shore and specjbb.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from ..cpu import OutOfOrderCore
from ..sim.config import CMPConfig
from ..units import cycles_to_ms
from ..workloads.latency_critical import make_lc_workload

__all__ = ["ServiceCDF", "service_time_cdf", "run_fig1b"]


@dataclass(frozen=True)
class ServiceCDF:
    """Sampled service-time CDF plus key percentiles (ms)."""

    name: str
    grid_ms: Tuple[float, ...]
    cdf: Tuple[float, ...]
    mean_ms: float
    p95_ms: float

    def value_at(self, ms: float) -> float:
        return float(np.interp(ms, self.grid_ms, self.cdf))


def service_time_cdf(
    lc_name: str,
    points: int = 64,
    config: CMPConfig | None = None,
) -> ServiceCDF:
    """Analytic service-time CDF for one app at the 2 MB baseline."""
    config = config or CMPConfig()
    workload = make_lc_workload(lc_name)
    core = OutOfOrderCore(config.mem_latency_cycles)
    miss_ratio = float(workload.miss_curve(workload.target_lines))
    cpi = core.cpi(workload.profile, miss_ratio)
    # Service time = work * cpi; the CDF is the work CDF rescaled.
    to_ms = lambda work: cycles_to_ms(work * cpi, config.freq_hz)
    mean_ms = to_ms(workload.work.mean())
    p95_ms = to_ms(workload.work.percentile(0.95))
    top_ms = to_ms(workload.work.percentile(0.999))
    grid_ms = np.linspace(0.0, top_ms, points)
    cdf = [
        workload.work.cdf(ms / cpi / cycles_to_ms(1.0, config.freq_hz))
        for ms in grid_ms
    ]
    return ServiceCDF(
        name=lc_name,
        grid_ms=tuple(float(x) for x in grid_ms),
        cdf=tuple(float(x) for x in cdf),
        mean_ms=mean_ms,
        p95_ms=p95_ms,
    )


def run_fig1b(lc_names: Sequence[str]) -> Dict[str, ServiceCDF]:
    """Service-time CDFs for several apps (the full Figure 1b)."""
    return {name: service_time_cdf(name) for name in lc_names}
