"""Figure 1a: load-latency curves for each latency-critical workload.

Each app runs alone with its 2 MB target allocation across a sweep of
offered loads; mean and 95th-percentile tail-mean latencies are
reported in milliseconds.  Expected shapes (paper Section 3.3):

* tail >> mean at every load, with an app-dependent gap;
* latency blows up superlinearly as load grows (Observation 3);
* apps with long-tailed service times (xapian, shore, specjbb) show a
  wider tail/mean gap than near-deterministic ones (masstree, moses).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..sim.config import CMPConfig
from ..sim.mix_runner import MixRunner
from ..units import cycles_to_ms
from ..workloads.latency_critical import make_lc_workload

__all__ = ["LoadLatencyPoint", "load_latency_curve", "run_fig1a"]

DEFAULT_LOADS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)


@dataclass(frozen=True)
class LoadLatencyPoint:
    """One operating point on a load-latency curve."""

    load: float
    mean_ms: float
    tail95_ms: float


def load_latency_curve(
    lc_name: str,
    loads: Sequence[float] = DEFAULT_LOADS,
    requests: int = 150,
    seed: int = 7,
    config: CMPConfig | None = None,
) -> List[LoadLatencyPoint]:
    """Sweep offered load for one LC app running alone at 2 MB."""
    config = config or CMPConfig()
    workload = make_lc_workload(lc_name)
    runner = MixRunner(config=config, requests=requests, seed=seed)
    points: List[LoadLatencyPoint] = []
    for load in loads:
        baseline = runner.baseline(workload, load)
        lat = np.asarray(baseline.latencies)
        points.append(
            LoadLatencyPoint(
                load=load,
                mean_ms=cycles_to_ms(float(lat.mean()), config.freq_hz),
                tail95_ms=cycles_to_ms(baseline.tail95_cycles, config.freq_hz),
            )
        )
    return points


def run_fig1a(
    lc_names: Sequence[str],
    loads: Sequence[float] = DEFAULT_LOADS,
    requests: int = 150,
) -> Dict[str, List[LoadLatencyPoint]]:
    """Load-latency curves for several apps (the full Figure 1a)."""
    return {
        name: load_latency_curve(name, loads=loads, requests=requests)
        for name in lc_names
    }
