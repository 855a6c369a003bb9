"""Figure 9: distributions of tail degradation and weighted speedup.

For each scheme and load level, mixes are sorted independently (worst
tail degradation first; ascending weighted speedup), summarizing each
scheme's distribution across the mix population.  Expected shapes:

* LRU, UCP and OnOff suffer large degradations (up to ~2x) on a
  significant fraction of mixes;
* StaticLC and Ubik hold degradation at ~1.0 across the board;
* Ubik's speedup distribution tracks UCP/OnOff and dominates StaticLC.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..numeric import mean
from ..runtime.session import Session
from ..sim.config import CoreKind
from .common import ExperimentScale, default_scale
from .sweep import SweepResult, run_policy_sweep

__all__ = ["Fig9Data", "run_fig9"]


class Fig9Data:
    """Sorted per-scheme distributions for both metrics and loads."""

    def __init__(self, sweep: SweepResult):
        self.sweep = sweep
        self.policies = sweep.policies()

    def degradation_series(self, load_label: str) -> Dict[str, np.ndarray]:
        return {
            p: self.sweep.sorted_degradations(p, load_label)
            for p in self.policies
        }

    def speedup_series(self, load_label: str) -> Dict[str, np.ndarray]:
        return {
            p: self.sweep.sorted_speedups(p, load_label) for p in self.policies
        }

    def worst_degradation(self, policy: str, load_label: str) -> float:
        series = self.sweep.sorted_degradations(policy, load_label)
        return float(series[0]) if series.size else float("nan")

    def violation_fraction(
        self, policy: str, load_label: str, threshold: float = 1.1
    ) -> float:
        """Fraction of mixes degraded beyond ``threshold``."""
        series = self.sweep.sorted_degradations(policy, load_label)
        if series.size == 0:
            return float("nan")
        return mean((series > threshold).tolist())


def run_fig9(
    scale: ExperimentScale | None = None,
    core_kind: str = CoreKind.OOO,
    session: Session | None = None,
) -> Fig9Data:
    """Run (or fetch) the Figure 9 sweep."""
    scale = scale or default_scale()
    sweep = run_policy_sweep(scale, core_kind=core_kind, session=session)
    return Fig9Data(sweep)
