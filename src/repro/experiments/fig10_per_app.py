"""Figures 10 and 11: per-app tail degradation and weighted speedup.

For each latency-critical app and load, the *overall* tail degradation
pools response times across all that app's mixes (the paper's
40-machine-cluster interpretation), and the whisker is the
worst-performing single mix.  The speedup panel averages weighted
speedups over the same mixes.  Figure 11 is the same experiment with
in-order cores, which amplifies both effects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..numeric import mean
from ..runtime.session import Session
from ..sim.config import CoreKind
from .common import ExperimentScale, default_scale
from .sweep import SweepResult, run_policy_sweep

__all__ = ["PerAppEntry", "run_fig10", "run_fig11"]


@dataclass(frozen=True)
class PerAppEntry:
    """One bar + whisker of Figure 10/11."""

    lc_name: str
    load_label: str
    policy: str
    overall_degradation: float
    worst_degradation: float
    average_speedup: float


def _per_app_entries(sweep: SweepResult) -> List[PerAppEntry]:
    entries: List[PerAppEntry] = []
    lc_names = sorted({r.lc_name for r in sweep.records})
    for lc_name in lc_names:
        for load_label in ("lo", "hi"):
            for policy in sweep.policies():
                records = sweep.per_app(policy, lc_name, load_label)
                if not records:
                    continue
                # Pooled tail over all mixes ~ tail-weighted aggregate;
                # approximated by the mean of per-mix tails (each mix
                # contributes the same request population).
                pooled = mean([r.lc_tail_cycles for r in records]) / mean(
                    [r.baseline_tail_cycles for r in records]
                )
                worst = max(r.tail_degradation for r in records)
                speedup = mean([r.weighted_speedup for r in records])
                entries.append(
                    PerAppEntry(
                        lc_name=lc_name,
                        load_label=load_label,
                        policy=policy,
                        overall_degradation=pooled,
                        worst_degradation=worst,
                        average_speedup=speedup,
                    )
                )
    return entries


def run_fig10(
    scale: ExperimentScale | None = None,
    session: Session | None = None,
) -> List[PerAppEntry]:
    """Per-app results with OOO cores (Figure 10)."""
    scale = scale or default_scale()
    sweep = run_policy_sweep(scale, core_kind=CoreKind.OOO, session=session)
    return _per_app_entries(sweep)


def run_fig11(
    scale: ExperimentScale | None = None,
    session: Session | None = None,
) -> List[PerAppEntry]:
    """Per-app results with in-order cores (Figure 11)."""
    scale = scale or default_scale()
    sweep = run_policy_sweep(
        scale, core_kind=CoreKind.IN_ORDER, session=session
    )
    return _per_app_entries(sweep)
