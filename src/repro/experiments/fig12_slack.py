"""Figure 12: Ubik's slack sensitivity (0%, 1%, 5%, 10%).

With no slack Ubik strictly maintains tail latency at a modest batch
speedup; growing the slack trades bounded tail degradation for more
batch throughput.  Expected shape: speedup increases monotonically
with slack, and tail degradation stays within (roughly) 1 + slack.
Paper averages: 9.9% (0%), 13.1% (1%), 16.0% (5%), 17.0% (10%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..numeric import mean
from ..runtime.session import Session
from ..runtime.spec import PolicySpec
from ..sim.config import CoreKind
from .common import ExperimentScale, default_scale
from .sweep import run_policy_sweep

__all__ = ["DEFAULT_SLACKS", "PAPER_SLACK_SPEEDUPS", "run_fig12"]

DEFAULT_SLACKS = (0.0, 0.01, 0.05, 0.10)

#: Paper Figure 12 average weighted speedups, percent.
PAPER_SLACK_SPEEDUPS = {0.0: 9.9, 0.01: 13.1, 0.05: 16.0, 0.10: 17.0}


@dataclass(frozen=True)
class SlackEntry:
    """Aggregate metrics for one slack setting at one load."""

    slack: float
    load_label: str
    average_speedup_pct: float
    worst_degradation: float
    average_degradation: float


def run_fig12(
    scale: ExperimentScale | None = None,
    slacks: Sequence[float] = DEFAULT_SLACKS,
    session: Session | None = None,
) -> List[SlackEntry]:
    """Sweep Ubik's slack parameter over the scaled mix grid."""
    scale = scale or default_scale()
    policies = tuple(
        PolicySpec.of(
            "ubik", label=f"Ubik-{int(round(s * 100))}%", slack=s
        )
        for s in slacks
    )
    sweep = run_policy_sweep(
        scale,
        core_kind=CoreKind.OOO,
        policies=policies,
        session=session,
    )
    entries: List[SlackEntry] = []
    for slack, name in zip(slacks, (p.display for p in policies)):
        for load_label in ("lo", "hi"):
            records = sweep.for_policy(name, load_label)
            if not records:
                continue
            entries.append(
                SlackEntry(
                    slack=slack,
                    load_label=load_label,
                    average_speedup_pct=(
                        mean([r.weighted_speedup for r in records]) - 1.0
                    )
                    * 100.0,
                    worst_degradation=max(r.tail_degradation for r in records),
                    average_degradation=mean(
                        [r.tail_degradation for r in records]
                    ),
                )
            )
    return entries
