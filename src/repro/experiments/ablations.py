"""Ablation study: isolating Ubik's design choices.

DESIGN.md calls out three load-bearing choices; each variant removes
one:

* ``Ubik-noboost`` — idle downsizing without wake-up boosting: the
  refill transient's lost cycles are never repaid, so tails drift
  beyond the slack bound (the OnOff failure mode, softened).
* ``Ubik-nodeboost`` — boosts held for the whole active period instead
  of being released when repaid: tails stay safe, but batch apps lose
  the space the de-boost circuit would have returned early.
* ``Ubik-exact`` — the controller uses exact transient integrals
  instead of the paper's conservative bounds: at least as aggressive,
  still safe in this engine (whose transients the bounds dominate),
  showing how much headroom the conservatism costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..numeric import mean
from ..runtime.session import Session
from ..runtime.spec import PolicySpec
from ..sim.config import CoreKind
from .common import ExperimentScale, default_scale
from .sweep import run_policy_sweep

__all__ = ["AblationEntry", "run_ablations"]


@dataclass(frozen=True)
class AblationEntry:
    """Aggregate metrics for one Ubik variant at one load."""

    variant: str
    load_label: str
    average_degradation: float
    worst_degradation: float
    average_speedup_pct: float


def run_ablations(
    scale: ExperimentScale | None = None,
    slack: float = 0.05,
    session: Session | None = None,
) -> List[AblationEntry]:
    """Run full Ubik and the three ablated variants over the grid."""
    scale = scale or default_scale()
    policies = (
        PolicySpec.of("ubik", label="Ubik", slack=slack),
        PolicySpec.of(
            "ubik", label="Ubik-noboost", slack=slack, boost_enabled=False
        ),
        PolicySpec.of(
            "ubik", label="Ubik-nodeboost", slack=slack, deboost_enabled=False
        ),
        PolicySpec.of(
            "ubik", label="Ubik-exact", slack=slack, use_exact_bounds=True
        ),
    )
    sweep = run_policy_sweep(
        scale,
        core_kind=CoreKind.OOO,
        policies=policies,
        session=session,
    )
    entries: List[AblationEntry] = []
    for name in (p.display for p in policies):
        for load_label in ("lo", "hi"):
            records = sweep.for_policy(name, load_label)
            if not records:
                continue
            entries.append(
                AblationEntry(
                    variant=name,
                    load_label=load_label,
                    average_degradation=mean(
                        [r.tail_degradation for r in records]
                    ),
                    worst_degradation=max(r.tail_degradation for r in records),
                    average_speedup_pct=(
                        mean([r.weighted_speedup for r in records]) - 1.0
                    )
                    * 100.0,
                )
            )
    return entries
