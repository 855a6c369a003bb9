"""Section 7.1's utilization argument: colocations raise server use 6x.

The paper's back-of-envelope: with LRU, a datacenter running
latency-critical apps at 20% load cannot colocate batch work without
destroying tails, so at best half the cores do useful work at 20% load
-> ~10% utilization (matching industry reports).  StaticLC and Ubik
make colocation safe on all six cores: three cores at 20% load plus
three batch cores at 100% -> 60% utilization.

This module recomputes those numbers from sweep data, gating the
"safe" label on measured tail degradation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..numeric import mean
from ..runtime.session import Session
from ..sim.config import CoreKind
from ..workloads.names import LOAD_SPLIT, load_label
from .common import ExperimentScale, default_scale
from .sweep import run_policy_sweep

__all__ = ["UtilizationEstimate", "require_low_load", "run_utilization"]

#: Degradation beyond which a colocation is deemed unsafe for LC apps.
SAFE_DEGRADATION = 1.10

#: The paper's LC operating load for this argument.
LC_LOAD = 0.2


@dataclass(frozen=True)
class UtilizationEstimate:
    """Utilization achievable with one scheme."""

    policy: str
    safe_fraction: float  # fraction of mixes with acceptable tails
    utilization: float  # cluster utilization under the paper's model


def require_low_load(scale: ExperimentScale) -> None:
    """Raise ``ValueError`` naming ``loads`` and the low-load bound
    unless the scale has a low load for the estimate to read."""
    if "lo" not in {load_label(load) for load in scale.loads}:
        raise ValueError(
            f"utilization reads low-load runs: loads must include one at "
            f"most {LOAD_SPLIT}, got {scale.loads!r}"
        )


def run_utilization(
    scale: ExperimentScale | None = None,
    session: Session | None = None,
) -> Dict[str, UtilizationEstimate]:
    """Estimate per-scheme utilization from low-load sweep data."""
    scale = scale or default_scale()
    require_low_load(scale)
    sweep = run_policy_sweep(scale, core_kind=CoreKind.OOO, session=session)
    out: Dict[str, UtilizationEstimate] = {}
    for policy in sweep.policies():
        records = sweep.for_policy(policy, "lo")
        if not records:
            continue
        safe = mean([r.tail_degradation <= SAFE_DEGRADATION for r in records])
        if policy == "LRU":
            # Conventional approach: no colocation at all; half the
            # cores idle to protect tails (paper's assumption).
            utilization = 0.5 * LC_LOAD
        else:
            # Colocation allowed only on mixes with safe tails: three
            # LC cores at 20% load, three batch cores fully busy.
            utilization = safe * (0.5 * LC_LOAD + 0.5) + (1 - safe) * 0.5 * LC_LOAD
        out[policy] = UtilizationEstimate(
            policy=policy, safe_fraction=safe, utilization=utilization
        )
    return out
