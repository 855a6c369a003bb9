"""Figure 13: Ubik's sensitivity to the partitioning scheme and array.

Ubik (5% slack) runs over the mix grid under five scheme/array models:
way-partitioning on 16- and 64-way set-associative caches, Vantage on
the same arrays, and Vantage on the default 4-way 52-candidate zcache.
Expected shapes (paper Section 7.3):

* way-partitioning breaks Ubik's deadlines — transients are slower and
  pattern-dependent, so tails degrade well beyond the slack (worst on
  16 ways, where granularity and associativity also suffer);
* Vantage on SA16 leaks lines (soft partitioning) and hurts tails;
* Vantage on SA64 approaches the zcache's behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..numeric import mean
from ..runtime.registry import make_scheme
from ..runtime.session import Session
from ..runtime.spec import PolicySpec, SchemeSpec
from ..sim.config import CMPConfig, CoreKind
from .common import ExperimentScale, default_scale
from .sweep import run_policy_sweep

__all__ = ["SchemeEntry", "run_fig13"]


@dataclass(frozen=True)
class SchemeEntry:
    """Aggregate metrics for one scheme at one load."""

    scheme: str
    load_label: str
    worst_degradation: float
    average_degradation: float
    average_speedup_pct: float


#: Registry keys of the five scheme/array configurations of Figure 13.
FIG13_SCHEME_NAMES = (
    "waypart_sa16",
    "waypart_sa64",
    "vantage_sa16",
    "vantage_sa64",
    "vantage_zcache",
)


def run_fig13(
    scale: ExperimentScale | None = None,
    slack: float = 0.05,
    session: Session | None = None,
) -> List[SchemeEntry]:
    """Run Ubik under each of the five scheme models."""
    scale = scale or default_scale()
    llc_lines = CMPConfig().llc_lines
    policies = (PolicySpec.of("ubik", label="Ubik", slack=slack),)
    entries: List[SchemeEntry] = []
    for scheme_name in FIG13_SCHEME_NAMES:
        sweep = run_policy_sweep(
            scale,
            core_kind=CoreKind.OOO,
            policies=policies,
            scheme=SchemeSpec.of(scheme_name),
            session=session,
        )
        display = make_scheme(scheme_name, llc_lines).name
        for load_label in ("lo", "hi"):
            records = sweep.for_policy("Ubik", load_label)
            if not records:
                continue
            entries.append(
                SchemeEntry(
                    scheme=display,
                    load_label=load_label,
                    worst_degradation=max(r.tail_degradation for r in records),
                    average_degradation=mean(
                        [r.tail_degradation for r in records]
                    ),
                    average_speedup_pct=(
                        mean([r.weighted_speedup for r in records]) - 1.0
                    )
                    * 100.0,
                )
            )
    return entries
