"""The names a spec grid is built from: LC apps, batch classes, loads,
and the request floor of its tail metrics.

These tables live apart from the workload models so that building and
fingerprinting a sweep grid, which is all a store-served rerun does,
imports no model.  :mod:`~repro.workloads.latency_critical`,
:mod:`~repro.workloads.batch` and :mod:`~repro.workloads.mixes`
re-export them, and the runtime registries list their entries from
them.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import List, Tuple

__all__ = [
    "LC_NAMES",
    "BATCH_CLASSES",
    "LOW_LOAD",
    "HIGH_LOAD",
    "LOAD_SPLIT",
    "MIN_TAIL_REQUESTS",
    "load_label",
    "batch_type_combos",
]

#: The five latency-critical apps of paper Table 1, in the paper's order.
LC_NAMES: Tuple[str, ...] = ("xapian", "masstree", "moses", "shore", "specjbb")

#: The four cache-behaviour classes: insensitive, friendly, fitting, streaming.
BATCH_CLASSES: Tuple[str, ...] = ("n", "f", "t", "s")

#: The paper's two operating points for LC apps (Section 6).
LOW_LOAD = 0.2
HIGH_LOAD = 0.6

#: Loads at or below this midpoint are labelled ``"lo"``, above it ``"hi"``.
LOAD_SPLIT = (LOW_LOAD + HIGH_LOAD) / 2

#: The fewest requests per LC instance a run may take: its tail metrics
#: are the 95th percentile and the mean beyond it.
MIN_TAIL_REQUESTS = 20


def load_label(load: float) -> str:
    """``"lo"``/``"hi"`` bucket for an LC load (:data:`LOAD_SPLIT`)."""
    return "lo" if load <= LOAD_SPLIT else "hi"


def batch_type_combos() -> List[Tuple[str, str, str]]:
    """The 20 multisets of three batch types (nnn, nnf, ..., sss)."""
    return list(combinations_with_replacement(BATCH_CLASSES, 3))
