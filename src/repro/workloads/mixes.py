"""Workload-mix construction (paper Section 6).

The paper's methodology: classify batch apps into four types, build
random three-app batch mixes for each of the 20 multisets of three
types (two mixes per combination, 40 total), and combine each with the
10 latency-critical configurations (5 apps x {20%, 60%} load) for
10 x 40 = 400 six-app mixes.  Each six-app mix runs three instances of
the same LC workload (distinct request streams) plus the three batch
apps, pinned to cores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .batch import BatchWorkload, random_batch_workload
from .latency_critical import LCWorkload, make_lc_workload
from .names import HIGH_LOAD, LC_NAMES, LOW_LOAD, batch_type_combos, load_label

__all__ = [
    "LOW_LOAD",
    "HIGH_LOAD",
    "load_label",
    "MixSpec",
    "batch_type_combos",
    "make_batch_mix",
    "make_all_batch_mixes",
    "make_mix_specs",
]

#: LC instances and batch apps per six-core mix.
LC_INSTANCES = 3
BATCH_APPS = 3


@dataclass(frozen=True)
class MixSpec:
    """One six-app mix: an LC workload at a load plus three batch apps."""

    mix_id: str
    lc_workload: LCWorkload
    load: float
    batch_apps: Tuple[BatchWorkload, ...]
    batch_combo: str

    def __post_init__(self) -> None:
        if len(self.batch_apps) != BATCH_APPS:
            raise ValueError(f"a mix needs exactly {BATCH_APPS} batch apps")
        if not 0.0 < self.load < 1.0:
            raise ValueError("load must be in (0, 1)")

    @property
    def load_label(self) -> str:
        return load_label(self.load)


def make_batch_mix(
    combo: Sequence[str], seed: int
) -> Tuple[BatchWorkload, ...]:
    """One random three-app batch mix for a type combination."""
    if len(combo) != BATCH_APPS:
        raise ValueError(f"combo must name {BATCH_APPS} types")
    rng = np.random.default_rng(seed)
    return tuple(
        random_batch_workload(cls, rng, instance=i) for i, cls in enumerate(combo)
    )


def make_all_batch_mixes(
    mixes_per_combo: int = 2, seed: int = 2014
) -> List[Tuple[str, Tuple[BatchWorkload, ...]]]:
    """All batch mixes: ``mixes_per_combo`` per type combination.

    With the paper's defaults this yields 20 x 2 = 40 mixes; smaller
    values produce scaled-down but methodologically identical sets.
    """
    if mixes_per_combo < 1:
        raise ValueError("need at least one mix per combination")
    mixes: List[Tuple[str, Tuple[BatchWorkload, ...]]] = []
    for combo_index, combo in enumerate(batch_type_combos()):
        label = "".join(combo)
        for rep in range(mixes_per_combo):
            mix_seed = seed + combo_index * 1000 + rep
            mixes.append((f"{label}.{rep}", make_batch_mix(combo, mix_seed)))
    return mixes


def make_mix_specs(
    lc_names: Sequence[str] | None = None,
    loads: Sequence[float] = (LOW_LOAD, HIGH_LOAD),
    mixes_per_combo: int = 2,
    seed: int = 2014,
    target_mb: float = 2.0,
) -> List[MixSpec]:
    """The full cross product of LC configurations and batch mixes.

    Paper scale: 5 LC apps x 2 loads x 40 batch mixes = 400 specs.
    Pass smaller ``lc_names``/``loads``/``mixes_per_combo`` for scaled
    runs; the construction is deterministic in ``seed``.
    """
    names = tuple(lc_names) if lc_names is not None else LC_NAMES
    unknown = set(names) - set(LC_NAMES)
    if unknown:
        raise ValueError(f"unknown LC workloads: {sorted(unknown)}")
    batch_mixes = make_all_batch_mixes(mixes_per_combo, seed)
    specs: List[MixSpec] = []
    for name in names:
        workload = make_lc_workload(name, target_mb=target_mb)
        for load in loads:
            for combo_label, batch_apps in batch_mixes:
                specs.append(
                    MixSpec(
                        mix_id=f"{name}-{load_label(load)}-{combo_label}",
                        lc_workload=workload,
                        load=load,
                        batch_apps=batch_apps,
                        batch_combo=combo_label,
                    )
                )
    return specs
