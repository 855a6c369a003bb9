"""Batch (SPEC CPU2006-like) workload models.

The paper classifies the 29 SPEC CPU2006 apps into four cache-behaviour
types, following the Vantage methodology: **insensitive** (n),
**cache-friendly** (f), **cache-fitting** (t), and **streaming** (s),
and builds mixes from random draws of each type.  We model each type
parametrically: a named instance drawn from a per-class pool with
class-appropriate APKI, MLP, and miss-curve shape.  All policies
consume only (profile, miss curve), so this captures exactly the
behaviour space the paper's 40 batch mixes sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..cpu import AppProfile
from ..monitor.miss_curve import MissCurve
from ..units import mb_to_lines
from .curve_shapes import exponential_curve, flat_curve, knee_curve
from .names import BATCH_CLASSES

__all__ = [
    "BATCH_CLASSES",
    "BATCH_CLASS_NAMES",
    "BatchWorkload",
    "make_batch_workload",
    "random_batch_workload",
]

BATCH_CLASS_NAMES: Dict[str, str] = {
    "n": "insensitive",
    "f": "cache-friendly",
    "t": "cache-fitting",
    "s": "streaming",
}

#: SPEC CPU2006 names per class (classification follows Vantage Table 2).
_NAME_POOLS: Dict[str, Tuple[str, ...]] = {
    "n": ("povray", "gamess", "namd", "gromacs", "calculix", "perlbench", "tonto"),
    "f": ("omnetpp", "astar", "gcc", "bzip2", "zeusmp", "cactusADM", "mcf"),
    "t": ("xalancbmk", "sphinx3", "hmmer", "h264ref", "gobmk", "soplex"),
    "s": ("libquantum", "lbm", "milc", "bwaves", "leslie3d", "GemsFDTD"),
}

_MAX_LINES = mb_to_lines(12.0)


@dataclass(frozen=True)
class BatchWorkload:
    """A batch application model: profile plus steady-state miss curve."""

    name: str
    batch_class: str
    profile: AppProfile
    miss_curve: MissCurve

    def __post_init__(self) -> None:
        if self.batch_class not in BATCH_CLASSES:
            raise ValueError(f"unknown batch class {self.batch_class!r}")

    @property
    def class_name(self) -> str:
        return BATCH_CLASS_NAMES[self.batch_class]


def _insensitive(rng: np.random.Generator) -> Tuple[AppProfile, MissCurve]:
    # Working set fits in the private levels: low APKI, little to gain.
    apki = rng.uniform(0.2, 2.0)
    profile_kwargs = dict(
        apki=apki,
        base_cpi=rng.uniform(0.5, 0.8),
        mlp=rng.uniform(1.5, 3.0),
    )
    curve = exponential_curve(
        miss_at_zero=rng.uniform(0.2, 0.5),
        miss_floor=rng.uniform(0.02, 0.1),
        half_size_lines=mb_to_lines(rng.uniform(0.1, 0.4)),
        max_lines=_MAX_LINES,
    )
    return profile_kwargs, curve


def _friendly(rng: np.random.Generator) -> Tuple[AppProfile, MissCurve]:
    # Smoothly improving with capacity across the whole LLC range.
    profile_kwargs = dict(
        apki=rng.uniform(4.0, 15.0),
        base_cpi=rng.uniform(0.6, 1.0),
        mlp=rng.uniform(1.2, 2.5),
    )
    curve = exponential_curve(
        miss_at_zero=rng.uniform(0.5, 0.9),
        miss_floor=rng.uniform(0.05, 0.2),
        half_size_lines=mb_to_lines(rng.uniform(0.75, 2.5)),
        max_lines=_MAX_LINES,
    )
    return profile_kwargs, curve


def _fitting(rng: np.random.Generator) -> Tuple[AppProfile, MissCurve]:
    # A working set that fits abruptly at some size within the LLC.
    profile_kwargs = dict(
        apki=rng.uniform(3.0, 12.0),
        base_cpi=rng.uniform(0.6, 1.0),
        mlp=rng.uniform(1.2, 2.0),
    )
    curve = knee_curve(
        miss_at_zero=rng.uniform(0.6, 0.95),
        miss_floor=rng.uniform(0.03, 0.1),
        knee_lines=mb_to_lines(rng.uniform(1.0, 5.0)),
        max_lines=_MAX_LINES,
        sharpness=rng.uniform(6.0, 12.0),
    )
    return profile_kwargs, curve


def _streaming(rng: np.random.Generator) -> Tuple[AppProfile, MissCurve]:
    # Scans with no reuse at LLC sizes: high APKI, flat high miss ratio.
    profile_kwargs = dict(
        apki=rng.uniform(15.0, 40.0),
        base_cpi=rng.uniform(0.7, 1.1),
        mlp=rng.uniform(2.0, 6.0),
    )
    curve = flat_curve(
        miss_ratio=rng.uniform(0.85, 1.0),
        max_lines=_MAX_LINES,
    )
    return profile_kwargs, curve


_GENERATORS = {
    "n": _insensitive,
    "f": _friendly,
    "t": _fitting,
    "s": _streaming,
}


def random_batch_workload(
    batch_class: str, rng: np.random.Generator, instance: int = 0
) -> BatchWorkload:
    """Draw a random batch app of the given class.

    ``instance`` disambiguates multiple apps of the same class within
    one mix (they get distinct pool names and parameters).
    """
    if batch_class not in BATCH_CLASSES:
        raise ValueError(f"unknown batch class {batch_class!r}")
    pool = _NAME_POOLS[batch_class]
    base_name = pool[int(rng.integers(len(pool)))]
    profile_kwargs, curve = _GENERATORS[batch_class](rng)
    name = f"{base_name}.{instance}"
    profile = AppProfile(name=name, **profile_kwargs)
    return BatchWorkload(
        name=name, batch_class=batch_class, profile=profile, miss_curve=curve
    )


def make_batch_workload(
    batch_class: str, seed: int, instance: int = 0
) -> BatchWorkload:
    """Deterministic batch app from a seed (for reproducible mixes)."""
    rng = np.random.default_rng(seed)
    return random_batch_workload(batch_class, rng, instance)
