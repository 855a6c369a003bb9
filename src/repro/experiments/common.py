"""Shared experiment infrastructure: scaled run parameters and reports.

Every benchmark regenerates one paper table or figure.  The paper's
full scale (400 mixes, 10^15 simulated instructions) is replaced by a
configurable scaled grid that preserves the methodology: same mix
construction, same metrics, same normalization.  Environment variables
let users dial the scale up toward the paper's:

* ``REPRO_REQUESTS``  — requests per LC instance (default 120, at
  least 20 for the tail metrics)
* ``REPRO_MIXES``     — batch mixes per type combination (default 0
  uses a representative subset of combos; set >0 for the full 20-combo
  grid)
* ``REPRO_LC``        — comma-separated LC workload subset
* ``REPRO_LOADS``     — comma-separated LC loads in (0, 1), e.g.
  ``0.2,0.6`` (default: the paper's low/high operating points)

A malformed value fails in :func:`default_scale` with a ``ValueError``
naming the variable and the value; the sweep commands of
:mod:`repro.cli` report it as a usage error before any spec runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..workloads.names import (
    HIGH_LOAD,
    LC_NAMES,
    LOW_LOAD,
    MIN_TAIL_REQUESTS,
    batch_type_combos,
)

if TYPE_CHECKING:
    from ..workloads.mixes import MixSpec

__all__ = [
    "ExperimentScale",
    "default_scale",
    "scaled_mix_specs",
    "format_table",
    "REPRESENTATIVE_COMBOS",
]

#: Six type-combinations spanning the insensitive/friendly/fitting/
#: streaming space; used when the full 20-combo grid is too slow.
REPRESENTATIVE_COMBOS = ("nnn", "nft", "nss", "fft", "fts", "sss")


@dataclass(frozen=True)
class ExperimentScale:
    """Scaled-down run parameters preserving the paper's methodology."""

    requests: int = 120
    lc_names: Tuple[str, ...] = LC_NAMES
    loads: Tuple[float, ...] = (LOW_LOAD, HIGH_LOAD)
    combos: Tuple[str, ...] = REPRESENTATIVE_COMBOS
    mixes_per_combo: int = 1
    seed: int = 2014

    def __post_init__(self) -> None:
        if self.requests < MIN_TAIL_REQUESTS:
            raise ValueError(
                f"need at least {MIN_TAIL_REQUESTS} requests for tail metrics"
            )
        unknown = set(self.lc_names) - set(LC_NAMES)
        if unknown:
            raise ValueError(f"unknown LC workloads: {sorted(unknown)}")
        # NaN fails both comparisons, so it is rejected too.
        if not all(0.0 < load < 1.0 for load in self.loads):
            raise ValueError(f"loads must be in (0, 1), got {self.loads!r}")


def _env_int(name: str, default: str, minimum: int) -> int:
    """An integer environment knob of at least ``minimum``; a bad value
    names the variable."""
    raw = os.environ.get(name, default)
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {raw!r}")
    return value


def _env_loads() -> Optional[Tuple[float, ...]]:
    """``REPRO_LOADS`` as a tuple of loads in (0, 1), ``None`` if unset."""
    raw = os.environ.get("REPRO_LOADS", "")
    try:
        loads = tuple(float(x) for x in raw.split(",") if x.strip())
        valid = all(0.0 < load < 1.0 for load in loads)
    except ValueError:
        valid = False
    if not valid:
        raise ValueError(
            f"REPRO_LOADS must be comma-separated loads in (0, 1), got {raw!r}"
        )
    return loads or None


def default_scale() -> ExperimentScale:
    """Scale from environment variables (see module docstring)."""
    requests = _env_int("REPRO_REQUESTS", "120", minimum=MIN_TAIL_REQUESTS)
    lc_env = os.environ.get("REPRO_LC", "")
    lc_names = (
        tuple(name.strip() for name in lc_env.split(",") if name.strip())
        or LC_NAMES
    )
    if not set(lc_names) <= set(LC_NAMES):
        raise ValueError(
            f"REPRO_LC must be comma-separated LC workloads among "
            f"{', '.join(LC_NAMES)}, got {lc_env!r}"
        )
    loads = _env_loads() or (LOW_LOAD, HIGH_LOAD)
    mixes_env = _env_int("REPRO_MIXES", "0", minimum=0)
    if mixes_env > 0:
        # Full 20-combo grid, paper style.
        combos = tuple("".join(c) for c in batch_type_combos())
        return ExperimentScale(
            requests=requests,
            lc_names=lc_names,
            loads=loads,
            combos=combos,
            mixes_per_combo=mixes_env,
        )
    return ExperimentScale(requests=requests, lc_names=lc_names, loads=loads)


def scaled_mix_specs(scale: ExperimentScale) -> List[MixSpec]:
    """Mix specs for a scale, filtered to its combo subset."""
    from ..workloads.mixes import make_mix_specs

    specs = make_mix_specs(
        lc_names=scale.lc_names,
        loads=scale.loads,
        mixes_per_combo=scale.mixes_per_combo,
        seed=scale.seed,
    )
    keep = set(scale.combos)
    return [s for s in specs if s.batch_combo.split(".")[0] in keep]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Monospace table rendering for benchmark harness output."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
