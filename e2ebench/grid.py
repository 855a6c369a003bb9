"""The benchmark's pinned grid and the sweep cells of its two steps.

A *step* is one paper artifact as its CLI command computes it:
``table3`` is ``run_table3`` then ``format_table3``, ``fig13`` is
``run_fig13``.  Both run on the same reduced grid: ``masstree`` and
``shore`` at both loads and the default 120 requests, over three of the
representative batch combos (12 mixes), so a cold step takes a few
seconds and a benchmark run can repeat it.

Fewer requests would make the run time depend on the seed: ``shore``'s
three work streams set the deadlines Ubik sizes against, and at 60
requests one seed's Fig 13 took 45% longer than another's.
"""

from __future__ import annotations

import dataclasses
from typing import Any, List, Optional, Sequence, Tuple

from repro.experiments.common import ExperimentScale
from repro.experiments.fig13_schemes import FIG13_SCHEME_NAMES, run_fig13
from repro.experiments.sweep import run_policy_sweep
from repro.experiments.table3_speedups import format_table3, run_table3
from repro.runtime.session import DEFAULT_POLICIES, Session
from repro.runtime.spec import PolicySpec, RunSpec, SchemeSpec

__all__ = [
    "DEFAULT_SEED",
    "STEPS",
    "make_scale",
    "run_step",
    "step_records",
    "step_sweeps",
]

DEFAULT_SEED = 2014
STEPS = ("table3", "fig13")

#: The pinned reduced grid; the seed is the benchmark's argument.
LC_NAMES = ("masstree", "shore")
REQUESTS = 120
COMBOS = ("nnn", "fts", "sss")

#: ``run_fig13``'s default slack.
FIG13_SLACK = 0.05


def make_scale(seed: int) -> ExperimentScale:
    """The benchmark grid at one seed."""
    return ExperimentScale(
        requests=REQUESTS, lc_names=LC_NAMES, combos=COMBOS, seed=seed
    )


def _sweep_args(step: str) -> List[Tuple[Sequence[PolicySpec], Optional[SchemeSpec]]]:
    if step == "table3":
        return [(DEFAULT_POLICIES, None)]
    if step == "fig13":
        ubik = (PolicySpec.of("ubik", label="Ubik", slack=FIG13_SLACK),)
        return [(ubik, SchemeSpec.of(name)) for name in FIG13_SCHEME_NAMES]
    raise ValueError(f"unknown step {step!r} (known: {', '.join(STEPS)})")


def run_step(step: str, scale: ExperimentScale, session: Session) -> Any:
    """Run one step as its CLI command does and return its artifact.

    ``table3`` returns ``run_table3``'s table (percent by load and
    policy) after ``format_table3`` has rendered it; ``fig13`` returns
    the fields of each ``SchemeEntry`` of ``run_fig13``.
    """
    if step == "table3":
        measured = run_table3(scale, session=session)
        format_table3(measured)
        return measured
    if step == "fig13":
        return [dataclasses.asdict(e) for e in run_fig13(scale, session=session)]
    raise ValueError(f"unknown step {step!r} (known: {', '.join(STEPS)})")


def step_records(step: str, scale: ExperimentScale, session: Session) -> List[dict]:
    """The per-cell records of the sweeps :func:`run_step` built.

    Each ``run_policy_sweep`` call repeats one of the step's own, so it
    returns the ``SweepResult`` the step used from the process-local
    sweep memo, without reading the store.
    """
    return [
        record.to_dict()
        for policies, scheme in _sweep_args(step)
        for record in run_policy_sweep(
            scale, policies=policies, scheme=scheme, session=session
        ).records
    ]


def step_sweeps(step: str, scale: ExperimentScale) -> List[List[RunSpec]]:
    """The cells of every sweep a step runs, in the step's order.

    Within one sweep the cells that share a mix form one replay group:
    five policies per mix for ``table3``, a single Ubik cell per mix
    and scheme for ``fig13``.  The sessions that run the steps build
    the same cells, in the same order.
    """
    session = Session(store="memory://", jobs=1)
    return [
        session.sweep_specs(scale, policies=policies, scheme=scheme)
        for policies, scheme in _sweep_args(step)
    ]
