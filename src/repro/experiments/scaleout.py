"""Extension: Ubik on a larger CMP (the paper's deferred future work).

The paper evaluates a six-core CMP and notes that "Ubik should apply to
large-scale CMPs with tens to hundreds of cores, but we leave that
evaluation to future work" (Section 6).  This experiment scales the
machine — N latency-critical instances plus N batch apps sharing an
LLC that grows proportionally (2 MB per core, as in the baseline) — and
checks that Ubik's guarantees are scale-free: tails stay at the
baseline while batch throughput keeps its gains.

Each (machine size, policy) point is a declarative
:class:`ScaleoutSpec` evaluated by the runtime session, so the study
rides the persistent store and ``--jobs`` like every sweep; the
engine driving lives in
:func:`repro.sim.study_runner.run_scaleout_point`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, List, Optional, Sequence

from ..runtime.session import Session, get_session
from ..runtime.spec import PolicySpec, TaskSpec
from ..workloads.names import MIN_TAIL_REQUESTS

__all__ = ["ScaleOutResult", "ScaleoutSpec", "run_scaleout"]


@dataclass(frozen=True)
class ScaleOutResult:
    """Metrics for one machine size under one policy."""

    cores: int
    policy: str
    tail_degradation: float
    weighted_speedup: float


@dataclass(frozen=True)
class ScaleoutSpec(TaskSpec):
    """One (machine size, policy) scaleout point, declaratively."""

    kind: ClassVar[str] = "scaleout"
    result_type: ClassVar[Optional[type]] = ScaleOutResult

    cores: int
    policy: PolicySpec
    lc_name: str = "shore"
    load: float = 0.2
    requests: int = 100
    seed: int = 21

    def __post_init__(self) -> None:
        if self.cores % 2 != 0:
            raise ValueError("core counts must be even (half LC, half batch)")
        if self.requests < MIN_TAIL_REQUESTS:
            raise ValueError(
                f"requests must be at least {MIN_TAIL_REQUESTS} for tail "
                f"metrics, got {self.requests}"
            )

    def compute(self, store) -> ScaleOutResult:
        from ..sim.study_runner import run_scaleout_point

        return run_scaleout_point(self, store)


#: The two policies whose scale behaviour the study contrasts.
_SCALEOUT_POLICIES = (
    PolicySpec.of("static_lc"),
    PolicySpec.of("ubik", slack=0.05),
)


def run_scaleout(
    core_counts: Sequence[int] = (6, 12, 24),
    lc_name: str = "shore",
    load: float = 0.2,
    requests: int = 100,
    seed: int = 21,
    session: Optional[Session] = None,
) -> List[ScaleOutResult]:
    """Sweep machine sizes; half the cores run LC, half batch."""
    specs = [
        ScaleoutSpec(
            cores=cores,
            policy=policy,
            lc_name=lc_name,
            load=load,
            requests=requests,
            seed=seed,
        )
        for cores in core_counts
        for policy in _SCALEOUT_POLICIES
    ]
    session = session or get_session()
    return session.run_many(specs)
