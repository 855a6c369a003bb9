"""Policy-comparison sweeps shared by Figures 9-11 and Table 3.

A sweep runs every scaled mix under every scheme and records the two
paper metrics per run: tail-latency degradation and weighted speedup.
Sweeps execute on the :mod:`repro.runtime` session — declarative
:class:`~repro.runtime.spec.RunSpec` grids served from the persistent
result store and fanned across the session's ``jobs`` workers — so
the several benchmarks reading the same data (Fig 9, Fig 10, Table 3)
trigger a single computation *across processes*, not just within one.
A serial session replays the policy cells of each mix as one replay
group (:meth:`~repro.sim.mix_runner.MixRunner.run_mix_group`).

:func:`run_policy_sweep` is the load-bearing entry point: policies are
:class:`~repro.runtime.spec.PolicySpec` entries (the five paper schemes
by default) and the scheme a :class:`~repro.runtime.spec.SchemeSpec`
or registry name.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple, Union

from ..sim.config import CoreKind
from ..runtime.session import DEFAULT_POLICIES, Session, get_session
from ..runtime.spec import PolicySpec, RunRecord, SchemeSpec, SweepResult
from .common import ExperimentScale

__all__ = [
    "DEFAULT_POLICIES",
    "RunRecord",
    "SweepResult",
    "run_policy_sweep",
]

#: Process-local identity memo so repeated calls (and tests asserting
#: ``again is sweep``) get the same object back without re-reading the
#: store.
_CACHE: Dict[Tuple, SweepResult] = {}


def run_policy_sweep(
    scale: ExperimentScale,
    core_kind: str = CoreKind.OOO,
    scheme: Union[SchemeSpec, str, None] = None,
    policies: Optional[Sequence[PolicySpec]] = None,
    session: Optional[Session] = None,
) -> SweepResult:
    """Run (or fetch) the full mixes x policies sweep.

    ``policies`` defaults to the five paper schemes; the grid runs on
    ``session`` (the process default when omitted) — its store plus its
    worker count.
    """
    session = session or get_session()
    policies = tuple(policies) if policies is not None else DEFAULT_POLICIES
    scheme_spec = SchemeSpec.of(scheme) if isinstance(scheme, str) else scheme
    # Key the memo on the store's identity too: a sweep served from
    # one store must not satisfy a request aimed at another.
    key = (scale, core_kind, policies, scheme_spec, session.store.memo_key)
    hit = _CACHE.get(key)
    if hit is not None:
        return hit
    sweep = session.sweep(
        scale, policies=policies, scheme=scheme_spec, core_kind=core_kind
    )
    _CACHE[key] = sweep
    return sweep
