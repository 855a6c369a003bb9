"""Batch execution: sweep specs are planned into replay groups once.

``execute_specs`` partitions a batch's sweep specs into replay groups
with one ``plan_groups`` call and replays each group on the production
engine.  Its records must equal the scalar oracle's — ``execute_spec``
per spec — in spec order.
"""

import repro.runtime.work as work
from repro.runtime.spec import MixRef, PolicySpec, RunSpec
from repro.runtime.work import execute_spec, execute_specs

SWEEP_SPECS = [
    RunSpec(
        mix=MixRef(lc_name="masstree", load=0.2, combo="nft"),
        policy=policy,
        requests=30,
    )
    for policy in (
        PolicySpec.of("ubik", slack=0.05),
        PolicySpec.of("lru", label="LRU"),
    )
]


def test_plans_groups_once(monkeypatch):
    """A batch derives one key per sweep spec and calls ``plan_groups``
    exactly once over them; the records equal the oracle's."""
    calls = []
    real = work.plan_groups

    def spy(keys):
        calls.append(list(keys))
        return real(keys)

    monkeypatch.setattr(work, "plan_groups", spy)
    grouped = execute_specs(SWEEP_SPECS, store=None)
    assert len(calls) == 1
    assert len(calls[0]) == len(SWEEP_SPECS)
    assert grouped == [execute_spec(spec, None) for spec in SWEEP_SPECS]


def test_results_keep_spec_order():
    results = execute_specs(list(reversed(SWEEP_SPECS)), store=None)
    assert [r.policy for r in results] == [
        spec.policy.display for spec in reversed(SWEEP_SPECS)
    ]
