"""Spec evaluation primitives below the session facade.

:meth:`~repro.runtime.session.Session.run_many` evaluates every batch
from these operations on a unit of work — a
:class:`~repro.runtime.spec.RunSpec` or any
:class:`~repro.runtime.spec.TaskSpec`:

* :func:`store_lookup` — fingerprint it and probe the store (a hit
  never occupies a worker),
* :func:`execute_specs` — evaluate a batch in-process, store-aware,
  with the sweep cells of each mix replayed as one replay group
  (:func:`plan_groups`): one baseline lookup and one list of LC
  instance specs, then one engine per cell, each owning its memos,
* :func:`execute_in_worker` — the picklable process-pool entry point
  (per-process store handles so workers share warmed baselines),
* :func:`cache_result` — keep a result a worker persisted in the
  parent store's dict.

Both evaluators label every record for its own spec, so a batch's
results line up with its specs whichever path ran them.

Every unit of work the runtime knows — sweep :class:`RunSpec`\\ s and
scaleout/bandwidth tasks — flows through :func:`execute_specs`, which
is what makes new spec kinds cheap: implement :meth:`TaskSpec.compute`
and the session, the store, and the CLI handle it at any ``--jobs``
with no further wiring.
Sweep records always replay on the production engine
(:meth:`~repro.sim.mix_runner.MixRunner.run_mix_group`).
:func:`execute_spec` is kept as the scalar oracle for one spec.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from .spec import RunRecord, RunSpec, TaskSpec
from .store import ResultStore

__all__ = [
    "plan_groups",
    "record_from_result",
    "execute_spec",
    "execute_specs",
    "execute_in_worker",
    "store_lookup",
    "cache_result",
]


def record_from_result(
    result, policy_label: str, lc_name: str, load_label: str
) -> RunRecord:
    """One sweep :class:`RunRecord` from a :class:`MixResult`.

    The single place the record's metrics are derived, shared by the
    production path (:func:`execute_specs`) and the oracle
    (:func:`execute_spec`), so the two stay record-for-record
    identical as fields are added.
    """
    return RunRecord(
        mix_id=result.mix_id,
        lc_name=lc_name,
        load_label=load_label,
        policy=policy_label,
        tail_degradation=result.tail_degradation(),
        weighted_speedup=result.weighted_speedup(),
        lc_tail_cycles=result.tail95(),
        baseline_tail_cycles=result.baseline_tail_cycles,
        deboosts=sum(i.deboosts for i in result.lc_instances),
        watermarks=sum(i.watermarks for i in result.lc_instances),
    )


def _execute_run_spec(spec: RunSpec, store: Optional[ResultStore]) -> RunRecord:
    """Evaluate one sweep spec through the scalar ``run_mix`` oracle."""
    fingerprint = spec.fingerprint()
    if store is not None:
        hit = store.get_record(fingerprint)
        if hit is not None:
            return hit.relabeled(spec.policy.display)
    from ..sim.mix_runner import MixRunner

    config = spec.config()
    runner = MixRunner(
        config=config,
        requests=spec.requests,
        seed=spec.seed,
        umon_noise=spec.umon_noise,
        warmup_fraction=spec.warmup_fraction,
        store=store,
    )
    mix = spec.mix.build()
    scheme = spec.scheme.build(config.llc_lines) if spec.scheme else None
    result = runner.run_mix(mix, spec.policy.build(), scheme=scheme)
    record = record_from_result(
        result,
        policy_label=spec.policy.display,
        lc_name=mix.lc_workload.name,
        load_label=mix.load_label,
    )
    if store is not None:
        store.put_record(fingerprint, record)
    return record


def execute_spec(spec, store: Optional[ResultStore] = None):
    """Evaluate one spec of any kind through the scalar oracle.

    On a store hit the stored result is returned (sweep records
    relabeled to the spec's display label); otherwise the work is
    rebuilt from the spec, computed, and persisted before returning.
    A :class:`RunSpec` replays through
    :meth:`~repro.sim.mix_runner.MixRunner.run_mix` on the heap-loop
    oracle :class:`~repro.sim.reference.NaiveMixEngine`; task specs
    compute as they do everywhere.  No production
    path calls this: :func:`execute_specs` is the runtime's evaluator,
    and this function exists so tests and the benchmark's output check
    can compare its records against production's.
    """
    if isinstance(spec, RunSpec):
        return _execute_run_spec(spec, store)
    if isinstance(spec, TaskSpec):
        return spec.execute(store)
    raise TypeError(f"cannot execute {type(spec).__name__}: not a spec")


def _replay_group_key(spec: RunSpec) -> Tuple:
    """Everything two sweep cells must share to replay as one group.

    These are the group-planning rules: equal mix reference (hence
    equal streams, curves and baseline) and equal engine-visible run
    parameters.  Policy and scheme deliberately stay out — differing
    decisions over the same streams are what a group exists to compare.
    """
    return (
        spec.mix,
        spec.core_kind,
        spec.requests,
        spec.seed,
        spec.umon_noise,
        spec.warmup_fraction,
    )


def plan_groups(keys: Iterable[Hashable]) -> List[List[int]]:
    """Partition positions into replay groups by key equality.

    Returns groups in first-appearance order, each a list of original
    positions in input order, so callers can execute groups and
    scatter results back without reordering anything observable.
    """
    buckets: Dict[Hashable, List[int]] = {}
    order: List[List[int]] = []
    for pos, key in enumerate(keys):
        bucket = buckets.get(key)
        if bucket is None:
            bucket = buckets[key] = []
            order.append(bucket)
        bucket.append(pos)
    return order


def _execute_run_group(specs: Sequence[RunSpec], store: Optional[ResultStore]) -> List[RunRecord]:
    """Evaluate one replay group of sweep specs, in spec order.

    Per-spec behaviour matches :func:`_execute_run_spec` exactly —
    a store hit is served relabeled without simulating, a miss is
    simulated and persisted under its fingerprint, and when two specs
    in the batch share a fingerprint only the first simulates and
    persists (the second adopts its record relabeled, just as its
    sequential store probe would have) — so store trees stay
    byte-identical to per-spec execution through :func:`execute_spec`.
    The misses all simulate through one
    :meth:`~repro.sim.mix_runner.MixRunner.run_mix_group` call, one
    engine per cell over one baseline and one list of LC instance
    specs, verified bit-identical to the scalar ``run_mix`` oracle.
    """
    records: List[Optional[RunRecord]] = [None] * len(specs)
    pending: List[Tuple[int, RunSpec, str]] = []
    adopters: List[Tuple[int, RunSpec, str]] = []
    pending_fingerprints = set()
    for position, spec in enumerate(specs):
        fingerprint = spec.fingerprint()
        if fingerprint in pending_fingerprints:
            adopters.append((position, spec, fingerprint))
            continue
        if store is not None:
            hit = store.get_record(fingerprint)
            if hit is not None:
                records[position] = hit.relabeled(spec.policy.display)
                continue
        pending.append((position, spec, fingerprint))
        pending_fingerprints.add(fingerprint)
    if pending:
        from ..sim.mix_runner import MixRunner

        first = pending[0][1]
        config = first.config()
        runner = MixRunner(
            config=config,
            requests=first.requests,
            seed=first.seed,
            umon_noise=first.umon_noise,
            warmup_fraction=first.warmup_fraction,
            store=store,
        )
        mix = first.mix.build()
        results = runner.run_mix_group(
            mix,
            [
                (
                    spec.policy.build(),
                    spec.scheme.build(config.llc_lines) if spec.scheme else None,
                )
                for __, spec, __fp in pending
            ],
        )
        computed = {}
        for (position, spec, fingerprint), result in zip(pending, results):
            record = record_from_result(
                result,
                policy_label=spec.policy.display,
                lc_name=mix.lc_workload.name,
                load_label=mix.load_label,
            )
            if store is not None:
                store.put_record(fingerprint, record)
            records[position] = record
            computed[fingerprint] = record
        for position, spec, fingerprint in adopters:
            records[position] = computed[fingerprint].relabeled(spec.policy.display)
    return records


def execute_specs(specs: Sequence[Any], store: Optional[ResultStore] = None) -> List[Any]:
    """Evaluate a batch of specs in-process, grouping sweep replays.

    Sweep :class:`RunSpec`\\ s are partitioned into replay groups
    (:func:`plan_groups` over :func:`_replay_group_key`) and each group
    executes through one
    :meth:`~repro.sim.mix_runner.MixRunner.run_mix_group` call; a lone
    spec is a group of one.  Task specs compute as they do everywhere.
    Results come back in spec order, bit-identical to per-spec
    evaluation through :func:`execute_spec`.
    """
    specs = list(specs)
    results: List[Any] = [None] * len(specs)
    grouped_positions: List[int] = []
    for position, spec in enumerate(specs):
        if isinstance(spec, RunSpec):
            grouped_positions.append(position)
        else:
            results[position] = execute_spec(spec, store)
    if grouped_positions:
        keys = [_replay_group_key(specs[p]) for p in grouped_positions]
        for group in plan_groups(keys):
            members = [grouped_positions[g] for g in group]
            group_records = _execute_run_group([specs[p] for p in members], store)
            for position, record in zip(members, group_records):
                results[position] = record
    return results


def store_lookup(spec, store: Optional[ResultStore]) -> Tuple[str, Optional[Any]]:
    """(fingerprint, stored result or ``None``) for any spec kind."""
    if isinstance(spec, RunSpec):
        fingerprint = spec.fingerprint()
        if store is None:
            return fingerprint, None
        hit = store.get_record(fingerprint)
        return fingerprint, (
            hit.relabeled(spec.policy.display) if hit is not None else None
        )
    if isinstance(spec, TaskSpec):
        return spec.fingerprint(), spec.lookup(store)
    raise TypeError(f"cannot look up {type(spec).__name__}: not a spec")


def cache_result(spec, store: ResultStore, fingerprint: str, result) -> None:
    """Keep a result in the parent store's dict after a worker computed
    (and persisted) a result in another process — no second disk write."""
    if isinstance(spec, RunSpec) and isinstance(result, RunRecord):
        store.cache_record(fingerprint, result)
    elif isinstance(spec, TaskSpec):
        store.cache_doc(
            fingerprint, {"kind": spec.kind, "result": spec.encode(result)}
        )


#: Per-process store handles, keyed by the share target — a store
#: URL or bare path (None = memory-only).  Reusing one handle across
#: the specs a worker evaluates keeps its dict of documents warm for
#: the whole batch.
_WORKER_STORES: dict = {}


def execute_in_worker(spec, store_target: Optional[str]):
    """Module-level worker entry point (picklable for process pools).

    Two layers of worker-warm state survive across the specs a process
    evaluates in a batch: the per-target store handle below (its memory
    layer of documents read or written) and the process-wide artifact
    cache (:mod:`repro.runtime.artifacts` — synthesized streams,
    baselines whether simulated or read from the store, workload and
    core-model objects), which every
    :class:`~repro.sim.mix_runner.MixRunner` the spec evaluation builds
    consults first.  Together they make a worker
    evaluate each distinct sub-computation once per process, not once
    per spec.  The spec evaluates as a batch of one through
    :func:`execute_specs`, the same engine the serial path runs.
    """
    store = _WORKER_STORES.get(store_target)
    if store is None:
        store = ResultStore(store_target)
        _WORKER_STORES[store_target] = store
    return execute_specs([spec], store)[0]
