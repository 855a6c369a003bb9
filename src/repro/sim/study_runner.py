"""Engine drivers for the extension studies (scaleout, bandwidth).

The scaleout and bandwidth experiments used to build engines inline,
which kept them off the runtime: no result store and no ``--jobs``.
Their engine-driving code now lives here, below the
runtime, as two plain functions taking a declarative spec plus an
optional store; the experiment modules define the spec types and hand
batches to a :class:`~repro.runtime.session.Session`.  Every point,
baseline instances included, runs on its own production engine
(:class:`~repro.sim.engine.MixEngine`), which owns its memos and builds
its policy views in one place, as for a sweep cell.

Both drivers reproduce the historical experiments' streams and seeds
exactly, so migrating onto the runtime changed no numbers.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..server.latency import percentile_latency, tail_mean
from ..workloads.arrivals import generate_arrivals
from ..workloads.batch import make_batch_workload
from ..workloads.latency_critical import make_lc_workload
from ..workloads.mixes import make_mix_specs
from .bandwidth import BandwidthModel
from .config import CMPConfig
from .engine import LCInstanceSpec, MixEngine
from .mix_runner import MixRunner

__all__ = [
    "bandwidth_engine",
    "run_bandwidth_point",
    "run_scaleout_point",
    "scaleout_baseline_instance",
    "scaleout_engine",
]


# ----------------------------------------------------------------------
# Scaleout
# ----------------------------------------------------------------------
def _scaleout_stream(
    workload, load: float, instance: int, requests: int, seed: int, config
):
    """One instance's fixed-work stream (historical seeding preserved).

    The scaleout study predates :meth:`MixRunner.stream` and seeds
    differently — ``default_rng((seed, instance))``, service time from
    the default core — so its streams are derived here, once, for both
    the baseline instances and the joint replay.
    """
    rng = np.random.default_rng((seed, instance))
    works = workload.work.sample_many(rng, requests)
    arrivals = generate_arrivals(
        requests,
        load,
        workload.mean_service_cycles(),
        rng,
        coalescing_timeout_cycles=config.coalescing_timeout_cycles,
    )
    return arrivals, works


def _scaleout_config(cores: int):
    """The size-parameterized machine: 2 MB of LLC per core."""
    return CMPConfig(num_cores=cores).with_llc_mb(2.0 * cores)


def _scaleout_lc_specs(
    workload, load: float, instances: int, requests: int, seed: int, config
) -> List[LCInstanceSpec]:
    """Per-instance fixed-work streams for the joint replay."""
    specs = []
    for instance in range(instances):
        arrivals, works = _scaleout_stream(
            workload, load, instance, requests, seed, config
        )
        specs.append(
            LCInstanceSpec(
                workload=workload,
                arrivals=arrivals,
                works=works,
                deadline_cycles=1.0,  # refined after the baseline run
                target_tail_cycles=1.0,
                load=load,
            )
        )
    return specs


def scaleout_baseline_instance(
    lc_name: str,
    load: float,
    requests: int,
    seed: int,
    cores: int,
    instance: int,
):
    """Run one scaleout LC instance alone on the ``cores``-core machine.

    The stream and engine seeding are the study's historical ones
    (stream RNG ``(seed, instance)``, engine seed ``seed`` shared by
    all instances).  Returns the instance's
    :class:`~repro.sim.results.LCInstanceResult`.
    """
    workload = make_lc_workload(lc_name)
    config = _scaleout_config(cores)
    arrivals, works = _scaleout_stream(
        workload, load, instance, requests, seed, config
    )
    spec = LCInstanceSpec(
        workload=workload,
        arrivals=arrivals,
        works=works,
        deadline_cycles=1.0,
        target_tail_cycles=1.0,
        load=load,
    )
    engine = MixEngine.isolated(
        spec,
        config=config,
        target_lines=float(workload.target_lines),
        seed=seed,
        mix_id="scaleout-baseline",
    )
    return engine.run().lc_instances[0]


def _scaleout_baseline(store, identity: dict) -> Tuple[float, float]:
    """Pooled tail of the study's streams run alone at the target size.

    Using the identical fixed-work streams keeps the comparison
    sample-balanced (the paper's methodology).  The ``cores // 2`` LC
    instances run one after another in index order, their latencies
    pool in that order, and the tail metrics are computed once over the
    pool.  The summary is stored under a policy-independent
    ``scaleout_baseline`` fingerprint, so every policy point reuses one
    computation.
    """
    fingerprint = None
    if store is not None:
        from ..runtime.spec import SPEC_SCHEMA_VERSION, fingerprint_payload

        fingerprint = fingerprint_payload(
            dict(identity, kind="scaleout_baseline", v=SPEC_SCHEMA_VERSION)
        )
        doc = store.get(fingerprint)
        if doc is not None and doc.get("kind") == "scaleout_baseline":
            return doc["tail95_cycles"], doc["p95_cycles"]
    pooled: List[float] = []
    for instance in range(identity["cores"] // 2):
        result = scaleout_baseline_instance(
            lc_name=identity["lc_name"],
            load=identity["load"],
            requests=identity["requests"],
            seed=identity["seed"],
            cores=identity["cores"],
            instance=instance,
        )
        pooled.extend(float(x) for x in result.latencies)
    tail95 = tail_mean(pooled, 95.0)
    p95 = percentile_latency(pooled, 95.0)
    if store is not None:
        store.put(
            fingerprint,
            {
                "kind": "scaleout_baseline",
                "tail95_cycles": tail95,
                "p95_cycles": p95,
            },
        )
    return tail95, p95


def scaleout_engine(spec, store=None) -> Tuple[MixEngine, float]:
    """The joint-replay engine of one scaleout point, and its baseline tail.

    ``spec`` is a :class:`~repro.experiments.scaleout.ScaleoutSpec`;
    half the cores run LC instances, half batch apps, with the LLC
    growing proportionally (2 MB per core, as in the baseline).  The
    engine is fresh; :func:`run_scaleout_point` runs it.
    """
    cores = spec.cores
    workload = make_lc_workload(spec.lc_name)
    batch_classes = ("n", "f", "t", "s")
    config = _scaleout_config(cores)
    lc_instances = cores // 2
    batch_apps = [
        make_batch_workload(batch_classes[i % 4], seed=spec.seed + i, instance=i)
        for i in range(cores - lc_instances)
    ]
    lc_specs = _scaleout_lc_specs(
        workload, spec.load, lc_instances, spec.requests, spec.seed, config
    )
    tail95, p95 = _scaleout_baseline(
        store,
        identity={
            "cores": cores,
            "lc_name": spec.lc_name,
            "load": spec.load,
            "requests": spec.requests,
            "seed": spec.seed,
        },
    )
    lc_specs = [
        LCInstanceSpec(
            workload=s.workload,
            arrivals=s.arrivals,
            works=s.works,
            deadline_cycles=p95,
            target_tail_cycles=tail95,
            load=s.load,
        )
        for s in lc_specs
    ]
    policy = spec.policy.build()
    engine = MixEngine(
        lc_specs=lc_specs,
        batch_workloads=batch_apps,
        policy=policy,
        config=config,
        seed=spec.seed,
        baseline_lines=float(workload.target_lines),
        mix_id=f"scaleout-{cores}",
    )
    return engine, tail95


def run_scaleout_point(spec, store=None):
    """One (machine size, policy) scaleout measurement.

    ``spec`` is a :class:`~repro.experiments.scaleout.ScaleoutSpec`;
    the engine comes from :func:`scaleout_engine`.
    """
    from ..experiments.scaleout import ScaleOutResult

    engine, tail95 = scaleout_engine(spec, store)
    result = engine.run()
    result.baseline_tail_cycles = tail95
    return ScaleOutResult(
        cores=spec.cores,
        policy=engine.policy.name,
        tail_degradation=result.tail_degradation(),
        weighted_speedup=result.weighted_speedup(),
    )


# ----------------------------------------------------------------------
# Bandwidth
# ----------------------------------------------------------------------
def bandwidth_engine(spec, store=None) -> Tuple[MixEngine, float]:
    """The engine of one bandwidth-contention point, and its baseline tail.

    ``spec`` is a
    :class:`~repro.experiments.bandwidth_study.BandwidthSpec`.  The
    isolated baseline goes through :class:`MixRunner` with the store
    attached, so it is computed once and shared with the sweep grids.

    Contention rescales the miss penalties every interval.  No engine
    memo depends on a penalty, so the point runs on the production
    engine like any other.  The engine is fresh;
    :func:`run_bandwidth_point` runs it.
    """
    mix = make_mix_specs(
        lc_names=[spec.lc_name], loads=[spec.load], mixes_per_combo=1
    )[spec.mix_index]
    runner = MixRunner(requests=spec.requests, seed=spec.seed, store=store)
    baseline = runner.baseline(mix.lc_workload, spec.load)
    bandwidth = BandwidthModel(
        peak_misses_per_kilocycle=spec.peak_misses_per_kilocycle
    )
    policy = spec.policy.build()
    lc_specs = []
    for instance in range(3):
        arrivals, works = runner.stream(mix.lc_workload, spec.load, instance)
        lc_specs.append(
            LCInstanceSpec(
                workload=mix.lc_workload,
                arrivals=arrivals,
                works=works,
                deadline_cycles=baseline.p95_cycles,
                target_tail_cycles=baseline.tail95_cycles,
                load=spec.load,
            )
        )
    engine = MixEngine(
        lc_specs=lc_specs,
        batch_workloads=list(mix.batch_apps),
        policy=policy,
        config=CMPConfig(),
        seed=spec.seed,
        baseline_lines=float(mix.lc_workload.target_lines),
        mix_id=f"bw-{spec.peak_misses_per_kilocycle}",
        bandwidth=bandwidth,
    )
    return engine, baseline.tail95_cycles


def run_bandwidth_point(spec, store=None):
    """One (channel capacity, policy) bandwidth-contention measurement.

    ``spec`` is a
    :class:`~repro.experiments.bandwidth_study.BandwidthSpec`; the
    engine comes from :func:`bandwidth_engine`.
    """
    from ..experiments.bandwidth_study import BandwidthPoint

    engine, tail95 = bandwidth_engine(spec, store)
    result = engine.run()
    result.baseline_tail_cycles = tail95
    return BandwidthPoint(
        peak_misses_per_kilocycle=spec.peak_misses_per_kilocycle,
        policy=engine.policy.name,
        tail_degradation=result.tail_degradation(),
        weighted_speedup=result.weighted_speedup(),
    )
