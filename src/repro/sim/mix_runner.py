"""Mix execution: baselines, request streams, and policy comparisons.

Implements the paper's measurement methodology (Section 6):

* each LC app is first run **alone** with a fixed 2 MB partition (the
  private-LLC baseline); the pooled tail of those runs is both the
  normalization denominator for *tail latency degradation* and the
  source of Ubik's deadline (the 95th-percentile latency at the target
  size);
* the same request streams (fixed work, randomized arrivals) are then
  replayed in the six-app mix under each policy, making comparisons
  across schemes sample-balanced;
* batch apps are normalized to their steady-state IPC with a private
  2 MB LLC, giving the weighted-speedup metric.

Every simulation here runs on :class:`~repro.sim.engine.MixEngine`: a
baseline instance alone (:meth:`MixRunner.baseline_instance`) and each
mix's policy cells as one replay group (:meth:`MixRunner.run_mix_group`),
whose cells share one baseline lookup and one list of LC instance specs
and run one engine each; every engine owns its memos.
:meth:`MixRunner.run_mix` replays a single cell through the scalar
oracle :class:`~repro.sim.reference.NaiveMixEngine` instead: it is what
the equivalence walls compare production against, not a production
path.

Streams and baselines are served from the process-wide artifact cache
(:mod:`repro.runtime.artifacts`), so every runner in a process shares
them.  A baseline resolves in one order — artifact cache, store,
simulation — and lands in every layer that lacked it.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..cache.schemes import SchemeModel
from ..cpu import make_core_model
from ..policies.base import Policy
from ..runtime.artifacts import get_artifacts, stream_key
from ..server.latency import percentile_latency, tail_mean
from ..workloads.arrivals import generate_arrivals
from ..workloads.latency_critical import LCWorkload
from ..workloads.mixes import MixSpec
from ..workloads.names import MIN_TAIL_REQUESTS
from .config import CMPConfig
from .engine import LCInstanceSpec, MixEngine
from .results import MixResult

__all__ = ["BaselineResult", "MixRunner"]

#: Default request count per LC instance in scaled runs.
DEFAULT_REQUESTS = 300

#: Instances of the LC workload per mix (paper: three).
LC_INSTANCES = 3


@dataclass(frozen=True)
class BaselineResult:
    """Isolated-run latencies for one LC workload at one load."""

    tail95_cycles: float  # mean beyond p95: the degradation denominator
    p95_cycles: float  # pure percentile: Ubik's deadline
    latencies: Tuple[float, ...]


class MixRunner:
    """Runs mixes over shared request streams and isolated baselines."""

    def __init__(
        self,
        config: Optional[CMPConfig] = None,
        requests: int = DEFAULT_REQUESTS,
        seed: int = 1,
        umon_noise: float = 0.02,
        warmup_fraction: float = 0.05,
        store: Optional["ResultStore"] = None,
    ):
        self.config = config or CMPConfig()
        if requests < MIN_TAIL_REQUESTS:
            raise ValueError(
                f"need at least {MIN_TAIL_REQUESTS} requests for tail metrics"
            )
        self.requests = requests
        self.seed = seed
        self.umon_noise = umon_noise
        self.warmup_fraction = warmup_fraction
        #: Optional persistent result store; when set, isolated
        #: baselines are fetched from / written to it so every process
        #: sharing the store computes each baseline exactly once.
        self.store = store

    # ------------------------------------------------------------------
    # Request streams
    # ------------------------------------------------------------------
    def stream(
        self, workload: LCWorkload, load: float, instance: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(arrivals, works) for one instance, deterministic in seed.

        Streams are served from the process-wide artifact cache
        (:mod:`repro.runtime.artifacts`) keyed by the content signature
        of every input — workload, load, instance, request count, seed,
        and the full config fingerprint — so a sweep synthesizes each
        distinct stream once per process: the baseline phase, every
        policy's replay, and every spec sharing the (lc, load) point
        reuse the same frozen arrays.  Synthesis itself is vectorized
        (:meth:`~repro.workloads.service_time.WorkDistribution.sample_many`),
        bit-identical to the scalar loop kept in
        :mod:`repro.workloads.reference`.
        """
        return get_artifacts().get_or_make(
            "stream",
            stream_key(
                workload, load, instance, self.requests, self.seed, self.config
            ),
            lambda: self._synthesize_stream(workload, load, instance),
        )

    def _synthesize_stream(
        self, workload: LCWorkload, load: float, instance: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Actually synthesize one instance's (arrivals, works) arrays."""
        name_key = zlib.crc32(workload.name.encode()) & 0xFFFF
        rng = np.random.default_rng((self.seed, name_key, instance))
        works = workload.work.sample_many(rng, self.requests)
        core = get_artifacts().get_or_make(
            "core_model",
            (self.config.core_kind, self.config.mem_latency_cycles),
            lambda: make_core_model(
                self.config.core_kind, self.config.mem_latency_cycles
            ),
        )
        mean_service = workload.mean_service_cycles(core)
        arrivals = generate_arrivals(
            self.requests,
            load,
            mean_service,
            rng,
            coalescing_timeout_cycles=self.config.coalescing_timeout_cycles,
        )
        # Streams may be shared across runs via the artifact cache;
        # freeze them so accidental mutation fails loudly instead of
        # corrupting a neighbour's simulation.
        arrivals.flags.writeable = False
        works.flags.writeable = False
        return arrivals, works

    # ------------------------------------------------------------------
    # Baselines
    # ------------------------------------------------------------------
    def _baseline_fingerprint(self, workload: LCWorkload, load: float) -> str:
        """Store key capturing everything the baseline depends on."""
        from ..runtime.artifacts import config_key
        from ..runtime.spec import BaselineSpec

        return BaselineSpec(
            lc_name=workload.name,
            load=load,
            core_kind=self.config.core_kind,
            requests=self.requests,
            seed=self.seed,
            warmup_fraction=self.warmup_fraction,
            target_lines=int(workload.target_lines),
            config_key=config_key(self.config),
        ).fingerprint()

    def baseline_instance(self, workload: LCWorkload, load: float, instance: int):
        """Run one LC instance alone at its target allocation.

        Returns the instance's
        :class:`~repro.sim.results.LCInstanceResult` (post-warmup
        latency pool plus served/activation counters).  Instances share
        no state: each draws its own request stream (:meth:`stream`)
        and its own engine seed (``seed + instance``).
        """
        arrivals, works = self.stream(workload, load, instance)
        spec = LCInstanceSpec(
            workload=workload,
            arrivals=arrivals,
            works=works,
            deadline_cycles=1.0,  # unused by FixedPolicy
            target_tail_cycles=1.0,
            load=load,
        )
        engine = MixEngine.isolated(
            spec,
            config=self.config,
            target_lines=float(workload.target_lines),
            seed=self.seed + instance,
            warmup_fraction=self.warmup_fraction,
            mix_id=f"baseline-{workload.name}",
        )
        return engine.run().lc_instances[0]

    def baseline(self, workload: LCWorkload, load: float) -> BaselineResult:
        """Isolated run at the target allocation (cached).

        Lookup order: the process-wide artifact cache (which lets a
        long-lived worker serve a baseline to every spec in a batch,
        store or no store), the store (if attached), then a fresh
        three-instance isolated simulation.  The result goes into the
        artifact cache, and into the store whenever the store lacks
        it — an artifact-served baseline included — so a store filled
        by a warm process holds exactly the documents a cold process
        writes.  The simulation itself is :meth:`baseline_instance`
        applied to instances ``0..LC_INSTANCES-1`` with the pools
        concatenated in instance order.
        """
        fingerprint = self._baseline_fingerprint(workload, load)
        artifacts = get_artifacts()
        baseline = artifacts.get("baseline", fingerprint)
        if baseline is not None:
            if self.store is not None and self.store.get(fingerprint) is None:
                self.store.put_baseline(fingerprint, baseline)
            return baseline
        if self.store is not None:
            baseline = self.store.get_baseline(fingerprint)
        if baseline is None:
            pooled: List[float] = []
            for instance in range(LC_INSTANCES):
                pooled.extend(
                    self.baseline_instance(workload, load, instance).latencies
                )
            baseline = BaselineResult(
                tail95_cycles=tail_mean(pooled, 95.0),
                p95_cycles=percentile_latency(pooled, 95.0),
                latencies=tuple(pooled),
            )
            if self.store is not None:
                self.store.put_baseline(fingerprint, baseline)
        artifacts.put("baseline", fingerprint, baseline)
        return baseline

    # ------------------------------------------------------------------
    # Mix execution
    # ------------------------------------------------------------------
    def run_mix(
        self, spec: MixSpec, policy: Policy, scheme: Optional[SchemeModel] = None
    ) -> MixResult:
        """Run one six-app mix under one policy through the scalar oracle.

        This is :class:`~repro.sim.reference.NaiveMixEngine`, the
        reference every production replay is measured against:
        :meth:`run_mix_group` must return a bit-identical
        :class:`~repro.sim.results.MixResult` for the same cell.  Only
        the equivalence walls, the bench and
        :func:`~repro.runtime.work.execute_spec` call it.
        """
        result = self.mix_engine(spec, policy, scheme=scheme).run()
        result.baseline_tail_cycles = self.baseline(
            spec.lc_workload, spec.load
        ).tail95_cycles
        return result

    def mix_engine(
        self, spec: MixSpec, policy: Policy, scheme: Optional[SchemeModel] = None
    ) -> MixEngine:
        """The fresh oracle engine :meth:`run_mix` replays for one cell.

        Exposed so an oracle can consume a twin of the engine
        (``tests/sim/test_unmanaged_equivalence.py`` runs the reference
        unmanaged loop on it).
        """
        from .reference import NaiveMixEngine

        baseline = self.baseline(spec.lc_workload, spec.load)
        return self._engine(
            NaiveMixEngine, spec, self._mix_lc_specs(spec, baseline), policy, scheme
        )

    def _engine(
        self,
        engine_cls,
        spec: MixSpec,
        lc_specs: List[LCInstanceSpec],
        policy: Policy,
        scheme: Optional[SchemeModel],
    ) -> MixEngine:
        """One cell's engine of class ``engine_cls`` over ``lc_specs``."""
        return engine_cls(
            lc_specs=lc_specs,
            batch_workloads=list(spec.batch_apps),
            policy=policy,
            config=self.config,
            scheme=scheme,
            seed=self.seed,
            umon_noise=self.umon_noise,
            warmup_fraction=self.warmup_fraction,
            baseline_lines=float(spec.lc_workload.target_lines),
            mix_id=spec.mix_id,
        )

    def _mix_lc_specs(
        self, spec: MixSpec, baseline: BaselineResult
    ) -> List[LCInstanceSpec]:
        """The three LC instance specs of one mix (shared-array streams)."""
        lc_specs = []
        for instance in range(LC_INSTANCES):
            arrivals, works = self.stream(spec.lc_workload, spec.load, instance)
            lc_specs.append(
                LCInstanceSpec(
                    workload=spec.lc_workload,
                    arrivals=arrivals,
                    works=works,
                    deadline_cycles=baseline.p95_cycles,
                    target_tail_cycles=baseline.tail95_cycles,
                    load=spec.load,
                )
            )
        return lc_specs

    def run_mix_group(
        self,
        spec: MixSpec,
        cells: List[Tuple[Policy, Optional[SchemeModel]]],
    ) -> List[MixResult]:
        """Replay one mix under many policy/scheme cells as one group.

        The group looks its baseline up once and builds one list of LC
        instance specs over the mix's streams; each cell then runs on
        its own :class:`~repro.sim.engine.MixEngine`, which owns its
        memos, so nothing passes from one cell's engine to the next.
        Results come back in ``cells`` order, each bit-identical to the
        corresponding :meth:`run_mix` — the equivalence suite pins that
        contract.

        The first cell is counted as a ``replay_group`` miss (it looked
        the baseline and streams up) and each subsequent cell as a hit,
        surfacing the sharing through ``repro cache --stats`` next to
        the other artifact kinds.
        """
        artifacts = get_artifacts()
        baseline = self.baseline(spec.lc_workload, spec.load)
        lc_specs = self._mix_lc_specs(spec, baseline)
        results = []
        for position, (policy, scheme) in enumerate(cells):
            artifacts.count("replay_group", hit=position > 0)
            engine = self._engine(MixEngine, spec, lc_specs, policy, scheme)
            result = engine.run()
            result.baseline_tail_cycles = baseline.tail95_cycles
            results.append(result)
        return results
