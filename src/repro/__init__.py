"""repro: a reproduction of *Ubik: Efficient Cache Sharing with Strict
QoS for Latency-Critical Workloads* (Kasture & Sanchez, ASPLOS 2014).

Quick tour — the declarative runtime API
----------------------------------------

>>> from repro import Session, RunSpec, MixRef, PolicySpec
>>> session = Session()                 # persistent store, REPRO_JOBS workers
>>> spec = RunSpec(
...     mix=MixRef(lc_name="shore", load=0.2, combo="nft"),
...     policy=PolicySpec.of("ubik", slack=0.05),
...     requests=100,
... )
>>> record = session.run(spec)                       # doctest: +SKIP
>>> record.tail_degradation  # ~1.0: tail preserved  # doctest: +SKIP
>>> record.weighted_speedup  # >1.0: batch sped up   # doctest: +SKIP

Whole sweep grids run the same way (``session.sweep(scale)``), fanned
across cores with ``Session(jobs=N)`` and served from the on-disk
result store on repeat runs.  The imperative API remains: a mix's
policy cells replay as one group on the production engine::

>>> from repro import make_mix_specs, MixRunner, UbikPolicy, UCPPolicy
>>> spec = make_mix_specs(lc_names=["shore"], loads=[0.2], mixes_per_combo=1)[0]
>>> runner = MixRunner(requests=100)
>>> ubik, ucp = runner.run_mix_group(                          # doctest: +SKIP
...     spec, [(UbikPolicy(slack=0.05), None), (UCPPolicy(), None)]
... )

Packages:

* :mod:`repro.core` — Ubik itself: transient bounds, boost sizing,
  repartitioning table, de-boost circuit, slack controller.
* :mod:`repro.policies` — LRU / UCP / StaticLC / OnOff baselines.
* :mod:`repro.runtime` — registries, run specs, the persistent result
  store, and the :class:`Session` facade with its one batch path.
* :mod:`repro.sim` — the event-driven mix engine and runners.
* :mod:`repro.workloads` — the five LC workload models and SPEC-like
  batch classes; mix construction.
* :mod:`repro.cpu` — analytic core models: each app's hit interval
  ``c`` and miss penalty ``M``.
* :mod:`repro.cache` — the partitioning-scheme models and the
  shared-LRU occupancy model the engine runs, the set-associative
  array behind Figure 2, and a trace-driven Vantage array kept as a
  test oracle.
* :mod:`repro.monitor` — miss curves, and a UMON kept as a test oracle.
* :mod:`repro.server` — tail-latency metrics, and a FIFO queueing
  simulator kept as a test oracle.
* :mod:`repro.experiments` — one module per paper table/figure.
* :mod:`repro.analysis` — ASCII plots, confidence intervals for tail
  metrics, and M/G/1 formulas kept as a test oracle.
"""

import os

# Nothing here calls BLAS, but importing NumPy on a host with two or
# more free CPUs starts an OpenBLAS worker thread that spins (about
# 0.13 s of CPU per process on 2 vCPUs).  Every entry point imports this
# package before NumPy; a user's own setting wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from ._lazy import lazy_exports

_EXPORTS, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "_version": ("__version__",),
        "core": ("UbikPolicy",),
        "monitor": ("MissCurve",),
        "policies": (
            "FixedPolicy",
            "LRUPolicy",
            "OnOffPolicy",
            "StaticLCPolicy",
            "UCPPolicy",
        ),
        "runtime": (
            "MixRef",
            "PolicySpec",
            "ResultStore",
            "RunRecord",
            "RunSpec",
            "SchemeSpec",
            "Session",
            "list_policies",
            "list_schemes",
            "make_policy",
            "make_scheme",
        ),
        "sim": ("CMPConfig", "CoreKind", "MixRunner", "MixResult", "westmere_config"),
        "workloads": (
            "HIGH_LOAD",
            "LC_NAMES",
            "LOW_LOAD",
            "LCWorkload",
            "MixSpec",
            "all_lc_workloads",
            "make_lc_workload",
            "make_mix_specs",
        ),
    },
)

__all__ = [
    "UbikPolicy",
    "LRUPolicy",
    "UCPPolicy",
    "StaticLCPolicy",
    "OnOffPolicy",
    "FixedPolicy",
    "MissCurve",
    "CMPConfig",
    "CoreKind",
    "westmere_config",
    "MixRunner",
    "MixResult",
    "LC_NAMES",
    "LOW_LOAD",
    "HIGH_LOAD",
    "LCWorkload",
    "MixSpec",
    "all_lc_workloads",
    "make_lc_workload",
    "make_mix_specs",
    "Session",
    "RunSpec",
    "RunRecord",
    "MixRef",
    "PolicySpec",
    "SchemeSpec",
    "ResultStore",
    "make_policy",
    "list_policies",
    "make_scheme",
    "list_schemes",
    "__version__",
]
