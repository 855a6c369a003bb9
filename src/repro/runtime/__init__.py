"""Unified experiment runtime: registries, specs, store, session.

This package is the execution backbone of the reproduction.  Instead
of ad-hoc loops over hard-coded factory tuples with process-local
memoization, experiments describe work declaratively and hand it to a
:class:`Session`:

* :mod:`~repro.runtime.registry` — string-keyed factories for
  policies, schemes, and LC workloads (``make_policy("ubik",
  slack=0.05)``).
* :mod:`~repro.runtime.spec` — frozen, JSON-serializable
  :class:`RunSpec` descriptions with canonical content fingerprints.
* :mod:`~repro.runtime.work` — the evaluation primitives: store
  lookup, in-process batch evaluation, and the process-pool worker
  entry point.
* :mod:`~repro.runtime.store` — a fingerprint-keyed result store: a
  dict of documents over an optional directory tree that every process
  can share (``REPRO_STORE`` URLs like ``directory:///path``,
  ``REPRO_CACHE_DIR`` paths).
* :mod:`~repro.runtime.artifacts` — the per-process content-addressed
  cache of intermediate products (request streams, baselines, workload
  and core-model objects) that makes a sweep evaluate each distinct
  sub-computation once per process.
* :mod:`~repro.runtime.session` — the :class:`Session` facade tying
  them together; :meth:`Session.run_many` is the one batch path, in
  process or over ``jobs`` pool workers with bit-identical results
  (``REPRO_JOBS`` / ``--jobs``).
"""

from .._lazy import lazy_exports

_EXPORTS, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "artifacts": (
            "ArtifactCache",
            "get_artifacts",
            "reset_artifacts",
        ),
        "registry": (
            "LC_WORKLOADS",
            "POLICIES",
            "SCHEMES",
            "Registry",
            "list_lc_workloads",
            "list_policies",
            "list_schemes",
            "make_policy",
            "make_scheme",
        ),
        "session": (
            "DEFAULT_POLICIES",
            "Session",
            "execute_spec",
            "get_session",
            "reset_session",
            "resolve_jobs",
        ),
        "spec": (
            "BaselineSpec",
            "MixRef",
            "PolicySpec",
            "RunRecord",
            "RunSpec",
            "SchemeSpec",
            "SweepResult",
            "TaskSpec",
            "mix_refs",
        ),
        "store": (
            "ResultStore",
            "default_store_url",
            "parse_store_url",
        ),
    },
)

__all__ = [
    "Registry",
    "POLICIES",
    "SCHEMES",
    "LC_WORKLOADS",
    "make_policy",
    "list_policies",
    "make_scheme",
    "list_schemes",
    "list_lc_workloads",
    "PolicySpec",
    "SchemeSpec",
    "MixRef",
    "BaselineSpec",
    "RunSpec",
    "TaskSpec",
    "RunRecord",
    "SweepResult",
    "mix_refs",
    "resolve_jobs",
    "ResultStore",
    "default_store_url",
    "parse_store_url",
    "ArtifactCache",
    "get_artifacts",
    "reset_artifacts",
    "DEFAULT_POLICIES",
    "Session",
    "execute_spec",
    "get_session",
    "reset_session",
]
