"""Tracked performance benchmarks: the ``repro bench`` harness.

The ROADMAP's north star is "as fast as the hardware allows", which is
only meaningful with a *trajectory*: numbers written down, schema-
stable, and comparable across revisions.  This module times eight
canonical kernels that cover the stack's hot layers and writes a
``BENCH_<revision>.json`` document (under ``benchmarks/perf/`` by
convention):

``mix_run``
    One full cold (mix, policy) evaluation — isolated baselines plus
    the joint six-app Ubik replay — through
    :func:`repro.runtime.work.execute_specs`, the runtime's evaluator.
    The sim-layer kernel.
``isolated_baseline``
    A single LC instance simulated alone at its target partition
    (:meth:`~repro.sim.mix_runner.MixRunner.baseline_instance`), the
    unit a baseline repeats once per instance.
``trace_replay``
    One million line addresses through
    :meth:`~repro.cache.set_assoc.SetAssociativeCache.access_many`
    — *and* through the kept naive reference implementation
    (:class:`~repro.cache.reference.NaiveSetAssociativeCache`), so the
    recorded ``speedup`` always compares against the pre-optimization
    code path on the same machine, never against a stale number from
    different hardware.  The two replays are asserted access-for-access
    identical before their times are recorded.
``warm_sweep_grid``
    The shared-state derivation of a 3-policy × 2-load sweep grid —
    per cell: workload objects, the three-instance isolated baseline,
    and the three replay streams, via a fresh ``MixRunner`` exactly as
    ``execute_spec`` builds one per spec — timed with the
    content-addressed artifact cache (:mod:`repro.runtime.artifacts`)
    warm across the grid versus cleared before every cell, as a cold
    process per cell would run it.  The joint replay is excluded
    from both arms (it differs per policy, so no artifact can share
    it; ``joint_replay_grid`` times it).  Records the ratio
    as ``speedup`` (the PR-5 acceptance floor is ≥2×) after asserting
    the two passes produced identical baselines.  The sweep-layer
    kernel.
``joint_replay_grid``
    The joint six-app replays of a 4-policy × 2-load sweep grid, run
    the production way — every policy cell of one mix through a single
    :meth:`~repro.sim.mix_runner.MixRunner.run_mix_group` replay group,
    one engine per cell over one baseline and one list of LC instance
    specs, each engine owning its memos — versus the scalar per-cell
    ``run_mix`` loop, the kept oracle.  The
    two grids are asserted result-for-result identical (every
    ``MixResult`` field) before either time is recorded; the
    acceptance floor for the recorded ``speedup`` is ≥2×.
``lockstep_replay``
    The joint six-app replays of one mix's eight-cell fixed-allocation
    sensitivity sweep (LC partitions at 0.25×–2× the working-set
    target), run through ``run_mix_group`` (one
    :class:`~repro.sim.engine.MixEngine` per cell) versus the same
    cells through the scalar per-cell ``run_mix``
    oracle.  The two grids are asserted result-for-result
    identical before either time is recorded.  Where
    ``joint_replay_grid`` prices the production engine on policy-heavy
    cells, this kernel prices it on an event-loop-bound grid; its
    floor is in :data:`SPEEDUP_FLOORS`.
``stream_synthesis``
    Bulk (arrivals, works) request-stream synthesis across all five LC
    work distributions through the batched
    :meth:`~repro.workloads.service_time.WorkDistribution.sample_many`
    path — *and* through the kept scalar oracle
    (:func:`repro.workloads.reference.sample_stream`), verified
    draw-for-draw identical before either time is recorded.
``repartition_table``
    Ubik's interval rebuild of the repartitioning table
    (:class:`~repro.core.repartition.RepartitionTable`, 256 buckets)
    for the three batch apps of one benchmark-grid mix, at batch-space
    averages across 55–70% of the LLC, with a lookup of every row —
    *and* through the kept NumPy walks
    (:class:`repro.core.reference.NaiveRepartitionTable`), verified
    row-for-row identical before either time is recorded.  The
    policy-layer kernel; its floor is in :data:`SPEEDUP_FLOORS`.

Timing methodology: each kernel runs ``repeats`` times and records the
**minimum** (the standard microbenchmark estimator — system noise only
ever adds time) alongside every raw sample.  ``--quick`` shrinks the
workloads for CI smoke jobs; the schema is identical, so
``tools/check_bench.py`` gates schema drift without ever failing on
timing noise.

Usage::

    python -m repro bench                 # full kernels, BENCH_<rev>.json
    python -m repro bench --quick         # CI-sized workloads
    python -m repro bench --out my.json   # explicit destination
"""

from __future__ import annotations

import json
import platform
import subprocess
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from ._version import __version__

__all__ = [
    "BENCH_SCHEMA",
    "ARCHIVED_SCHEMAS",
    "KERNEL_NAMES",
    "SPEEDUP_FLOORS",
    "run_bench",
    "write_bench",
    "default_bench_path",
    "validate_bench",
    "compare_bench",
    "format_compare",
    "bench_revision",
]

#: Schema identifier stamped into every document; bump only when the
#: document layout changes (CI fails on drift against this module).
BENCH_SCHEMA = "repro-bench/11"

#: Earlier generations.  Committed documents under these tags are an
#: archive: :func:`validate_bench` holds them to the common core that
#: the trajectory floors and ``--compare`` read, never to a kernel set.
ARCHIVED_SCHEMAS = tuple(f"repro-bench/{generation}" for generation in range(1, 11))

#: The canonical kernels, in reporting order.
KERNEL_NAMES = (
    "mix_run",
    "isolated_baseline",
    "trace_replay",
    "warm_sweep_grid",
    "stream_synthesis",
    "joint_replay_grid",
    "lockstep_replay",
    "repartition_table",
)

#: Kernels that time an in-file baseline alongside the optimized path
#: and must record the comparison (see :func:`validate_bench`).
_COMPARED_KERNELS = (
    "trace_replay",
    "warm_sweep_grid",
    "stream_synthesis",
    "joint_replay_grid",
    "lockstep_replay",
    "repartition_table",
)

#: Committed acceptance floors for recorded ``speedup`` ratios — the
#: PR that landed each optimization pinned its floor here, and
#: :func:`compare_bench` reports floor status against this table.
SPEEDUP_FLOORS = {
    "warm_sweep_grid": 2.0,
    "joint_replay_grid": 2.0,
    # Twice the deleted grouped per-cell loop's speedup over scalar
    # run_mix on this kernel's own grid (2.25x, median of 24
    # interleaved pairs), so the kernel keeps its floor of 2x over
    # that loop.
    "lockstep_replay": 4.5,
    # The whole pre-change rebuild: NumPy walks and full-rescan
    # Lookahead (6.33x on BENCH_pr23.json).
    "repartition_table": 5.0,
}

#: Per-kernel keys every document must carry (see :func:`validate_bench`).
_KERNEL_KEYS = ("seconds", "runs", "units", "unit", "ns_per_unit")


def _report_order(names) -> List[str]:
    """Kernel names in reporting order: the current kernels first, in
    :data:`KERNEL_NAMES` order, then any retired ones by name."""
    rank = {name: index for index, name in enumerate(KERNEL_NAMES)}
    return sorted(names, key=lambda name: (rank.get(name, len(rank)), name))


def bench_revision() -> str:
    """The revision label stamped into the document and its filename.

    ``REPRO_BENCH_REVISION`` overrides (useful when benchmarking a tree
    whose commit does not exist yet, e.g. the PR that lands the file);
    otherwise the short git revision, else the package version.
    """
    import os

    override = os.environ.get("REPRO_BENCH_REVISION", "").strip()
    if override:
        return override
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
        return out.stdout.strip() or f"v{__version__}"
    except Exception:
        return f"v{__version__}"


def _time_repeats(fn: Callable[[], Any], repeats: int) -> List[float]:
    """Wall-clock samples of ``fn`` (one warm call is *not* added: every
    kernel builds its own fresh state, so all samples are cold runs)."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return samples


def _kernel_entry(samples: List[float], units: int, unit: str, **extra: Any) -> Dict[str, Any]:
    """One kernel's schema-stable document entry."""
    best = min(samples)
    entry: Dict[str, Any] = {
        "seconds": best,
        "runs": samples,
        "units": units,
        "unit": unit,
        "ns_per_unit": best / units * 1e9,
    }
    entry.update(extra)
    return entry


# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------
def _bench_mix_run(requests: int, repeats: int) -> Dict[str, Any]:
    """Cold (mix, policy) evaluation: baselines + joint Ubik replay.

    The artifact cache is cleared at the start of every repeat: each
    sample measures a genuinely cold process evaluating one cell
    (including the honest intra-cell stream reuse a cold process
    gets), never a later repeat served from warm grid state — which
    keeps the number comparable across the revisions in the committed
    trajectory.
    """
    from .runtime.artifacts import get_artifacts
    from .runtime.spec import MixRef, PolicySpec, RunSpec
    from .runtime.work import execute_specs

    spec = RunSpec(
        mix=MixRef(lc_name="masstree", load=0.2, combo="nft"),
        policy=PolicySpec.of("ubik", slack=0.05),
        requests=requests,
    )

    def run() -> None:
        get_artifacts().clear()
        execute_specs([spec], None)

    samples = _time_repeats(run, repeats)
    get_artifacts().clear()
    return _kernel_entry(samples, units=requests, unit="requests")


def _bench_isolated_baseline(requests: int, repeats: int) -> Dict[str, Any]:
    """One LC instance alone at its target partition.

    Artifact-cold per repeat, like ``mix_run``: the sample is the
    per-instance cost a worker pays the first time, not a warm replay.
    """
    from .runtime.artifacts import get_artifacts
    from .sim.mix_runner import MixRunner
    from .workloads.latency_critical import make_lc_workload

    workload = make_lc_workload("masstree")

    def run() -> None:
        get_artifacts().clear()
        MixRunner(requests=requests, seed=2014).baseline_instance(
            workload, 0.2, 0
        )

    samples = _time_repeats(run, repeats)
    get_artifacts().clear()
    return _kernel_entry(samples, units=requests, unit="requests")


def _trace_stream(accesses: int, seed: int = 7) -> np.ndarray:
    """The replay kernel's Zipf-over-100k-lines address stream."""
    rng = np.random.default_rng(seed)
    return (rng.zipf(1.3, size=accesses) % 100_000).astype(np.int64)


def _bench_trace_replay(
    accesses: int, repeats: int, num_lines: int = 16384, ways: int = 16
) -> Dict[str, Any]:
    """Batched replay vs the kept naive reference, verified identical."""
    from .cache.reference import NaiveSetAssociativeCache
    from .cache.set_assoc import SetAssociativeCache

    addrs = _trace_stream(accesses)
    addr_list = addrs.tolist()

    # Verify once, outside the timed region: the optimized replay must
    # be access-for-access identical to the reference before its time
    # means anything.
    optimized = SetAssociativeCache(num_lines, ways)
    hit_mask = optimized.access_many(addrs)
    naive = NaiveSetAssociativeCache(num_lines, ways)
    naive_hits = [naive.access(addr).hit for addr in addr_list]
    if hit_mask.tolist() != naive_hits or (optimized.hits, optimized.misses) != (
        naive.hits,
        naive.misses,
    ):  # pragma: no cover - would mean a real regression
        raise RuntimeError("optimized trace replay diverged from the reference")

    samples = _time_repeats(
        lambda: SetAssociativeCache(num_lines, ways).access_many(addrs), repeats
    )

    def run_naive() -> None:
        cache = NaiveSetAssociativeCache(num_lines, ways)
        access = cache.access
        for addr in addr_list:
            access(addr)

    naive_samples = _time_repeats(run_naive, repeats)
    best, naive_best = min(samples), min(naive_samples)
    return _kernel_entry(
        samples,
        units=accesses,
        unit="accesses",
        baseline_seconds=naive_best,
        baseline_runs=naive_samples,
        speedup=naive_best / best,
        verified_identical=True,
    )


def _bench_warm_sweep_grid(requests: int, repeats: int) -> Dict[str, Any]:
    """Per-cell shared-state derivation of a 3-policy × 2-load grid.

    Scope, precisely: each of the six cells performs the state
    derivation :meth:`~repro.sim.mix_runner.MixRunner.run_mix` does
    before its joint replay — rebuild the mix's workload objects, run
    the three-instance isolated baseline, and synthesize the three
    replay streams — through a *fresh* :class:`MixRunner` per cell,
    exactly as :func:`~repro.runtime.work.execute_spec` builds one per
    spec.  This state depends only on (lc, load), so it is identical
    across the policy axis: with the artifact cache warm over the grid,
    each load's baseline and streams are derived once; with the cache
    cleared before every cell (a cold process per cell), every cell
    re-derives everything, which is what the pre-artifact-cache sweep
    did.

    The joint six-app replay is deliberately **excluded from both
    arms**: it differs per policy, so no *artifact* can legitimately
    share it between cells — a replay group's cells share only their
    baseline and LC instance specs, and each cell's engine owns its
    memos.  The ``joint_replay_grid`` kernel times the replays of a
    grid, and ``mix_run`` their cold cost.  The recorded ``speedup`` therefore measures
    exactly the redundancy the artifact layer removes from a sweep, not
    a ratio diluted (or inflated) by replay time.
    """
    from .runtime.artifacts import get_artifacts
    from .runtime.spec import MixRef
    from .sim.mix_runner import LC_INSTANCES, MixRunner

    #: The policy axis contributes only multiplicity — the derived
    #: state is policy-independent, which is the entire point.
    policy_count = 3
    refs = [
        MixRef(lc_name="masstree", load=load, combo="nft")
        for load in (0.2, 0.6)
    ]
    artifacts = get_artifacts()

    def derive_cell(ref: "MixRef") -> Any:
        mix = ref.build()
        runner = MixRunner(requests=requests, seed=2014)
        baseline = runner.baseline(mix.lc_workload, mix.load)
        for instance in range(LC_INSTANCES):
            runner.stream(mix.lc_workload, mix.load, instance)
        return baseline

    def run_warm() -> List[Any]:
        artifacts.clear()
        return [derive_cell(ref) for ref in refs for _ in range(policy_count)]

    def run_cold() -> List[Any]:
        grid = []
        for ref in refs:
            for _ in range(policy_count):
                artifacts.clear()
                grid.append(derive_cell(ref))
        return grid

    # Verify once, outside the timed region: the cached grid must be
    # baseline-for-baseline identical to the cold one before the
    # speedup means anything.
    if run_warm() != run_cold():  # pragma: no cover - a real regression
        raise RuntimeError("artifact-cached sweep state diverged from cold cells")

    samples = _time_repeats(run_warm, repeats)
    cold_samples = _time_repeats(run_cold, repeats)
    artifacts.clear()  # leave no grid-sized pools behind in the process
    best, cold_best = min(samples), min(cold_samples)
    return _kernel_entry(
        samples,
        units=len(refs) * policy_count,
        unit="cells",
        baseline_seconds=cold_best,
        baseline_runs=cold_samples,
        speedup=cold_best / best,
        verified_identical=True,
    )


def _mix_results_identical(grouped: Any, per_cell: Any) -> bool:
    """Whether a grouped cell's result equals the per-cell oracle's.

    :class:`~repro.sim.results.MixResult` and its nested instance and
    batch-app results are plain dataclasses over python scalars and
    lists, so field-for-field equality *is* bit-identity.  Kept as a
    module-level seam so the bench tests can force a divergence and
    assert the kernel refuses to time it.
    """
    return grouped == per_cell


def _bench_joint_replay_grid(requests: int, repeats: int) -> Dict[str, Any]:
    """Batched joint replays of a 4-policy × 2-load grid vs per-cell.

    Scope, precisely: the **replay phase only**.  One warm
    :class:`~repro.sim.mix_runner.MixRunner` (baselines and streams
    derived outside the timed region, artifact cache warm) replays
    each of the two (masstree, load) mixes under four partitioned
    policies — ubik, ucp, on/off, and static-LC, the cells whose
    replays a sweep grid actually repeats.  The batched arm runs each
    mix's four cells through one
    :meth:`~repro.sim.mix_runner.MixRunner.run_mix_group` call (one
    engine per cell over the mix's baseline and LC instance specs,
    exactly as :func:`~repro.runtime.work.execute_specs` groups a
    sweep); the
    baseline arm runs the same cells through the scalar per-cell
    :meth:`~repro.sim.mix_runner.MixRunner.run_mix` loop — the kept
    oracle.

    Verified before timing: the two grids must be result-for-result
    identical under :func:`_mix_results_identical` (every latency,
    counter, and batch-app field), else the kernel raises instead of
    recording a meaningless ratio.  Policies are rebuilt per cell per
    pass — they are stateful controllers — so neither arm ever replays
    through a policy the other pass warmed.
    """
    from .runtime.artifacts import get_artifacts
    from .runtime.spec import MixRef, PolicySpec
    from .sim.mix_runner import MixRunner

    policy_specs = (
        PolicySpec.of("ubik", slack=0.05),
        PolicySpec.of("ucp"),
        PolicySpec.of("onoff"),
        PolicySpec.of("static_lc"),
    )
    refs = [
        MixRef(lc_name="masstree", load=load, combo="nft")
        for load in (0.2, 0.6)
    ]
    artifacts = get_artifacts()
    # Both arms replay over the same warm baselines and streams, so the
    # kernel isolates replay cost.
    artifacts.clear()
    runner = MixRunner(requests=requests, seed=2014)
    mixes = [ref.build() for ref in refs]
    for mix in mixes:  # baselines + streams outside the timed region
        runner.baseline(mix.lc_workload, mix.load)

    def run_per_cell() -> List[Any]:
        return [
            runner.run_mix(mix, policy.build(), scheme=None)
            for mix in mixes
            for policy in policy_specs
        ]

    def run_grouped() -> List[Any]:
        grid: List[Any] = []
        for mix in mixes:
            grid.extend(
                runner.run_mix_group(
                    mix, [(policy.build(), None) for policy in policy_specs]
                )
            )
        return grid

    # Verify once, outside the timed region: every grouped cell
    # must match the per-cell oracle before the speedup means
    # anything.
    for grouped, per_cell in zip(run_grouped(), run_per_cell()):
        if not _mix_results_identical(grouped, per_cell):
            raise RuntimeError(
                "grouped joint replay diverged from the per-cell oracle"
            )

    samples = _time_repeats(run_grouped, repeats)
    per_cell_samples = _time_repeats(run_per_cell, repeats)
    artifacts.clear()  # leave no grid-sized pools behind in the process
    best, per_cell_best = min(samples), min(per_cell_samples)
    return _kernel_entry(
        samples,
        units=len(refs) * len(policy_specs),
        unit="cells",
        baseline_seconds=per_cell_best,
        baseline_runs=per_cell_samples,
        speedup=per_cell_best / best,
        verified_identical=True,
    )


def _bench_lockstep_replay(requests: int, repeats: int) -> Dict[str, Any]:
    """Replay of a fixed-allocation sweep: production engine vs oracle.

    Scope, precisely: the **replay phase only**, like
    ``joint_replay_grid``, on a grid that prices the event loop.  One
    warm :class:`~repro.sim.mix_runner.MixRunner` (baseline and streams
    derived outside the timed region, artifact cache warm)
    replays one (masstree, load 0.9) mix under eight
    :class:`~repro.policies.fixed.FixedPolicy` cells sweeping the LC
    partition from 0.25× to 2× the workload's working-set target — the
    allocation-sensitivity sweep the paper's motivating figures walk,
    and a grid whose per-cell cost is the event loop itself rather
    than policy work both arms would pay identically.  The engine arm
    runs the eight cells through
    :meth:`~repro.sim.mix_runner.MixRunner.run_mix_group` (one
    :class:`~repro.sim.engine.MixEngine` per cell); the
    baseline arm runs the same cells through the scalar
    per-cell :meth:`~repro.sim.mix_runner.MixRunner.run_mix` oracle.

    The policies carry explicit per-app target dicts, which are not
    expressible as a :class:`~repro.runtime.spec.PolicySpec` (spec
    kwargs must be JSON scalars), so the cells are constructed
    directly; ``FixedPolicy`` does no interval work, keeping the
    measured ratio an event-loop number.

    Verified before timing: the two grids must be result-for-result
    identical under :func:`_mix_results_identical`, else the kernel
    raises instead of recording a meaningless ratio.  Cells are rebuilt
    per pass — policies are stateful controllers.  The acceptance
    floor for the recorded ``speedup`` is in :data:`SPEEDUP_FLOORS`.
    """
    from .policies.fixed import FixedPolicy
    from .runtime.artifacts import get_artifacts
    from .runtime.spec import MixRef
    from .sim.config import CMPConfig
    from .sim.mix_runner import MixRunner

    lc_fractions = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)
    ref = MixRef(lc_name="masstree", load=0.9, combo="nnn")
    artifacts = get_artifacts()
    artifacts.clear()
    runner = MixRunner(requests=requests, seed=2014)
    mix = ref.build()
    runner.baseline(mix.lc_workload, mix.load)  # outside the timing
    llc_lines = CMPConfig().llc_lines
    target_lines = mix.lc_workload.target_lines

    def build_cells() -> List[Any]:
        cells: List[Any] = []
        for fraction in lc_fractions:
            lc_lines = fraction * target_lines
            batch_lines = max(0.0, llc_lines - 3 * lc_lines) / 3.0
            policy = FixedPolicy(
                targets={
                    0: lc_lines,
                    1: lc_lines,
                    2: lc_lines,
                    3: batch_lines,
                    4: batch_lines,
                    5: batch_lines,
                }
            )
            cells.append((policy, None))
        return cells

    def run_engine() -> List[Any]:
        return runner.run_mix_group(mix, build_cells())

    def run_per_cell() -> List[Any]:
        return [
            runner.run_mix(mix, policy, scheme=scheme)
            for policy, scheme in build_cells()
        ]

    # Verify once, outside the timed region: every engine cell must
    # match the per-cell oracle before the speedup means anything.
    for engine_cell, oracle_cell in zip(run_engine(), run_per_cell()):
        if not _mix_results_identical(engine_cell, oracle_cell):
            raise RuntimeError(
                "lockstep replay diverged from the per-cell oracle"
            )

    samples = _time_repeats(run_engine, repeats)
    per_cell_samples = _time_repeats(run_per_cell, repeats)
    artifacts.clear()  # leave no grid-sized pools behind in the process
    best, per_cell_best = min(samples), min(per_cell_samples)
    return _kernel_entry(
        samples,
        units=len(lc_fractions),
        unit="cells",
        baseline_seconds=per_cell_best,
        baseline_runs=per_cell_samples,
        speedup=per_cell_best / best,
        verified_identical=True,
    )


def _bench_stream_synthesis(samples_per_workload: int, repeats: int) -> Dict[str, Any]:
    """Bulk work sampling: batched ``sample_many`` vs the scalar oracle.

    Covers all five LC work distributions — truncated-normal, lognormal,
    and both bimodal mixtures — so the recorded ``speedup`` reflects the
    real per-app mix of fully vectorized draws and the mixture's
    tightened exact-stream loop.
    """
    from .workloads.latency_critical import all_lc_workloads
    from .workloads.reference import sample_stream

    works = [w.work for w in all_lc_workloads().values()]

    def rng_for(index: int) -> np.random.Generator:
        return np.random.default_rng((2014, index))

    # Verify once, outside the timed region: batched draws must equal
    # the scalar oracle's *and* leave the generator in the same state.
    for index, work in enumerate(works):
        batched_rng, scalar_rng = rng_for(index), rng_for(index)
        batched = work.sample_many(batched_rng, samples_per_workload)
        scalar = sample_stream(work, scalar_rng, samples_per_workload)
        if not np.array_equal(batched, scalar) or batched_rng.random() != (
            scalar_rng.random()
        ):  # pragma: no cover - would mean a real regression
            raise RuntimeError("batched stream synthesis diverged from the oracle")

    def run_batched() -> None:
        for index, work in enumerate(works):
            work.sample_many(rng_for(index), samples_per_workload)

    def run_scalar() -> None:
        for index, work in enumerate(works):
            sample_stream(work, rng_for(index), samples_per_workload)

    samples = _time_repeats(run_batched, repeats)
    scalar_samples = _time_repeats(run_scalar, repeats)
    best, scalar_best = min(samples), min(scalar_samples)
    return _kernel_entry(
        samples,
        units=len(works) * samples_per_workload,
        unit="samples",
        baseline_seconds=scalar_best,
        baseline_runs=scalar_samples,
        speedup=scalar_best / best,
        verified_identical=True,
    )


def _bench_repartition_table(averages: int, repeats: int) -> Dict[str, Any]:
    """Ubik's table rebuild: float walks vs the reference NumPy walks.

    Builds :class:`~repro.core.repartition.RepartitionTable` at 256
    buckets for the batch trio of one benchmark-grid mix (masstree with
    the friendly, fitting and streaming ``fts`` combo), as Ubik sees
    it: the curves carry the engine's default UMON noise, and the
    weights are the access rates the engine gives the apps in a mix's
    first interval.  The tables are built at ``averages`` batch-space
    averages spread over 55–70% of the LLC, where most of Ubik's
    rebuilds sit on the Fig 13 grid.  The baseline arm builds the same
    tables through
    :class:`~repro.core.reference.NaiveRepartitionTable`, whose
    Lookahead baseline is
    :func:`~repro.core.reference.naive_lookahead_partition`, so the
    ratio covers the whole rebuild as it stood before both rewrites:
    the walks and the Lookahead baseline.

    Both timed arms look up the allocations at every level of every
    table they build, as Ubik's decisions look them up: the production
    table walks only as far as a lookup reaches, so reading every row
    is what makes it run the full rebuild the oracle runs.

    Verified before timing: every row of every table must equal the
    reference's, else the kernel raises instead of recording a ratio.
    The acceptance floor for the recorded ``speedup`` is in
    :data:`SPEEDUP_FLOORS`.
    """
    from .core.reference import NaiveRepartitionTable
    from .core.repartition import RepartitionTable
    from .cpu import make_core_model
    from .runtime.spec import MixRef
    from .sim.config import CMPConfig

    buckets = 256
    config = CMPConfig()
    llc_lines = config.llc_lines
    core = make_core_model(config.core_kind, config.mem_latency_cycles)
    batch = MixRef(lc_name="masstree", load=0.2, combo="fts").build().batch_apps
    rng = np.random.default_rng(2014)
    curves = [app.miss_curve.with_noise(rng, 0.02) for app in batch]
    share = llc_lines / config.num_cores
    weights = [
        1.0 / core.access_interval(app.profile, float(app.miss_curve(share)))
        for app in batch
    ]
    avgs = np.linspace(0.55, 0.70, averages) * llc_lines

    # One batch space inside each level's bucket.
    spaces = [(level + 0.5) * llc_lines / buckets for level in range(buckets + 1)]

    def build(table_cls) -> List[Any]:
        return [
            table_cls(curves, weights, llc_lines, float(avg), buckets=buckets)
            for avg in avgs
        ]

    def build_and_read(table_cls) -> List[Any]:
        return [
            [table.allocations_at(space) for space in spaces]
            for table in build(table_cls)
        ]

    for table, oracle in zip(build(RepartitionTable), build(NaiveRepartitionTable)):
        if any(
            table.row(level).tolist() != oracle.row(level).tolist()
            for level in range(buckets + 1)
        ):
            raise RuntimeError("repartition table diverged from the reference walks")

    # Alternate the arms sample by sample, so a slow phase of the host
    # lands on both rather than skewing the ratio.
    samples: List[float] = []
    baseline: List[float] = []
    for _ in range(repeats):
        samples += _time_repeats(lambda: build_and_read(RepartitionTable), 1)
        baseline += _time_repeats(lambda: build_and_read(NaiveRepartitionTable), 1)
    best, baseline_best = min(samples), min(baseline)
    return _kernel_entry(
        samples,
        units=averages,
        unit="tables",
        baseline_seconds=baseline_best,
        baseline_runs=baseline,
        speedup=baseline_best / best,
        verified_identical=True,
    )


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def run_bench(quick: bool = False, repeats: Optional[int] = None) -> Dict[str, Any]:
    """Run every kernel and return the schema-stable document."""
    repeats = repeats if repeats is not None else (2 if quick else 3)
    if repeats < 1:
        raise ValueError("repeats must be positive")
    accesses = 100_000 if quick else 1_000_000
    requests = 30 if quick else 60
    #: The lockstep kernel pins a longer replay (its floor was
    #: committed at 240 requests): its ratio is an event-loop number,
    #: and too-short replays drown it in per-engine setup.  It also
    #: takes extra repeats — both arms are sub-second, so best-of
    #: needs more samples to shed scheduler noise than the
    #: multi-second kernels do.
    lockstep_requests = 60 if quick else 240
    lockstep_repeats = max(repeats, 5)
    #: Each table build takes about a millisecond, so the table kernel
    #: builds several per sample and takes extra samples for best-of.
    table_averages = 4 if quick else 16
    table_repeats = max(repeats, 7)
    stream_samples = 10_000 if quick else 100_000
    kernels = {
        "mix_run": _bench_mix_run(requests, repeats),
        "isolated_baseline": _bench_isolated_baseline(requests, repeats),
        "trace_replay": _bench_trace_replay(accesses, repeats),
        "warm_sweep_grid": _bench_warm_sweep_grid(requests, repeats),
        "stream_synthesis": _bench_stream_synthesis(stream_samples, repeats),
        "joint_replay_grid": _bench_joint_replay_grid(requests, repeats),
        "lockstep_replay": _bench_lockstep_replay(
            lockstep_requests, lockstep_repeats
        ),
        "repartition_table": _bench_repartition_table(
            table_averages, table_repeats
        ),
    }
    return {
        "schema": BENCH_SCHEMA,
        "revision": bench_revision(),
        "quick": quick,
        "repeats": repeats,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repro_version": __version__,
        "platform": platform.platform(),
        "kernels": kernels,
    }


def default_bench_path(revision: str) -> Path:
    """``<repo root>/benchmarks/perf/BENCH_<rev>.json`` inside a
    checkout (whatever the current directory), else the current
    directory (running from an installed package)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
        perf_dir = Path(out.stdout.strip()) / "benchmarks" / "perf"
    except Exception:
        perf_dir = Path("benchmarks") / "perf"
    base = perf_dir if perf_dir.is_dir() else Path(".")
    return base / f"BENCH_{revision}.json"


def write_bench(payload: Dict[str, Any], out: Optional[Path] = None) -> Path:
    """Write a bench document (pretty JSON, trailing newline)."""
    path = Path(out) if out is not None else default_bench_path(payload["revision"])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def validate_bench(payload: Any) -> List[str]:
    """Schema-drift check: the list of problems (empty = valid).

    Validates structure and types only — never timing values — so CI
    can gate on drift without flaking on machine noise.  Used by
    ``tools/check_bench.py`` and the tier-1 bench test.

    A :data:`BENCH_SCHEMA` document must carry every kernel of
    :data:`KERNEL_NAMES`.  A document of an
    :data:`ARCHIVED_SCHEMAS` generation is held to the common core
    only: the top-level fields, the per-kernel keys of each kernel it
    carries, and the comparison fields of each compared kernel it
    carries.
    """
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"document must be an object, got {type(payload).__name__}"]
    schema = payload.get("schema")
    archived = schema in ARCHIVED_SCHEMAS
    if schema != BENCH_SCHEMA and not archived:
        problems.append(
            f"schema must be {BENCH_SCHEMA!r} (or an archived "
            f"{ARCHIVED_SCHEMAS[0]!r} to {ARCHIVED_SCHEMAS[-1]!r}), "
            f"got {schema!r}"
        )
    for key, kinds in (
        ("revision", str),
        ("quick", bool),
        ("repeats", int),
        ("created", str),
        ("python", str),
        ("numpy", str),
        ("repro_version", str),
        ("platform", str),
        ("kernels", dict),
    ):
        if not isinstance(payload.get(key), kinds):
            problems.append(f"missing or mistyped field {key!r}")
    kernels = payload.get("kernels")
    if not isinstance(kernels, dict):
        return problems
    if not archived:
        for name in KERNEL_NAMES:
            if name not in kernels:
                problems.append(f"missing kernel {name!r}")
    for name, entry in kernels.items():
        if not isinstance(entry, dict):
            problems.append(f"kernel {name!r} must be an object")
            continue
        for key in _KERNEL_KEYS:
            if key not in entry:
                problems.append(f"kernel {name!r} missing {key!r}")
        runs = entry.get("runs")
        if not (
            isinstance(runs, list)
            and runs
            and all(isinstance(x, (int, float)) for x in runs)
        ):
            problems.append(f"kernel {name!r} runs must be a non-empty number list")
        if name in _COMPARED_KERNELS:
            for key in (
                "baseline_seconds",
                "baseline_runs",
                "speedup",
                "verified_identical",
            ):
                if key not in entry:
                    problems.append(f"kernel {name!r} missing {key!r}")
    return problems


def _p50_seconds(entry: Dict[str, Any]) -> float:
    """Median of a kernel entry's raw samples (the comparison
    estimator: less noise-sensitive than min when comparing two
    documents that may have different repeat counts)."""
    runs = sorted(entry["runs"])
    mid = len(runs) // 2
    if len(runs) % 2:
        return float(runs[mid])
    return float((runs[mid - 1] + runs[mid]) / 2.0)


def compare_bench(old: Dict[str, Any], new: Dict[str, Any]) -> Dict[str, Any]:
    """Per-kernel p50 comparison of two validated bench documents.

    Both documents are :func:`validate_bench`-checked first (a
    ``ValueError`` names the offender), then compared over the kernels
    both documents carry — an older document without
    ``lockstep_replay`` reports it under ``only_new`` instead of
    failing, so the committed trajectory stays comparable across
    schema bumps.

    Per shared kernel: old/new p50 seconds, the ``ratio``
    (new p50 / old p50 — below 1.0 means the new document is faster),
    and for kernels carrying a recorded ``speedup`` the old/new values
    plus floor status against :data:`SPEEDUP_FLOORS` where one is
    committed.  Timing deltas are *reported*, never gated — machine
    noise is the caller's judgment call; only ``floor_met`` reflects a
    committed acceptance floor.
    """
    for label, payload in (("old", old), ("new", new)):
        problems = validate_bench(payload)
        if problems:
            raise ValueError(
                f"{label} document is not a valid bench document: "
                + "; ".join(problems)
            )
    old_names = _report_order(old["kernels"])
    new_names = _report_order(new["kernels"])
    shared = [name for name in new_names if name in old["kernels"]]
    kernels: Dict[str, Any] = {}
    for name in shared:
        old_entry, new_entry = old["kernels"][name], new["kernels"][name]
        old_p50, new_p50 = _p50_seconds(old_entry), _p50_seconds(new_entry)
        row: Dict[str, Any] = {
            "old_p50_seconds": old_p50,
            "new_p50_seconds": new_p50,
            "ratio": new_p50 / old_p50 if old_p50 > 0 else float("inf"),
        }
        if "speedup" in old_entry or "speedup" in new_entry:
            row["old_speedup"] = old_entry.get("speedup")
            row["new_speedup"] = new_entry.get("speedup")
            floor = SPEEDUP_FLOORS.get(name)
            if floor is not None and new_entry.get("speedup") is not None:
                row["floor"] = floor
                row["floor_met"] = bool(new_entry["speedup"] >= floor)
        kernels[name] = row
    return {
        "old_revision": old["revision"],
        "new_revision": new["revision"],
        "old_schema": old["schema"],
        "new_schema": new["schema"],
        "kernels": kernels,
        "only_old": [name for name in old_names if name not in new["kernels"]],
        "only_new": [name for name in new_names if name not in old["kernels"]],
    }


def format_compare(comparison: Dict[str, Any]) -> str:
    """Human-readable comparison table for ``repro bench --compare``."""
    from .experiments.common import format_table

    rows: List[List[str]] = []
    for name, row in comparison["kernels"].items():
        ratio = row["ratio"]
        delta = f"{ratio:.2f}x" + (
            " faster" if ratio < 1.0 else " slower" if ratio > 1.0 else ""
        )
        floor_note = ""
        if "floor_met" in row:
            floor_note = (
                f"floor {row['floor']:.1f}x "
                + ("met" if row["floor_met"] else "MISSED")
                + f" ({row['new_speedup']:.2f}x)"
            )
        elif row.get("new_speedup") is not None:
            floor_note = f"speedup {row['new_speedup']:.2f}x"
        rows.append(
            [
                name,
                f"{row['old_p50_seconds']:.4f}s",
                f"{row['new_p50_seconds']:.4f}s",
                delta,
                floor_note,
            ]
        )
    title = (
        f"repro bench compare: {comparison['old_revision']}"
        f" ({comparison['old_schema']}) -> {comparison['new_revision']}"
        f" ({comparison['new_schema']})"
    )
    table = format_table(
        ["Kernel", "Old p50", "New p50", "Delta", "Floor"], rows, title=title
    )
    extras = []
    if comparison["only_old"]:
        extras.append("only in old: " + ", ".join(comparison["only_old"]))
    if comparison["only_new"]:
        extras.append("only in new: " + ", ".join(comparison["only_new"]))
    if extras:
        table += "\n" + "\n".join(extras)
    return table


def format_bench(payload: Dict[str, Any]) -> str:
    """Human-readable kernel table for the CLI."""
    from .experiments.common import format_table

    rows: List[List[str]] = []
    for name in _report_order(payload["kernels"]):
        entry = payload["kernels"][name]
        note = ""
        if "speedup" in entry:
            against = {
                "warm_sweep_grid": "cold per cell",
                "joint_replay_grid": "per-cell",
                "lockstep_replay": "per-cell",
            }.get(name, "naive")
            note = (
                f"{entry['speedup']:.2f}x vs {against}"
                f" ({entry['baseline_seconds']:.3f}s)"
            )
        rows.append(
            [
                name,
                f"{entry['seconds']:.4f}s",
                f"{entry['units']} {entry['unit']}",
                f"{entry['ns_per_unit']:,.0f}",
                note,
            ]
        )
    title = f"repro bench @ {payload['revision']}" + (
        " (quick)" if payload["quick"] else ""
    )
    return format_table(
        ["Kernel", "Best", "Work", "ns/unit", "Notes"], rows, title=title
    )
