"""Command-line interface: regenerate paper experiments from a shell.

Usage::

    python -m repro list
    python -m repro fig1a --lc shore
    python -m repro fig2
    python -m repro fig9 --requests 100 --lc shore,specjbb
    python -m repro table3 --jobs 4
    python -m repro table3 --seed 7
    python -m repro fig12
    python -m repro run --lc masstree --load 0.2 --policy ubik
    python -m repro scaleout --cores 6,12
    python -m repro cache
    python -m repro cache --prune
    python -m repro cache --clear
    python -m repro table3 --stats
    python -m repro table3 --store directory:///tmp/corpus
    python -m repro bench --quick

``bench`` times the hot-path kernels (mix run, isolated baseline,
1M-access trace replay vs the naive reference, store round-trip) and
writes a schema-stable ``BENCH_<rev>.json`` under ``benchmarks/perf/``
— the performance trajectory future PRs must not regress.  ``bench
--compare OLD.json NEW.json`` diffs two committed documents (per-kernel
p50 deltas plus acceptance-floor status) without running any kernel.

Each command prints the same report its pytest benchmark writes to
``benchmarks/results/``.  ``--jobs N`` fans sweep grids over N worker
processes (results are bit-identical to ``--jobs 1``), and ``--seed``
picks the sweep grid's seed (default 2014); completed runs persist in
the result store (``repro cache`` inspects, ``--prune`` garbage-collects
stale schema generations), so repeat invocations are served from disk.

``--store`` (or ``REPRO_STORE``) picks the result store
(:mod:`repro.runtime.store`) by URL: ``directory:///path`` for the
sharded JSON tree (``--store`` also takes a bare path), ``memory://``
for no persistence.  A directory store is copied like any directory.

``run`` evaluates a single (mix, policy) spec.  A bad flag exits 2
with ``argument --<flag>: ...`` before any command runs, and so does a
bad store location, whether it comes from ``--store`` or from
``REPRO_STORE``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Tuple

from .experiments.common import ExperimentScale, default_scale, format_table
from .runtime.session import Session
from .runtime.store import default_store_url, parse_store_url
from .workloads.names import LC_NAMES, MIN_TAIL_REQUESTS, batch_type_combos

__all__ = ["main"]

COMMANDS = (
    "list",
    "run",
    "fig1a",
    "fig1b",
    "fig2",
    "fig9",
    "table3",
    "fig12",
    "fig13",
    "ablations",
    "utilization",
    "scaleout",
    "bandwidth",
    "cache",
    "bench",
)


#: Commands that report tail metrics, which take at least
#: ``MIN_TAIL_REQUESTS`` requests per LC instance; the others take any
#: positive count.
TAIL_COMMANDS = (
    "run",
    "fig1a",
    "fig9",
    "table3",
    "fig12",
    "fig13",
    "ablations",
    "utilization",
    "scaleout",
    "bandwidth",
)


#: Sweep commands, which run at the scale ``default_scale()`` reads
#: from the environment, adjusted by ``--lc``, ``--requests`` and
#: ``--seed``.
SCALE_COMMANDS = ("fig9", "table3", "fig12", "fig13", "ablations", "utilization")


#: Commands that open the result store.
STORE_COMMANDS = ("run", *SCALE_COMMANDS, "scaleout", "bandwidth", "cache")


def _unknown(flag: str, kind: str, name: str, known) -> ValueError:
    """The usage error for a ``flag`` that names no known ``kind``."""
    return ValueError(f"argument {flag}: unknown {kind} {name!r} (known: {', '.join(known)})")


def _lc_names(raw: Optional[str]) -> Tuple[str, ...]:
    """``--lc`` as LC workload names, stripped and with empty ones
    dropped; ``()`` leaves the command its default."""
    names = tuple(name.strip() for name in (raw or "").split(",") if name.strip())
    for name in names:
        if name not in LC_NAMES:
            raise _unknown("--lc", "LC workload", name, LC_NAMES)
    return names


def _check_store(store: Optional[str]) -> None:
    """Parse the store location ``--store`` or the environment names,
    opening nothing; a bad one is a ``ValueError`` naming its source."""
    if store is None:
        default_store_url()  # its errors start with REPRO_STORE
        return
    try:
        parse_store_url(store)
    except ValueError as exc:
        raise ValueError(f"argument --store: {exc}") from None


def _scale_from_args(args) -> ExperimentScale:
    base = default_scale()
    return ExperimentScale(
        requests=args.requests or base.requests,
        lc_names=args.lc or base.lc_names,
        loads=base.loads,
        combos=base.combos,
        mixes_per_combo=base.mixes_per_combo,
        seed=args.seed,
    )


def _session_from_args(args) -> Session:
    return Session(store=getattr(args, "store", None), jobs=args.jobs)


def _cmd_list(args) -> None:
    rows = [
        ["run", "one (mix, policy) spec"],
        ["fig1a", "load-latency curves (Figure 1a)"],
        ["fig1b", "service-time CDFs (Figure 1b)"],
        ["fig2", "cross-request reuse breakdown (Figure 2)"],
        ["fig9", "scheme distributions (Figure 9)"],
        ["table3", "average weighted speedups (Table 3)"],
        ["fig12", "Ubik slack sensitivity (Figure 12)"],
        ["fig13", "partitioning-scheme sensitivity (Figure 13)"],
        ["ablations", "Ubik design-choice ablations"],
        ["utilization", "Section 7.1 utilization estimate"],
        ["scaleout", "larger-CMP extension"],
        ["bandwidth", "memory-bandwidth contention extension"],
        ["cache", "inspect (--clear/--prune) the store (--store selects a "
         "backend); --stats: artifact cache"],
        ["bench", "time the hot-path kernels, write BENCH_<rev>.json"],
    ]
    print(format_table(["Command", "Regenerates"], rows))


def _run_spec(args):
    """The spec ``run`` evaluates; a bad flag is a ``ValueError`` naming it.

    ``--policy`` is checked against the built-in names first, so a
    served run imports no policy.
    """
    from .runtime import MixRef, PolicySpec, RunSpec, SchemeSpec
    from .runtime.registry import BUILTIN_POLICY_NAMES, POLICIES, SCHEMES

    if not 0.0 < args.load < 1.0:
        raise ValueError(f"argument --load: must be in (0, 1), got {args.load}")
    if args.rep < 0:
        raise ValueError(f"argument --rep: must be non-negative, got {args.rep}")
    combos = ["".join(combo) for combo in batch_type_combos()]
    if args.combo not in combos:
        raise _unknown("--combo", "batch combo", args.combo, combos)
    policy = args.policy.lower()
    if policy not in BUILTIN_POLICY_NAMES and policy not in POLICIES:
        raise _unknown("--policy", "policy", args.policy, POLICIES.names())
    if args.scheme and args.scheme not in SCHEMES:
        raise _unknown("--scheme", "scheme", args.scheme, SCHEMES.names())
    policy_kwargs = {}
    if args.slack is not None:
        if policy != "ubik":
            raise ValueError(f"argument --slack: only ubik takes a slack, not {args.policy!r}")
        # NaN fails both comparisons, so it is rejected too.
        if not 0.0 <= args.slack < float("inf"):
            raise ValueError(
                f"argument --slack: must be finite and non-negative, got {args.slack}"
            )
        policy_kwargs["slack"] = args.slack
    return RunSpec(
        mix=MixRef(
            lc_name=args.lc[0] if args.lc else "masstree",
            load=args.load,
            combo=args.combo,
            rep=args.rep,
            seed=args.seed,
        ),
        policy=PolicySpec.of(args.policy, **policy_kwargs),
        scheme=SchemeSpec.of(args.scheme) if args.scheme else None,
        requests=args.requests or 60,
        seed=args.seed,
    )


def _cmd_run(args) -> None:
    spec = args.spec
    session = _session_from_args(args)
    record = session.run(spec)
    doc = session.store.document_path(spec.fingerprint())
    rows = [
        ["mix", record.mix_id],
        ["policy", record.policy],
        ["tail degradation", f"{record.tail_degradation:.6f}"],
        ["weighted speedup", f"{record.weighted_speedup:.6f}"],
        ["deboosts", record.deboosts],
        ["watermarks", record.watermarks],
        ["fingerprint", spec.fingerprint()],
        ["store document", str(doc) if doc else "(memory-only store)"],
    ]
    print(format_table(["Field", "Value"], rows, title="Run"))


def _cmd_fig1a(args) -> None:
    from .experiments.fig1_load_latency import run_fig1a

    names = list(args.lc or LC_NAMES)
    curves = run_fig1a(names, requests=args.requests or 120)
    rows = [
        [name, f"{p.load:.0%}", f"{p.mean_ms:.3f}", f"{p.tail95_ms:.3f}"]
        for name, points in curves.items()
        for p in points
    ]
    print(format_table(["Workload", "Load", "Mean (ms)", "Tail95 (ms)"], rows))


def _cmd_fig1b(args) -> None:
    from .experiments.fig1b_service_cdf import run_fig1b

    names = list(args.lc or LC_NAMES)
    cdfs = run_fig1b(names)
    rows = [
        [n, f"{c.mean_ms:.3f}", f"{c.p95_ms:.3f}", f"{c.p95_ms/c.mean_ms:.2f}x"]
        for n, c in cdfs.items()
    ]
    print(format_table(["Workload", "Mean (ms)", "p95 (ms)", "p95/mean"], rows))


def _cmd_fig2(args) -> None:
    from .experiments.fig2_reuse import run_fig2

    names = list(args.lc or LC_NAMES)
    breakdowns = run_fig2(names)
    rows = [
        [
            name,
            f"{mb:.0f}MB",
            f"{r.miss_fraction:.1%}",
            f"{r.cross_request_hit_fraction:.1%}",
        ]
        for (name, mb), r in breakdowns.items()
    ]
    print(
        format_table(["Workload", "LLC", "Misses", "Cross-req hit share"], rows)
    )


def _cmd_fig9(args) -> None:
    from .analysis.ascii_plot import distribution_plot
    from .experiments.fig9_distributions import run_fig9

    data = run_fig9(args.scale, session=_session_from_args(args))
    seen = {r.load_label for r in data.sweep.records}
    for load in ("lo", "hi"):
        if load not in seen:
            continue
        print(f"\n=== {'Low' if load == 'lo' else 'High'} load: tail degradation ===")
        print(distribution_plot(data.degradation_series(load)))
        print(f"\n=== {'Low' if load == 'lo' else 'High'} load: weighted speedup ===")
        print(distribution_plot(data.speedup_series(load)))


def _cmd_table3(args) -> None:
    from .experiments.table3_speedups import format_table3, run_table3

    print(
        format_table3(
            run_table3(args.scale, session=_session_from_args(args))
        )
    )


def _cmd_fig12(args) -> None:
    from .experiments.fig12_slack import run_fig12

    entries = run_fig12(args.scale, session=_session_from_args(args))
    rows = [
        [
            f"{e.slack:.0%}",
            e.load_label,
            f"{e.average_speedup_pct:.1f}%",
            f"{e.worst_degradation:.3f}",
        ]
        for e in entries
    ]
    print(format_table(["Slack", "Load", "Avg speedup", "Worst tail"], rows))


def _cmd_fig13(args) -> None:
    from .experiments.fig13_schemes import run_fig13

    entries = run_fig13(args.scale, session=_session_from_args(args))
    rows = [
        [e.scheme, e.load_label, f"{e.worst_degradation:.3f}", f"{e.average_speedup_pct:.1f}%"]
        for e in entries
    ]
    print(format_table(["Scheme", "Load", "Worst tail", "Avg speedup"], rows))


def _cmd_ablations(args) -> None:
    from .experiments.ablations import run_ablations

    entries = run_ablations(args.scale, session=_session_from_args(args))
    rows = [
        [e.variant, e.load_label, f"{e.worst_degradation:.3f}", f"{e.average_speedup_pct:.1f}%"]
        for e in entries
    ]
    print(format_table(["Variant", "Load", "Worst tail", "Avg speedup"], rows))


def _cmd_utilization(args) -> None:
    from .experiments.utilization import run_utilization

    estimates = run_utilization(args.scale, session=_session_from_args(args))
    rows = [
        [e.policy, f"{e.safe_fraction:.0%}", f"{e.utilization:.0%}"]
        for e in estimates.values()
    ]
    print(format_table(["Scheme", "Safe colocations", "Utilization"], rows))


def _core_counts(raw: Optional[str]) -> Tuple[int, ...]:
    """``--cores`` as machine sizes, each positive and even (half LC,
    half batch); 6 and 12 by default."""
    try:
        cores = tuple(int(count) for count in (raw or "6,12").split(","))
        if all(count > 0 and count % 2 == 0 for count in cores):
            return cores
    except ValueError:
        pass
    raise ValueError(f"argument --cores: expected positive even counts, got {raw!r}")


def _cmd_scaleout(args) -> None:
    from .experiments.scaleout import run_scaleout

    results = run_scaleout(
        core_counts=args.cores,
        requests=args.requests or 80,
        session=_session_from_args(args),
    )
    rows = [
        [r.cores, r.policy, f"{r.tail_degradation:.3f}", f"{r.weighted_speedup:.3f}"]
        for r in results
    ]
    print(format_table(["Cores", "Policy", "Tail", "Speedup"], rows))


def _cmd_bandwidth(args) -> None:
    from .experiments.bandwidth_study import run_bandwidth_study

    points = run_bandwidth_study(
        requests=args.requests or 100, session=_session_from_args(args)
    )
    rows = [
        [
            "inf" if p.peak_misses_per_kilocycle > 1e6 else f"{p.peak_misses_per_kilocycle:.0f}",
            p.policy,
            f"{p.tail_degradation:.3f}",
            f"{p.weighted_speedup:.3f}",
        ]
        for p in points
    ]
    print(format_table(["Peak (miss/kcyc)", "Policy", "Tail", "Speedup"], rows))


def _print_artifact_counters() -> None:
    """Render the per-process artifact-cache counters.

    The cache lives for one process, so the counters reflect whatever
    the *current* command simulated — append ``--stats`` to a sweep
    command (``repro table3 --stats``) to see its hit/miss profile; a
    bare ``repro cache --stats`` reports a fresh, empty cache.
    """
    from .runtime.artifacts import get_artifacts

    stats = get_artifacts().stats()
    rows = [["entries", stats["entries"]]]
    for kind, counts in stats["kinds"].items():
        rows.append(
            [
                f"  kind: {kind}",
                f"{counts['hits']} hit / {counts['misses']} miss"
                f" / {counts['entries']} cached",
            ]
        )
    if not stats["kinds"]:
        rows.append(
            ["  (empty)", "add --stats to a sweep command to see activity"]
        )
    print(
        format_table(
            ["Artifact cache (this process)", "Value"],
            rows,
            title="Artifact cache",
        )
    )


def _cmd_cache(args) -> None:
    store = Session(jobs=1, store=getattr(args, "store", None)).store
    # Maintenance actions first, so combinations like
    # `cache --clear --stats` clear and then report rather than
    # silently skipping the clear.
    acted = False
    if args.clear:
        removed = store.clear()
        print(f"cleared {removed} stored result(s)")
        acted = True
    if args.prune:
        counts = store.prune()
        print(
            f"pruned {counts['pruned']} stale result(s), "
            f"kept {counts['kept']} current"
        )
        acted = True
    if args.stats:
        _print_store_stats(store)
        _print_artifact_counters()
        acted = True
    if acted:
        return
    _print_store_stats(store)


def _print_store_stats(store) -> None:
    """Render the result store's backend, counts, and footprint."""
    stats = store.stats()
    rows = [
        ["backend", stats["backend"]],
        [
            "location",
            stats["url"]
            if stats["backend"] != "memory"
            else "(in-memory only; set REPRO_STORE or REPRO_CACHE_DIR)",
        ],
        ["documents", stats["documents"]],
        ["disk bytes", stats["disk_bytes"]],
    ]
    for kind, count in sorted(stats["by_kind"].items()):
        rows.append([f"  kind: {kind}", count])
    print(format_table(["Store", "Value"], rows, title="Result store"))


def _bench_documents(paths: List[str]) -> List[dict]:
    """The JSON documents ``bench --compare`` reads."""
    import json

    documents = []
    for path in paths:
        try:
            documents.append(json.loads(Path(path).read_text()))
        except (OSError, ValueError) as exc:
            raise ValueError(f"argument --compare: {path}: {exc}") from None
    return documents


def _cmd_bench(args) -> None:
    from .bench import format_bench, run_bench, write_bench

    if args.compare:
        from .bench import compare_bench, format_compare

        print(format_compare(compare_bench(*args.documents)))
        return
    payload = run_bench(quick=args.quick)
    path = write_bench(payload, out=args.out)
    print(format_bench(payload))
    print(f"wrote {path}")


_HANDLERS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "fig1a": _cmd_fig1a,
    "fig1b": _cmd_fig1b,
    "fig2": _cmd_fig2,
    "fig9": _cmd_fig9,
    "table3": _cmd_table3,
    "fig12": _cmd_fig12,
    "fig13": _cmd_fig13,
    "ablations": _cmd_ablations,
    "utilization": _cmd_utilization,
    "scaleout": _cmd_scaleout,
    "bandwidth": _cmd_bandwidth,
    "cache": _cmd_cache,
    "bench": _cmd_bench,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments and dispatch to an experiment command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate experiments from the Ubik reproduction.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--lc", help="comma-separated LC workload subset")
    parser.add_argument("--requests", type=int, help="requests per LC instance")
    parser.add_argument("--cores", help="scaleout core counts, e.g. 6,12,24")
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for sweep grids (default REPRO_JOBS or 1; "
        "0 = all cores)",
    )
    parser.add_argument(
        "--load", type=float, default=0.2, help="run: LC offered load"
    )
    parser.add_argument(
        "--combo", default="nft", help="run: three batch-type letters"
    )
    parser.add_argument(
        "--rep", type=int, default=0, help="run: mix replicate index"
    )
    parser.add_argument(
        "--policy", default="ubik", help="run: policy registry name"
    )
    parser.add_argument(
        "--slack", type=float, default=None, help="run: Ubik slack kwarg"
    )
    parser.add_argument(
        "--scheme", default=None, help="run: partitioning-scheme registry name"
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=2014,
        help="spec seed for run, fig9, table3, fig12, fig13, ablations "
        "and utilization (scaleout, bandwidth, fig1a and fig2 keep "
        "their own fixed seeds)",
    )
    parser.add_argument(
        "--store",
        default=None,
        help="result-store location: a backend URL "
        "(directory:///path, memory://) or a bare directory path "
        "(default: REPRO_STORE, then REPRO_CACHE_DIR, then "
        "~/.cache/repro-ubik)",
    )
    parser.add_argument(
        "--clear",
        action="store_true",
        help="with the cache command: delete every stored result",
    )
    parser.add_argument(
        "--prune",
        action="store_true",
        help="with the cache command: drop results from stale schema "
        "generations",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print the per-process artifact-cache hit/miss counters "
        "(streams, baselines, workload objects) after the command "
        "finishes — e.g. 'repro table3 --stats' shows what the sweep "
        "reused in-process; with --jobs > 1 the reuse happens inside "
        "the worker processes, so run serially to inspect it",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="with the bench command: CI-sized workloads (same schema)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="with the bench command: output path "
        "(default benchmarks/perf/BENCH_<rev>.json)",
    )
    parser.add_argument(
        "--compare",
        nargs=2,
        metavar=("OLD.json", "NEW.json"),
        default=None,
        help="with the bench command: compare two bench documents "
        "(per-kernel p50 deltas + acceptance-floor status; runs no "
        "kernels; schema-generation aware)",
    )
    args = parser.parse_args(argv)
    if args.jobs is not None and args.jobs < 0:
        parser.error(
            f"argument --jobs: must be at least 0 (0 = all cores), got {args.jobs}"
        )
    if args.requests is not None:
        least = MIN_TAIL_REQUESTS if args.command in TAIL_COMMANDS else 1
        if args.requests < least:
            parser.error(
                f"argument --requests: {args.command} needs at least "
                f"{least}, got {args.requests}"
            )
    # A bad flag, scale knob or store location is a usage error too,
    # reported before any spec is evaluated.
    try:
        args.lc = _lc_names(args.lc)
        if args.command in STORE_COMMANDS:
            _check_store(args.store)
        if args.command in SCALE_COMMANDS:
            args.scale = _scale_from_args(args)
            if args.command == "utilization":
                from .experiments.utilization import require_low_load

                require_low_load(args.scale)
        elif args.command == "run":
            args.spec = _run_spec(args)
        elif args.command == "scaleout":
            args.cores = _core_counts(args.cores)
        elif args.command == "bench" and args.compare:
            args.documents = _bench_documents(args.compare)
    except ValueError as exc:
        parser.error(str(exc))
    _HANDLERS[args.command](args)
    if args.stats and args.command != "cache":
        # Report what this process actually reused while the command
        # ran; the cache command handled the flag itself above.
        _print_artifact_counters()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
