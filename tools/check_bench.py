#!/usr/bin/env python
"""CI gate: validate ``BENCH_*.json`` documents against the bench schema.

Usage::

    python tools/check_bench.py bench.json [more.json ...]
    python tools/check_bench.py            # every benchmarks/perf/BENCH_*.json

Fails (exit 1) on **schema drift** — missing kernels, missing or
mistyped fields, a stale schema tag — and never on timing values, so
the CI bench smoke job is immune to machine noise.  The actual rules
live in :func:`repro.bench.validate_bench`; this wrapper just feeds it
files, exactly like ``tools/check_docs.py`` wraps the docs gate.

Validation is generation-aware: ``repro-bench/8`` documents (the
current schema) must carry all eleven kernels — including the
``repartition_table`` entry comparing Ubik's float table walks against
the NumPy walks of ``repro.core.reference`` (with its
baseline/speedup/``verified_identical`` fields), the
``lockstep_replay`` entry comparing the replay engine against the
per-cell ``run_mix`` oracle on the pinned fixed-allocation grid (with
its baseline/speedup/``verified_identical`` fields; older documents
compared it against the since-deleted grouped per-cell loop), the
``cluster_roundtrip`` entry timing a real 3-node/R=2 ``cluster://``
fabric (replicated put, healthy get, and ``degraded_get`` percentiles
measured with one node's socket closed, so the failover tail is a
tracked number), the ``joint_replay_grid`` entry comparing the
batched replay-group path against the per-cell oracle, the
sweep-level ``warm_sweep_grid``/``stream_synthesis`` comparison
entries, and the per-backend ``store_backend_roundtrip`` entry with
p50/p90/p99 put/get percentiles for every storage engine, http
included (timed against a live served store, so the number prices the
network hop) — while committed ``repro-bench/7`` (ten-kernel,
pre-repartition-table), ``repro-bench/6`` (nine-kernel,
pre-lockstep), ``repro-bench/5`` (eight-kernel, pre-cluster),
``repro-bench/4`` (three-backend store kernel, pre-http),
``repro-bench/3`` (seven-kernel), ``repro-bench/2`` (six-kernel) and
``repro-bench/1`` (four-kernel) documents are held to their own
generations — the trajectory's history never rots out of CI.
Quick-mode documents (``repro bench --quick``) carry the identical
schema, so the CI smoke validates the new kernels on every push.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench import validate_bench  # noqa: E402


def check_file(path: Path) -> list:
    """Problems found in one bench document (empty list = valid)."""
    return inspect_file(path)[0]


def inspect_file(path: Path):
    """(problems, schema tag) for one bench document, parsed once."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return [f"unreadable: {exc}"], None
    schema = payload.get("schema") if isinstance(payload, dict) else None
    return validate_bench(payload), schema


def main(argv: list) -> int:
    """Validate the given files (default: the committed trajectory)."""
    if argv:
        paths = [Path(arg) for arg in argv]
    else:
        paths = sorted((REPO_ROOT / "benchmarks" / "perf").glob("BENCH_*.json"))
    if not paths:
        print("no bench documents to check", file=sys.stderr)
        return 1
    failures = 0
    for path in paths:
        problems, generation = inspect_file(path)
        if problems:
            failures += 1
            print(f"FAIL {path}", file=sys.stderr)
            for problem in problems:
                print(f"  - {problem}", file=sys.stderr)
        else:
            print(f"ok   {path} ({generation})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
