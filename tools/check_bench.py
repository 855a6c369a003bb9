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

Two rules.  A ``repro-bench/11`` document (the current schema) must
carry every current kernel and the comparison fields of each compared
kernel.  A document tagged ``repro-bench/1`` to ``/10`` is an
archive: it is held only to the top-level fields, the per-kernel
keys of each kernel it carries, and the comparison fields of each
compared kernel it carries.
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
