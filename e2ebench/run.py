"""End-to-end benchmark: cold Table 3 and Fig 13, and store-served reruns.

Run from the repository root::

    python3 e2ebench/run.py --workload table3-cold --seed 2014 --seconds 25 --trace 0

Workloads (see ``e2ebench/README.md`` for why each exists):

* ``table3-cold`` — ``run_table3`` + ``format_table3`` into an empty store;
* ``fig13-cold`` — ``run_fig13`` into an empty store;
* ``store-warm`` — ``table3`` then ``fig13``, each in its own process,
  served from a directory store filled by an untimed set-up.

Every repetition spawns fresh serial processes (``child.py``) and
measures them from outside.  An untimed set-up repetition runs first:
on the cold workloads at the default seed, on ``store-warm`` at the
invocation's seed into the store the repetitions then read.  It also
fills the children's bytecode cache, so every timed child loads the
sources from bytecode.  Timed repetitions continue until ``--seconds``
have passed, and each end-to-end metric is the median over them.  With
``--trace 1`` one more repetition runs with the layer wrappers of
``tracer.py`` installed, and the per-layer metrics come from it alone.
The last line of standard output is one JSON object::

    {"correct": true, "attempted": 300, "failed": 0, "metrics": {...}}

Outputs are checked on every repetition, the set-up included: at the
default seed against the artifacts and records pinned in ``expected/``,
at any other seed against the first repetition at that seed.  One
sampled replay group per step, at the invocation's seed and at the
default seed, is also replayed through the scalar ``MixRunner.run_mix``
oracle and checked the same way.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".e2ebench"
CHILD = HERE / "child.py"
EXPECTED_DIR = HERE / "expected"

#: Workload -> the steps one repetition runs, in order, and whether
#: each repetition starts from an empty store.
WORKLOADS = {
    "table3-cold": (("table3",), True),
    "fig13-cold": (("fig13",), True),
    "store-warm": (("table3", "fig13"), False),
}

#: Repetitions measured even when ``--seconds`` is shorter than that.
MIN_REPS = 3

#: A child still running after this long is killed and counts as failed.
CHILD_TIMEOUT_S = 150


def child_env(pycache: Path) -> Dict[str, str]:
    """The environment every child gets.

    Inherited ``REPRO_*`` settings are removed, this checkout's sources
    are on the path, and the default cache directory points inside the
    checkout.  Bytecode is read from and written to ``pycache`` only,
    never to the ``__pycache__`` directories that other processes leave
    in the source tree, so whether a child compiles depends on this
    invocation alone.
    """
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("REPRO_") and k != "PYTHONDONTWRITEBYTECODE"
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    env["XDG_CACHE_HOME"] = str(WORK_DIR / "xdg-cache")
    return env


def run_child(
    step: str, seed: int, store: Path, out: Path, env: Dict[str, str], trace: bool
) -> Optional[dict]:
    """Run one step in a fresh process and measure it from outside.

    Returns the wall, set-up, CPU and peak-memory figures plus the
    child's own report, or ``None`` (after printing its stderr) when
    the child failed.
    """
    stderr_path = out.with_suffix(".stderr")
    with open(stderr_path, "w") as stderr:
        spawn_ns = time.monotonic_ns()
        command = [
            sys.executable, str(CHILD),
            "--step", step,
            "--seed", str(seed),
            "--store", str(store),
            "--out", str(out),
            "--trace", str(int(trace)),
            "--spawn-ns", str(spawn_ns),
        ]
        proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=stderr
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            __, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        end_ns = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        print(
            f"{step} process exited with {proc.returncode}:\n"
            + stderr_path.read_text()[-4000:],
            file=sys.stderr,
        )
        return None
    report = json.loads(out.read_text())
    return {
        "wall_s": (end_ns - spawn_ns) * 1e-9,
        "setup_s": (report["ready_ns"] - spawn_ns) * 1e-9,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "report": report,
    }


def run_steps(
    steps, seed: int, store: Path, scratch: Path, env: Dict[str, str], trace=False
) -> Dict[str, Optional[dict]]:
    """One repetition: each step in its own process, against one store."""
    return {
        step: run_child(step, seed, store, scratch / f"{step}.json", env, trace)
        for step in steps
    }


def rep_metrics(results: Dict[str, dict]) -> Dict[str, float]:
    """End-to-end figures of one repetition: times summed over its
    processes, memory the largest process's peak."""
    return {
        "wall_s": sum(r["wall_s"] for r in results.values()),
        "setup_s": sum(r["setup_s"] for r in results.values()),
        "cpu_s": sum(r["cpu_s"] for r in results.values()),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results.values()),
    }


class Checker:
    """Counts the operations attempted and the operations that failed.

    A step's operations are its sweep cells, each checked by its
    record, and the artifact the step returned.  The reference of a
    step at one seed is its pinned output when given, else the first
    output checked; a step whose process failed fails every operation.
    """

    def __init__(self, cells: Dict[str, int], reference: Dict[tuple, dict]):
        self.cells = cells
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def check(self, step: str, seed: int, report: Optional[dict]) -> None:
        operations = self.cells[step] + 1
        self.attempted += operations
        if report is None or len(report["records"]) != self.cells[step]:
            self.failed += operations
            return
        reference = self.reference.setdefault(
            (step, seed), {"value": report["value"], "records": report["records"]}
        )
        self.failed += report["value"] != reference["value"]
        self.failed += sum(
            record != expected
            for record, expected in zip(report["records"], reference["records"])
        )


def sample_oracle(step: str, seed: int, records: List[dict]) -> tuple:
    """Replay one sampled group of a step cell by cell through the
    scalar oracle and compare it with the step's reference ``records``.

    Returns ``(cells checked, cells that differ)``.
    """
    from grid import make_scale, step_sweeps
    from repro.runtime.work import execute_spec

    rng = random.Random(f"{step}-{seed}")
    sweeps = step_sweeps(step, make_scale(seed))
    index = rng.randrange(len(sweeps))
    offset = sum(len(s) for s in sweeps[:index])
    mix = rng.choice(sweeps[index]).mix
    positions = [
        offset + j for j, spec in enumerate(sweeps[index]) if spec.mix == mix
    ]
    bad = 0
    for position in positions:
        # Without a store, execute_spec replays the one cell through
        # MixRunner.run_mix: the scalar path grouped replay must match.
        oracle = execute_spec(sweeps[index][position - offset]).to_dict()
        bad += oracle != records[position]
    return len(positions), bad


def paper_error_pp(measured: Dict[str, Dict[str, float]]) -> float:
    """Mean absolute gap, in percentage points, to the paper's Table 3."""
    from repro.experiments.table3_speedups import PAPER_TABLE3

    gaps = [
        abs(value - PAPER_TABLE3[load][policy])
        for load, row in measured.items()
        for policy, value in row.items()
    ]
    return sum(gaps) / len(gaps)


def quartiles(values: List[float]) -> tuple:
    """(first quartile, median, third quartile) of at least one value."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _terminate(signum, frame):
    # Unwind like an interrupt, so the running child is killed and
    # reaped and the temporary stores are removed.
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2014)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The oracle below runs in this process: keep it as hermetic as the
    # children.
    scrubbed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for name in scrubbed:
        del os.environ[name]
    sys.path.insert(0, str(ROOT / "src"))
    from grid import DEFAULT_SEED, make_scale, step_sweeps
    from tracer import summarize, tally

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    steps, cold = WORKLOADS[args.workload]
    scale = make_scale(args.seed)
    cells = {step: sum(map(len, step_sweeps(step, scale))) for step in steps}
    reference = {
        (step, DEFAULT_SEED): json.loads((EXPECTED_DIR / f"{step}.json").read_text())
        for step in steps
    }
    checker = Checker(cells, reference)
    WORK_DIR.mkdir(exist_ok=True)

    with tempfile.TemporaryDirectory(dir=WORK_DIR) as shared:
        shared = Path(shared)
        env = child_env(shared / "pycache")
        setup_store = shared / "store"
        setup_seed = DEFAULT_SEED if cold else args.seed
        setup = run_steps(steps, setup_seed, setup_store, shared, env)
        for step, result in setup.items():
            checker.check(step, setup_seed, result and result["report"])
        if None in setup.values():
            print("the set-up repetition failed", file=sys.stderr)
            return 1

        def repetition(trace: bool) -> Optional[Dict[str, dict]]:
            with tempfile.TemporaryDirectory(dir=WORK_DIR) as scratch:
                scratch = Path(scratch)
                store = scratch / "store" if cold else setup_store
                results = run_steps(steps, args.seed, store, scratch, env, trace)
                for step, result in results.items():
                    checker.check(step, args.seed, result and result["report"])
                    if trace and result is not None:
                        shutil.copy(
                            scratch / f"{step}.json",
                            WORK_DIR / f"{args.workload}-trace-{step}.json",
                        )
            return None if None in results.values() else results

        reps: List[Dict[str, float]] = []
        first = None
        attempts = 0
        deadline = time.monotonic() + args.seconds
        while attempts < MIN_REPS or time.monotonic() < deadline:
            attempts += 1
            results = repetition(trace=False)
            if results is not None:
                reps.append(rep_metrics(results))
                first = first or results
        if not reps:
            print("every repetition failed", file=sys.stderr)
            return 1

        for seed in sorted({args.seed, DEFAULT_SEED}):
            for step in steps:
                records = reference[step, seed]["records"]
                checked, bad = sample_oracle(step, seed, records)
                checker.attempted += checked
                checker.failed += bad

        per_layer = None
        if args.trace:
            traced = repetition(trace=True)
            if traced is None:
                print("the traced repetition failed", file=sys.stderr)
                return 1
            totals = Counter()
            for result in traced.values():
                trace = result["report"]["trace"]
                totals += tally(trace["spans"], trace["counts"], trace["artifacts"])
            per_layer = summarize(totals)
            traced_wall = rep_metrics(traced)["wall_s"]
            covered_s = totals["covered_ns"] * 1e-9
            per_layer["trace.unattributed_s"] = traced_wall - covered_s
            per_layer["trace.overhead_frac"] = (
                traced_wall / statistics.median(r["wall_s"] for r in reps) - 1.0
            )

    paper_err_pp = None
    if "table3" in first:
        paper_err_pp = paper_error_pp(first["table3"]["report"]["value"])
    print(f"workload {args.workload}  seed {args.seed}  repetitions {len(reps)}")
    for metric in declared["end_to_end"]:
        q1, median, q3 = quartiles([r[metric["name"]] for r in reps])
        print(
            f"  {metric['name']:<12} median {median:10.4f} {metric['unit']:<3}"
            f" (q1 {q1:.4f}, q3 {q3:.4f})"
        )
    print(
        f"  failed_frac  {checker.failed / checker.attempted:.4f}"
        f"  ({checker.failed} of {checker.attempted} operations)"
    )
    if paper_err_pp is None:
        print("  paper_err_pp unvalidated: the repository has no Fig 13 reference")
    else:
        print(f"  paper_err_pp {paper_err_pp:.4f} pp (Table 3 vs PAPER_TABLE3)")
    report_name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path = WORK_DIR / report_name
    report_path.write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "child_env": env,
                "scrubbed": scrubbed,
                "repetitions": reps,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "paper_err_pp": paper_err_pp,
                "per_layer": per_layer,
            },
            indent=1,
        )
    )
    print(f"  report: {report_path.relative_to(ROOT)}")

    if args.trace:
        values, declared_metrics = per_layer, declared["per_layer"]
    else:
        values = {
            name: statistics.median(r[name] for r in reps) for name in reps[0]
        }
        declared_metrics = declared["end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared_metrics
    }
    print(
        json.dumps(
            {
                "correct": checker.failed == 0,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
