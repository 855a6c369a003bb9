"""One benchmark process: a ``table3`` or ``fig13`` step against one store.

``run.py`` spawns this script once per step and measures it from the
outside (wall clock, CPU, peak memory).  The script reports what only
it can see — when set-up ended, the artifact the step returned, the
per-cell records of the sweeps it built, and, when traced, its spans —
in a JSON file::

    PYTHONPATH=src python3 e2ebench/child.py --step table3 --seed 2014 \\
        --store .e2ebench/tmp/store --out .e2ebench/tmp/table3.json \\
        --spawn-ns "$(python3 -c 'import time; print(time.monotonic_ns())')"

Set-up covers interpreter start, ``import repro.cli`` and opening the
session and store; it ends just before the step evaluates its first
spec.  The store is passed explicitly and the session is serial.
"""

import argparse
import contextlib
import json
import time


def _untraced(name: str):
    return contextlib.nullcontext()


def main() -> None:
    start_ns = time.monotonic_ns()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--step", required=True, choices=("table3", "fig13"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--store", required=True, help="directory store root")
    parser.add_argument("--out", required=True, help="result JSON file")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--spawn-ns", type=int, required=True, help="monotonic time of the spawn"
    )
    args = parser.parse_args()

    tracer = None
    span = _untraced
    if args.trace:
        from tracer import Tracer, install_layers

        tracer = Tracer()
        span = tracer.span
        tracer.spans.append(["setup.interpreter", args.spawn_ns, start_ns, -1, None])

    with span("setup.import"):
        import repro.cli  # noqa: F401

    from grid import make_scale, run_step, step_records
    from repro.runtime import Session
    from repro.runtime.artifacts import get_artifacts

    if tracer is not None:
        install_layers(tracer)
    scale = make_scale(args.seed)
    session = Session(store=f"directory://{args.store}", jobs=1)

    ready_ns = time.monotonic_ns()
    value = run_step(args.step, scale, session)
    if tracer is not None:
        tracer.restore()

    result = {
        "ready_ns": ready_ns,
        "value": value,
        "records": step_records(args.step, scale, session),
    }
    if tracer is not None:
        result["trace"] = {
            "spans": tracer.spans,
            "counts": dict(tracer.counts),
            "artifacts": get_artifacts().stats(),
        }
    with open(args.out, "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
