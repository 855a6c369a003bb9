"""Tests of the benchmark's tracer, output check, child environment and
failure exit.

Run from the repository root::

    python3 -m pytest e2ebench/tests -q
"""

import os
import py_compile
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from run import Checker, child_env  # noqa: E402
from tracer import Tracer, install_layers, self_times, summarize, tally  # noqa: E402


class _Clock:
    """A clock that advances by a scripted step on every read."""

    def __init__(self, steps):
        self.now = 0
        self.steps = iter(steps)

    def __call__(self):
        self.now += next(self.steps)
        return self.now


class _Layer:
    def outer(self, tracer):
        tracer.clock.now += 100  # own work before the children
        self.inner()
        self.inner()
        return "done"

    def inner(self):
        return "leaf"


def test_self_time_subtracts_nested_child_spans():
    # Reads: outer begin, inner begin/end, inner begin/end, outer end.
    tracer = Tracer(clock=_Clock([0, 5, 7, 11, 13, 17]))
    tracer.time_calls(_Layer, "outer", "outer")
    tracer.time_calls(_Layer, "inner", "inner")
    assert _Layer().outer(tracer) == "done"
    tracer.restore()

    names = [span[0] for span in tracer.spans]
    assert names == ["outer", "inner", "inner"]
    assert [span[3] for span in tracer.spans] == [-1, 0, 0]
    # outer: 0 -> 100+5+7+11+13+17 = 153; inners take 7 and 13.
    assert [end - start for __, start, end, __, __ in tracer.spans] == [153, 7, 13]
    assert self_times(tracer.spans) == [153 - 7 - 13, 7, 13]


def test_tally_and_summary_of_synthetic_spans():
    spans = [
        ["sim.replay", 0, 1000, -1, (5, 40)],
        ["policies.ubik.event", 100, 300, 0, None],
        ["policies.ucp.interval", 300, 400, 0, None],
        ["sim.unmanaged", 400, 900, 0, None],
        ["runtime.store.get", 1000, 1010, -1, False],
        ["runtime.store.get", 1010, 1020, -1, True],
        ["runtime.store.get", 1020, 1030, -1, None],  # a baseline read
    ]
    artifacts = {"kinds": {"stream": {"hits": 3, "misses": 1, "entries": 1}}}
    totals = tally(spans, {"cache.sharing.steps": 9}, artifacts)
    # Tallies of two processes add up.
    metrics = summarize(totals + totals)

    assert totals["covered_ns"] == 1030
    assert metrics["sim.replay.self_s"] == pytest.approx(2 * 200e-9)
    assert metrics["sim.replay.groups"] == 2
    assert metrics["sim.replay.cells"] == 10
    assert metrics["sim.replay.ns_per_request"] == pytest.approx(2000 / 80)
    assert metrics["sim.unmanaged.self_s"] == pytest.approx(2 * 500e-9)
    assert metrics["policies.ubik.s"] == pytest.approx(2 * 200e-9)
    assert metrics["policies.event.s"] == pytest.approx(2 * 200e-9)
    assert metrics["policies.interval.calls"] == 2
    assert metrics["runtime.store.get_calls"] == 6
    assert metrics["runtime.store.hit_ratio"] == 0.5
    assert metrics["runtime.artifacts.hit_ratio"] == 0.75
    assert metrics["cache.sharing.steps"] == 18


def test_restore_puts_back_own_and_inherited_attributes():
    class Base:
        def hook(self):
            return "base"

    class Child(Base):
        def own(self):
            return "own"

    before = dict(vars(Child))
    tracer = Tracer()
    tracer.time_calls(Child, "hook", "hook", when=lambda self: False)
    tracer.count_calls(Child, "own", "own")
    assert Child().hook() == "base" and Child().own() == "own"
    assert tracer.spans == [] and tracer.counts["own"] == 1
    tracer.restore()
    assert dict(vars(Child)) == before
    assert Child.hook is Base.hook


def test_traced_and_untraced_runs_give_identical_outputs():
    from repro.experiments.common import ExperimentScale
    from repro.runtime import Session
    from repro.runtime.artifacts import get_artifacts
    from repro.sim.mix_runner import MixRunner

    from grid import STEPS, run_step, step_records

    scale = ExperimentScale(requests=20, lc_names=("masstree",), combos=("nft",))
    original = vars(MixRunner)["run_mix_group"]

    def outputs(trace: bool):
        # Each run synthesizes its own streams and baselines, so a
        # baseline perturbed by tracing would show in the records.
        get_artifacts().clear()
        session = Session(store="memory://", jobs=1)
        tracer = Tracer()
        if trace:
            install_layers(tracer)
        try:
            values = [run_step(step, scale, session) for step in STEPS]
            spans = len(tracer.spans)
            records = [step_records(step, scale, session) for step in STEPS]
            # The records come from the sweeps the steps built: no
            # store read, no fingerprint, no replay.
            assert len(tracer.spans) == spans
            stats = get_artifacts().stats()
        finally:
            tracer.restore()
        # The session stays alive: a memory store's sweep memo key is
        # its id(), which a new store could otherwise reuse.
        return (values, records), tracer, stats, session

    traced, tracer, stats, keep_alive = outputs(trace=True)
    untraced, __, __, __ = outputs(trace=False)
    assert traced == untraced
    assert vars(MixRunner)["run_mix_group"] is original
    metrics = summarize(tally(tracer.spans, tracer.counts, stats))
    # Two mixes: two table3 groups of five cells, ten fig13 groups of one.
    assert metrics["sim.replay.groups"] == 12
    assert metrics["sim.replay.cells"] == 20
    assert metrics["sim.unmanaged.cells"] == 2
    assert metrics["sim.baseline.instances"] == 6
    assert metrics["policies.ubik.s"] > 0
    assert metrics["cache.sharing.steps"] > 0
    assert metrics["runtime.store.put_calls"] > 0


def test_checker_counts_failed_cells_and_artifacts():
    def output(value, *cells):
        return {"value": {"lo": value}, "records": [{"a": a} for a in cells]}

    checker = Checker({"table3": 2}, {("table3", 2014): output(1.5, 1, 2)})
    checker.check("table3", 2014, output(1.5, 1, 2))
    checker.check("table3", 2014, output(1.5, 1, 3))  # one record differs
    checker.check("table3", 2014, output(1.25, 1, 2))  # the artifact differs
    checker.check("table3", 2014, output(1.5, 1))  # a record is missing
    checker.check("table3", 2014, None)  # the process failed
    assert (checker.attempted, checker.failed) == (15, 8)

    # Another seed's reference is its first output, not the pinned one.
    checker.check("table3", 7, output(9.0, 5, 6))
    checker.check("table3", 7, output(9.0, 5, 7))
    assert (checker.attempted, checker.failed) == (21, 9)


def test_children_read_bytecode_only_from_their_own_cache(tmp_path):
    # A stray cache entry in the source tree that matches the source's
    # mtime and size, as one compiled before an edit would, but holds
    # other code.
    source = tmp_path / "probe.py"
    source.write_text('VALUE = "stale"\n')
    stray = tmp_path / "__pycache__" / f"probe.{sys.implementation.cache_tag}.pyc"
    py_compile.compile(str(source), cfile=str(stray))
    stat = source.stat()
    source.write_text('VALUE = "fresh"\n')
    os.utime(source, ns=(stat.st_atime_ns, stat.st_mtime_ns))

    def probe(env):
        return subprocess.run(
            [sys.executable, "-c", "import probe; print(probe.VALUE)"],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()

    plain = {k: v for k, v in os.environ.items() if k != "PYTHONPYCACHEPREFIX"}
    assert probe(plain) == "stale"

    cache = tmp_path / "pycache"
    env = child_env(cache)
    assert probe(env) == "fresh"
    written = {path: path.stat().st_mtime_ns for path in cache.rglob("*.pyc")}
    assert any(path.name.startswith("probe.") for path in written)
    # The next child loads everything from the cache the first one filled.
    assert probe(env) == "fresh"
    assert {path: path.stat().st_mtime_ns for path in cache.rglob("*.pyc")} == written


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(
        BENCH, tmp_path / "e2ebench", ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "table3-cold"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
