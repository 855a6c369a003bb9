"""In-memory span recorder for the benchmark's traced runs.

A traced child process wraps the public entry points of each
``repro`` layer from here, outside the package: every wrapped call
opens a span (name, start, end, parent) or bumps a counter, and the
spans stay in memory until the run ends.  :meth:`Tracer.restore` puts
every original attribute back, so a process can run traced and then
untraced.  Untraced processes never import this module.

A layer's *self* time is the duration of its spans minus the part
covered by their child spans; spans nest strictly because the traced
program is single-threaded.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter
from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = ["Tracer", "install_layers", "self_times", "summarize", "tally"]

_MISSING = object()

#: The partitioning policies of Table 3 and Fig 13, by class name.
POLICY_LABELS = {
    "UbikPolicy": "ubik",
    "UCPPolicy": "ucp",
    "OnOffPolicy": "onoff",
    "StaticLCPolicy": "static_lc",
}

#: Policy hook -> the kind of decision it makes.
POLICY_HOOKS = {
    "initialize": "interval",
    "on_interval": "interval",
    "on_lc_active": "event",
    "on_lc_idle": "event",
    "on_deboost": "event",
    "on_watermark": "event",
}


class Tracer:
    """Spans and counters recorded around wrapped calls.

    A span is ``[name, start_ns, end_ns, parent_index, note]``;
    ``parent_index`` is ``-1`` for a root span and ``note`` holds what
    the wrapped call returned that the summary needs (or ``None``).
    """

    def __init__(self, clock: Callable[[], int] = time.monotonic_ns):
        self.clock = clock
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._open: List[int] = []
        self._patches: List[tuple] = []

    def _begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), 0, parent, None])
        self._open.append(index)
        return index

    def _end(self, index: int) -> None:
        self._open.pop()
        self.spans[index][2] = self.clock()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around a block of code."""
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    def _patch(self, owner: Any, attr: str, make: Callable) -> None:
        saved = vars(owner).get(attr, _MISSING)
        original = getattr(owner, attr)
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._patches.append((owner, attr, saved))

    def time_calls(
        self,
        owner: Any,
        attr: str,
        name: str,
        when: Optional[Callable[..., bool]] = None,
        note: Optional[Callable[[Any], Any]] = None,
    ) -> None:
        """Record a span around every call of ``owner.attr``.

        ``when(*args)`` limits the span to the calls it accepts;
        ``note(result)`` keeps a summary of the call's return value on
        the span.
        """
        begin, end, spans = self._begin, self._end, self.spans

        def make(original):
            def traced(*args, **kwargs):
                if when is not None and not when(*args, **kwargs):
                    return original(*args, **kwargs)
                index = begin(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    end(index)
                if note is not None:
                    spans[index][4] = note(result)
                return result

            return traced

        self._patch(owner, attr, make)

    def count_calls(self, owner: Any, attr: str, name: str) -> None:
        """Count the calls of ``owner.attr`` without timing them."""
        counts = self.counts

        def make(original):
            def counted(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            return counted

        self._patch(owner, attr, make)

    def restore(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, saved = self._patches.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)


def install_layers(tracer: Tracer) -> None:
    """Wrap the entry points of every ``repro`` layer the benchmark splits."""
    from repro.cache.sharing import SharedOccupancyModel
    from repro.core import boost
    from repro.core.ubik import UbikPolicy
    from repro.monitor.miss_curve import MissCurve
    from repro.policies.onoff import OnOffPolicy
    from repro.policies.static_lc import StaticLCPolicy
    from repro.policies.ucp import UCPPolicy
    from repro.runtime.spec import RunSpec
    from repro.runtime.store import ResultStore
    from repro.sim.engine import MixEngine
    from repro.sim.mix_runner import MixRunner

    tracer.time_calls(
        MixRunner,
        "run_mix_group",
        "sim.replay",
        note=lambda results: (
            len(results),
            sum(i.requests_served for r in results for i in r.lc_instances),
        ),
    )
    tracer.time_calls(
        MixEngine,
        "run",
        "sim.unmanaged",
        when=lambda engine: not engine.policy.uses_partitioning,
    )
    tracer.time_calls(MixRunner, "baseline_instance", "sim.baseline")
    tracer.time_calls(MixRunner, "stream", "workloads.stream")
    for cls in (UbikPolicy, UCPPolicy, OnOffPolicy, StaticLCPolicy):
        label = POLICY_LABELS[cls.__name__]
        for hook, kind in POLICY_HOOKS.items():
            tracer.time_calls(cls, hook, f"policies.{label}.{kind}")
    tracer.time_calls(
        ResultStore,
        "get_record",
        "runtime.store.get",
        note=lambda record: record is not None,
    )
    tracer.time_calls(ResultStore, "get_baseline", "runtime.store.get")
    tracer.time_calls(ResultStore, "put_record", "runtime.store.put")
    tracer.time_calls(ResultStore, "put_baseline", "runtime.store.put")
    tracer.time_calls(RunSpec, "fingerprint", "runtime.fingerprint")
    tracer.count_calls(SharedOccupancyModel, "step", "cache.sharing.steps")
    tracer.count_calls(MissCurve, "__call__", "monitor.curve.calls")
    tracer.count_calls(boost, "evaluate_options", "core.boost.options.calls")


def self_times(spans: List[list]) -> List[int]:
    """Each span's duration minus the durations of its child spans."""
    covered = [0] * len(spans)
    for __, start, end, parent, __ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [
        end - start - covered[i] for i, (__, start, end, __, __) in enumerate(spans)
    ]


def tally(
    spans: List[list], counts: Dict[str, int], artifacts: Dict[str, Any]
) -> Counter:
    """Raw per-layer sums of one traced process, in nanoseconds and calls.

    ``artifacts`` is the process's ``get_artifacts().stats()``.  Tallies
    of several processes add up with ``+``; :func:`summarize` turns the
    total into metrics.
    """
    totals = Counter(counts)
    for span, own in zip(spans, self_times(spans)):
        name, start, end, parent, note = span
        totals["self:" + name] += own
        totals["calls:" + name] += 1
        if parent < 0:
            totals["covered_ns"] += end - start
        if name == "sim.replay":
            totals["replay_ns"] += end - start
            totals["replay_cells"] += note[0]
            totals["replay_requests"] += note[1]
        elif name == "runtime.store.get" and note is not None:
            totals["record_lookups"] += 1
            totals["record_hits"] += note
    for kind in artifacts["kinds"].values():
        totals["artifact_hits"] += kind["hits"]
        totals["artifact_misses"] += kind["misses"]
    return totals


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def summarize(totals: Counter) -> Dict[str, float]:
    """Per-layer metrics from summed tallies; ``*.s`` are self seconds.

    A hit ratio with nothing looked up reads 0.
    """
    def secs(name: str) -> float:
        return totals["self:" + name] * 1e-9

    metrics = {
        "sim.replay.self_s": secs("sim.replay"),
        "sim.replay.groups": totals["calls:sim.replay"],
        "sim.replay.cells": totals["replay_cells"],
        "sim.replay.requests": totals["replay_requests"],
        "sim.replay.ns_per_request": _ratio(
            totals["replay_ns"], totals["replay_requests"]
        ),
        "sim.unmanaged.self_s": secs("sim.unmanaged"),
        "sim.unmanaged.cells": totals["calls:sim.unmanaged"],
        "sim.baseline.s": secs("sim.baseline"),
        "sim.baseline.instances": totals["calls:sim.baseline"],
        "cache.sharing.steps": totals["cache.sharing.steps"],
        "monitor.curve.calls": totals["monitor.curve.calls"],
        "core.boost.options.calls": totals["core.boost.options.calls"],
        "workloads.stream.s": secs("workloads.stream"),
        "workloads.stream.calls": totals["calls:workloads.stream"],
        "runtime.store.get_s": secs("runtime.store.get"),
        "runtime.store.get_calls": totals["calls:runtime.store.get"],
        "runtime.store.put_s": secs("runtime.store.put"),
        "runtime.store.put_calls": totals["calls:runtime.store.put"],
        "runtime.store.hit_ratio": _ratio(
            totals["record_hits"], totals["record_lookups"]
        ),
        "runtime.fingerprint.s": secs("runtime.fingerprint"),
        "runtime.fingerprint.calls": totals["calls:runtime.fingerprint"],
        "runtime.artifacts.hit_ratio": _ratio(
            totals["artifact_hits"],
            totals["artifact_hits"] + totals["artifact_misses"],
        ),
        "setup.interpreter_s": secs("setup.interpreter"),
        "setup.import_s": secs("setup.import"),
    }
    for kind in ("interval", "event"):
        names = [f"policies.{label}.{kind}" for label in POLICY_LABELS.values()]
        metrics[f"policies.{kind}.s"] = sum(secs(name) for name in names)
        metrics[f"policies.{kind}.calls"] = sum(
            totals["calls:" + name] for name in names
        )
    for label in POLICY_LABELS.values():
        metrics[f"policies.{label}.s"] = secs(f"policies.{label}.interval") + secs(
            f"policies.{label}.event"
        )
    return metrics
