"""Replay groups: the sweep cells that replay the same streams.

A policy sweep evaluates many grid *cells* — (mix, policy, scheme)
triples — whose six-app event loops replay the **same** request streams
over the **same** miss curves and differ only in the policy/scheme
parameters steering them.  Cells that share their streams form one
*replay group*.  The runtime plans the groups (:func:`plan_groups`),
and :meth:`~repro.sim.mix_runner.MixRunner.run_mix_group` runs each
group's cells one after another on
:class:`~repro.sim.engine.MixEngine`, all over one
:class:`GroupShared` context.  The first cell that needs a
group-constant value computes it and every sibling reuses it: the
merged arrival schedule, curve-segment evaluations, initial access
rates, stream statistics, first-interval view statics, and float
copies of the streams.  Policy decisions stay per cell (each cell keeps
its own event loop, RNG, fill states and partition targets).  The
shared layer only memoizes *pure* values keyed by the exact inputs they
depend on, so a cell performs the identical float operations in the
identical order as the scalar oracle
(:class:`~repro.sim.reference.NaiveMixEngine`, behind
:meth:`~repro.sim.mix_runner.MixRunner.run_mix`).

What makes two cells groupable (the *group-planning rules*):

* the same mix reference (LC workload, load, batch combo, rep —
  hence the same arrival/work arrays and miss curves),
* the same engine-visible run parameters: core kind, request count,
  seed, UMON noise, warmup fraction.

Policy and scheme are deliberately **excluded** — differing decisions
are exactly what a group exists to compare.  Scheme objects are still
pinned into every shared key that could observe them (each
``(curve, scheme)`` pair has its own segment table), so
heterogeneous-scheme cells in one group split into disjoint key spaces
and stay exact.  A run outside any sweep (a baseline instance, a
scaleout or bandwidth point) is a group of one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Hashable, Iterable, List, Tuple

if TYPE_CHECKING:
    import numpy as np

__all__ = ["GroupShared", "plan_groups"]


class GroupShared:
    """Shared memo context for one replay group.

    One instance lives for the duration of one group's replays and is
    handed to every :class:`~repro.sim.engine.MixEngine` in the group;
    an engine built without one makes its own.
    All tables are **value memos**: keys capture every input the cached
    value depends on, so a hit returns exactly what the missing cell
    would have computed.  Keys that identify unhashable inputs (miss
    curves, schemes, stream arrays) use ``id()`` — valid only while the
    keyed object is alive, which is why :meth:`retain` pins a strong
    reference to every such object for the group's lifetime: without
    it, a garbage-collected curve could hand its ``id`` to a fresh
    object and silently alias someone else's segments.
    """

    def __init__(self) -> None:
        #: (id(curve), id(scheme)) -> that pair's segment table.
        self.segments: Dict[Tuple[int, int], dict] = {}
        #: app index -> initial access rate (group cells share apps).
        self.rates: Dict[int, float] = {}
        #: (id(works), apki) -> (req_accesses, mean, tail) per stream.
        self.stream_stats: Dict[Tuple, Tuple] = {}
        #: app index -> static first-interval AppView fields.
        self.view_static: Dict[int, Tuple] = {}
        #: id(array) -> the array as a Python float list (exact).
        self.float_lists: Dict[int, List[float]] = {}
        #: ids of the group's arrival arrays -> merged event schedule.
        self.arrival_schedules: Dict[Tuple, Tuple] = {}
        self._retained: List[Any] = []

    def retain(self, *objects: Any) -> None:
        """Pin id-keyed objects alive for the group's lifetime."""
        self._retained.extend(objects)

    def segments_for(self, curve: Any, scheme: Any) -> dict:
        """The curve-segment table of every fill over ``curve`` and ``scheme``.

        A segment depends on the curve, the scheme (through the
        effective target) and the fill's ``(resident, target)``, which
        key the table, so one table per pair is exact.
        """
        key = (id(curve), id(scheme))
        table = self.segments.get(key)
        if table is None:
            table = self.segments[key] = {}
            self.retain(curve, scheme)
        return table

    def floats_for(self, array: np.ndarray) -> List[float]:
        """``array`` as a cached Python float list.

        ``tolist`` on a float64 array yields exactly the ``float(x)``
        coercions the scalar engine performs per element, so indexing
        the list reproduces the oracle's values bit-for-bit without a
        numpy scalar extraction per event.
        """
        key = id(array)
        hit = self.float_lists.get(key)
        if hit is None:
            hit = array.tolist()
            self.float_lists[key] = hit
            self._retained.append(array)
        return hit

    def arrival_schedule_for(self, arrival_arrays: List[np.ndarray]) -> Tuple:
        """The group's merged arrival schedule, built once.

        Returns ``(times, seqs, app_positions, req_indices)`` as Python
        lists, sorted by ``(time, seq)`` where ``seq`` is the position
        in the app-major concatenation of the arrival arrays.  The
        scalar oracle pushes its arrival events app-major before any
        other event, so its heap assigns exactly these seqs and pops
        arrivals in exactly this order — a stable argsort of the
        concatenated times *is* the oracle's arrival ordering.
        """
        key = tuple(id(array) for array in arrival_arrays)
        hit = self.arrival_schedules.get(key)
        if hit is None:
            import numpy as np

            times = np.concatenate(arrival_arrays)
            order = np.argsort(times, kind="stable")
            lengths = [len(array) for array in arrival_arrays]
            apps = np.repeat(np.arange(len(arrival_arrays)), lengths)
            reqs = np.concatenate([np.arange(length) for length in lengths])
            hit = (
                times[order].tolist(),
                order.tolist(),
                apps[order].tolist(),
                reqs[order].tolist(),
            )
            self.arrival_schedules[key] = hit
            self._retained.extend(arrival_arrays)
        return hit


def plan_groups(keys: Iterable[Hashable]) -> List[List[int]]:
    """Partition positions into replay groups by key equality.

    ``keys[i]`` must capture everything two cells need in common to
    share one :class:`GroupShared` (see the module docstring's
    group-planning rules).  Returns groups in first-appearance order,
    each a list of original positions in input order — so callers can
    execute groups and scatter results back without reordering anything
    observable.
    """
    buckets: Dict[Hashable, List[int]] = {}
    order: List[List[int]] = []
    for pos, key in enumerate(keys):
        bucket = buckets.get(key)
        if bucket is None:
            bucket = buckets[key] = []
            order.append(bucket)
        bucket.append(pos)
    return order
