"""Reference unmanaged (shared-LRU) epoch loop — the oracle.

Mirrors the ``repro.cache.reference`` pattern: when a hot loop is
rewritten, the original survives here as the behavioural oracle.
:func:`run_unmanaged` is ``MixEngine._run_unmanaged`` as it stood
before the float rewrite — per-epoch ``np.interp`` lookups through
:meth:`~repro.monitor.miss_curve.MissCurve.__call__`, NumPy rate
vectors, and the NumPy occupancy stepper kept as
:class:`~repro.cache.reference.NaiveSharedOccupancyModel`.  The
equivalence wall (``tests/sim/test_unmanaged_equivalence.py``) runs it
and the production loop on twin engines and asserts bit-identical
results (:class:`~repro.sim.results.MixResult`).

It is deliberately *not* exported from :mod:`repro.sim`, and nothing
in the simulation stack calls it.  Keep it naive: it must stay the
pre-rewrite code, so it shares no helper with the loop it checks.
"""

from __future__ import annotations

import numpy as np

from ..cache.reference import NaiveSharedOccupancyModel
from .engine import _BatchApp

__all__ = ["run_unmanaged"]

#: Epoch cap for the unmanaged (LRU) occupancy integration, cycles.
_LRU_EPOCH = 320_000  # 100 us at 3.2 GHz

_COMPLETION_TOL = 1e-6


def run_unmanaged(engine):
    """Replay ``engine``'s mix under shared LRU with the NumPy loop.

    ``engine`` is a fresh :class:`~repro.sim.engine.MixEngine` whose
    policy does not partition; it is consumed exactly as
    :meth:`~repro.sim.engine.MixEngine.run` would consume it.
    """
    self = engine
    model = NaiveSharedOccupancyModel(self.llc_lines)
    n = len(self.apps)
    occ = np.full(n, self.llc_lines / n, dtype=float)
    arrival_times = [lc.spec.arrivals.tolist() for lc in self.lc_apps]
    ptrs = [0] * len(self.lc_apps)

    while not all(lc.exhausted for lc in self.lc_apps):
        p_vals = [0.0] * n
        per_access_vals = [0.0] * n
        for app in self.apps:
            p = min(1.0, float(app.curve(occ[app.index])))
            p_vals[app.index] = p
            per_access_vals[app.index] = app.hit_interval + p * app.miss_penalty

        # Candidate event times.
        t_next = self.now + _LRU_EPOCH
        for k, lc in enumerate(self.lc_apps):
            if ptrs[k] < len(arrival_times[k]):
                t_next = min(t_next, arrival_times[k][ptrs[k]])
            if lc.serving is not None:
                if lc.remaining > 0:
                    per_access = per_access_vals[lc.index]
                    t_next = min(t_next, self.now + lc.remaining * per_access)
                else:
                    t_next = min(t_next, lc._fixed_end)
        dt = max(t_next - self.now, 0.0)

        # Advance everyone by dt at frozen occupancies.
        rates = np.zeros(n)
        for app in self.apps:
            p = p_vals[app.index]
            per_access = per_access_vals[app.index]
            if isinstance(app, _BatchApp):
                accesses = dt / per_access
                app.result.instructions += (
                    accesses * app.profile.instructions_per_access
                )
                app.result.cycles += dt
                rates[app.index] = p / per_access
            else:
                lc = app
                if lc.serving is not None and lc.remaining > 0:
                    accesses = min(dt / per_access, lc.remaining)
                    lc.remaining -= accesses
                    _note_progress(lc, accesses, accesses * p)
                    rates[lc.index] = p / per_access
                elif lc.serving is None:
                    lc.stats.idle_time += dt
        if dt > 0:
            occ = model.step(occ, rates, dt)
            if self.bandwidth is not None:
                multiplier = self.bandwidth.penalty_multiplier(float(rates.sum()))
                for app in self.apps:
                    app.miss_penalty = app.base_miss_penalty * multiplier
        self.now = t_next

        # Completions.
        for lc in self.lc_apps:
            if lc.serving is None:
                continue
            if float(lc.req_accesses[lc.serving]) > 0:
                done = lc.remaining <= _COMPLETION_TOL
            else:
                done = self.now >= lc._fixed_end - 1e-6
            if done:
                _complete(self, lc)

        # Arrivals.
        for k, lc in enumerate(self.lc_apps):
            times = arrival_times[k]
            while ptrs[k] < len(times) and times[ptrs[k]] <= self.now + 1e-9:
                req_idx = ptrs[k]
                ptrs[k] += 1
                lc.arrival_ptr = ptrs[k]
                lc.queue.append(req_idx)
            if lc.serving is None and lc.queue:
                if not lc.active:
                    lc.active = True
                    lc.stats.activations += 1
                    lc.result.activations += 1
                _start(self, lc, lc.queue.pop(0))
    return self._collect()


def _note_progress(lc, accesses: float, misses: float) -> None:
    lc.stats.accesses += accesses
    lc.stats.misses += misses
    lc.total_accesses += accesses
    lc.total_misses += misses


def _start(self, lc, req_idx: int) -> None:
    lc.serving = req_idx
    lc.remaining = float(lc.req_accesses[req_idx])
    if lc.remaining <= 0:
        duration = float(lc.spec.works[req_idx]) * lc.base_cpi
        lc._fixed_end = self.now + duration
    else:
        lc._fixed_end = float("inf")


def _complete(self, lc) -> None:
    req_idx = lc.serving
    lc.serving = None
    lc.remaining = 0.0
    arrival = float(lc.spec.arrivals[req_idx])
    latency = self.now - arrival
    lc.requests_done += 1
    warmup = int(len(lc.spec.arrivals) * self.warmup_fraction)
    if req_idx >= warmup:
        lc.result.latencies.append(latency)
    lc.result.requests_served += 1
    if lc.queue:
        _start(self, lc, lc.queue.pop(0))
    else:
        lc.active = False
