"""Single-worker FIFO queueing simulation.

The paper's servers process one request at a time in FIFO order
(Section 3.3).  This module is a standalone FIFO queueing simulator,
kept as a test oracle: no simulation path runs it.  Figure 1a's
load-latency curves and the per-app baseline (target) tail latencies
both come from the mix engine through
:class:`~repro.sim.mix_runner.MixRunner`, which embeds the same FIFO
discipline but computes service times from live cache state.
``tests/analysis/test_queueing_theory.py`` holds this simulator to
the M/G/1 closed forms of :mod:`repro.analysis.queueing_theory`.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

import numpy as np

from .request import CompletedRequest, Request

__all__ = ["run_fifo_server", "simulate_fixed_service", "build_requests"]

ServiceFn = Callable[[Request, float], float]


def build_requests(
    arrivals: Sequence[float], works: Sequence[float]
) -> List[Request]:
    """Pair sorted arrival times with per-request work."""
    if len(arrivals) != len(works):
        raise ValueError("arrivals and works must have equal length")
    arr = np.asarray(arrivals, dtype=float)
    if arr.size and np.any(np.diff(arr) < 0):
        raise ValueError("arrivals must be sorted")
    return [
        Request(index=i, arrival=float(a), work=float(w))
        for i, (a, w) in enumerate(zip(arrivals, works))
    ]


def run_fifo_server(
    requests: Sequence[Request],
    service_fn: ServiceFn,
) -> List[CompletedRequest]:
    """Serve requests FIFO on one worker.

    ``service_fn(request, start_time)`` returns the request's service
    duration in cycles; it may depend on the start time (e.g. through
    cache state in a stateful service model).
    """
    completed: List[CompletedRequest] = []
    server_free_at = 0.0
    for request in requests:
        start = max(request.arrival, server_free_at)
        duration = service_fn(request, start)
        if duration <= 0:
            raise ValueError("service durations must be positive")
        finish = start + duration
        completed.append(
            CompletedRequest(
                index=request.index,
                arrival=request.arrival,
                start=start,
                completion=finish,
            )
        )
        server_free_at = finish
    return completed


def simulate_fixed_service(
    arrivals: Sequence[float],
    service_times: Sequence[float],
) -> List[CompletedRequest]:
    """FIFO simulation where each request's service time is fixed."""
    if len(arrivals) != len(service_times):
        raise ValueError("arrivals and service_times must have equal length")
    requests = build_requests(arrivals, np.ones(len(arrivals)))
    times = list(map(float, service_times))
    return run_fifo_server(requests, lambda req, start: times[req.index])
