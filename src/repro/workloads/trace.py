"""Synthetic address-trace generation for trace-driven experiments.

The mix engine is analytic, but two parts of the reproduction need real
address streams: the Figure 2 reuse-breakdown characterization, and
``tests/integration/test_substrate_consistency.py``, which checks the
streams' composition and volume against the LC workload models.

Each latency-critical app's trace is structured the way Section 3.4
describes the workloads: a **hot shared working set** reused across
requests (zipfian popularity — e.g. the search index, the key-value
table, database pages), plus a **per-request private footprint**
(request parsing, temporaries) that is never reused by later requests.
The balance between the two, and the hot-set size relative to the
cache, determine how many hits land on lines last touched by earlier
requests — the paper's *inertia* signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .latency_critical import LCWorkload

__all__ = ["ZipfSampler", "TraceConfig", "lc_trace_config", "generate_request_trace"]


class ZipfSampler:
    """Bounded zipfian sampler over ranks ``0..n-1`` (p(r) ~ 1/(r+1)^a)."""

    def __init__(self, num_items: int, alpha: float = 0.9):
        if num_items < 1:
            raise ValueError("need at least one item")
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.num_items = num_items
        self.alpha = alpha
        weights = 1.0 / np.power(np.arange(1, num_items + 1, dtype=float), alpha)
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` ranks (popular ranks are low numbers)."""
        uniforms = rng.random(count)
        return np.searchsorted(self._cdf, uniforms).astype(np.int64)


@dataclass(frozen=True)
class TraceConfig:
    """Shape of a synthetic LC request trace.

    ``hot_lines`` is the cross-request shared working set;
    ``private_lines_per_request`` are fresh lines unique to a request;
    ``shared_fraction`` of accesses target the hot set.
    """

    hot_lines: int
    private_lines_per_request: int
    accesses_per_request: int
    shared_fraction: float
    # Mildly skewed popularity: steep zipfians concentrate accesses on
    # a few lines that repeat *within* a request, understating the
    # cross-request reuse the paper measures (Figure 2: >50% of hits
    # come from lines last touched by earlier requests).
    zipf_alpha: float = 0.5

    def __post_init__(self) -> None:
        if self.hot_lines < 1 or self.accesses_per_request < 1:
            raise ValueError("hot set and accesses must be positive")
        if self.private_lines_per_request < 0:
            raise ValueError("private footprint must be non-negative")
        if not 0.0 <= self.shared_fraction <= 1.0:
            raise ValueError("shared_fraction must be in [0, 1]")


def lc_trace_config(
    workload: LCWorkload,
    cache_lines: int,
    scale: float = 1.0,
) -> TraceConfig:
    """Derive a trace shape from an LC workload model.

    The hot set is sized from the workload's miss curve: it spans the
    capacity range over which the curve still improves (twice the
    allocation where the curve flattens would always fit, so we use the
    curve's characteristic scale relative to the 2 MB target).  The
    shared fraction comes from the measured cross-request reuse
    fraction (Figure 2).  ``scale`` shrinks everything proportionally
    so the trace-driven experiments run at laptop scale.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    # Hot set: the allocation beyond which extra capacity stops paying.
    curve = workload.miss_curve
    floor = float(curve.miss_ratios[-1])
    span = float(curve.miss_ratios[0]) - floor
    sizes = curve.sizes
    if span <= 1e-9:
        hot = max(1, int(cache_lines * 0.5 * scale))
    else:
        # First size where 90% of the achievable gain is realized.
        gains = (curve.miss_ratios[0] - curve.miss_ratios) / span
        idx = int(np.searchsorted(gains, 0.9))
        idx = min(idx, len(sizes) - 1)
        hot = max(16, int(float(sizes[idx]) * scale))
    accesses = max(32, int(workload.profile.accesses_for(workload.work.mean()) * scale))
    # The curve's floor is the share of accesses that miss at any
    # capacity — compulsory traffic.  Private (never-reused) lines are
    # sized so first touches account for exactly that share; remaining
    # private accesses re-touch those lines within the request.
    private_count = accesses * (1.0 - workload.reuse_fraction)
    private = int(round(accesses * floor))
    private = max(1, min(private, int(private_count)) if private_count >= 1 else 1)
    # Keep per-line touch counts sane for very low floors.
    private = max(private, int(private_count / 16))
    return TraceConfig(
        hot_lines=hot,
        private_lines_per_request=private,
        accesses_per_request=accesses,
        shared_fraction=workload.reuse_fraction,
    )


def generate_request_trace(
    config: TraceConfig,
    num_requests: int,
    rng: np.random.Generator,
) -> List[np.ndarray]:
    """Generate per-request arrays of line addresses.

    Shared accesses draw zipfian ranks from the hot set (address space
    ``[0, hot_lines)``); private accesses walk fresh addresses above
    the hot set, each touched once or twice, never reused by later
    requests.
    """
    if num_requests < 1:
        raise ValueError("need at least one request")
    sampler = ZipfSampler(config.hot_lines, config.zipf_alpha)
    next_private = np.int64(config.hot_lines)
    requests: List[np.ndarray] = []
    for _ in range(num_requests):
        total = config.accesses_per_request
        shared_count = int(round(total * config.shared_fraction))
        private_count = total - shared_count
        shared = sampler.sample(shared_count, rng)
        if private_count > 0 and config.private_lines_per_request > 0:
            lines = np.arange(
                next_private,
                next_private + config.private_lines_per_request,
                dtype=np.int64,
            )
            next_private += config.private_lines_per_request
            picks = rng.integers(0, lines.size, size=private_count)
            private = lines[picks]
        else:
            private = np.empty(0, dtype=np.int64)
        merged = np.concatenate([shared, private])
        rng.shuffle(merged)
        requests.append(merged)
    return requests
