"""Analytic M/G/1 queueing results for cross-validating the simulator.

The paper's latency-critical servers are M/G/1-FIFO queues (Poisson
arrivals, general service times, one worker).  Classical results then
predict the load-latency behaviour of Figure 1a in closed form:

* **Pollaczek-Khinchine**: mean waiting time
  ``W = lambda * E[S^2] / (2 * (1 - rho))``, so mean latency is
  ``W + E[S]`` — the superlinear blow-up of Observation 3 is the
  ``1/(1-rho)`` pole.
* The **tail/mean gap** grows with the service-time coefficient of
  variation — Observation 1's app dependence.

These formulas provide an independent check of the FIFO simulator and
of the engine (which reproduces the simulator exactly under a fixed
partition): simulation and theory must agree within sampling error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ServiceMoments", "mg1_mean_latency", "mg1_mean_wait", "moments_from_samples"]


@dataclass(frozen=True)
class ServiceMoments:
    """First two moments of a service-time distribution."""

    mean: float
    second_moment: float

    def __post_init__(self) -> None:
        if self.mean <= 0:
            raise ValueError("mean service time must be positive")
        if self.second_moment < self.mean**2:
            raise ValueError("E[S^2] cannot be below E[S]^2")

    @property
    def variance(self) -> float:
        return self.second_moment - self.mean**2

    @property
    def scv(self) -> float:
        """Squared coefficient of variation (0 for deterministic)."""
        return self.variance / self.mean**2


def moments_from_samples(samples) -> ServiceMoments:
    """Empirical service moments from observed service times."""
    arr = np.asarray(samples, dtype=float)
    if arr.size < 2:
        raise ValueError("need at least two samples")
    if np.any(arr <= 0):
        raise ValueError("service times must be positive")
    return ServiceMoments(float(arr.mean()), float(np.mean(arr**2)))


def mg1_mean_wait(arrival_rate: float, moments: ServiceMoments) -> float:
    """Pollaczek-Khinchine mean waiting time (time in queue).

    ``W = lambda * E[S^2] / (2 * (1 - rho))`` with
    ``rho = lambda * E[S] < 1``.
    """
    if arrival_rate <= 0:
        raise ValueError("arrival rate must be positive")
    rho = arrival_rate * moments.mean
    if rho >= 1.0:
        raise ValueError(f"unstable queue: rho = {rho:.3f} >= 1")
    return arrival_rate * moments.second_moment / (2.0 * (1.0 - rho))


def mg1_mean_latency(arrival_rate: float, moments: ServiceMoments) -> float:
    """Mean end-to-end latency: waiting plus service."""
    return mg1_mean_wait(arrival_rate, moments) + moments.mean
