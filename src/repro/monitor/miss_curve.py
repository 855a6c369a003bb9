"""Miss curves: miss ratio as a function of allocated cache capacity.

A miss curve maps a cache allocation, measured in cache lines, to the
fraction of accesses that miss at that allocation.  Miss curves are the
common currency of every partitioning policy in this package: UMONs
produce them, UCP's Lookahead consumes them, and Ubik's transient
analysis (Section 5.1 of the paper) is an integral over one.

Curves are stored as sampled points and evaluated with linear
interpolation, mirroring how the paper linearly interpolates 32-point
UMON curves to 256 points (Section 6).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, List, Sequence, Tuple

import numpy as np

__all__ = ["MissCurve", "combine_curves", "interp_float"]


def _as_float_array(values: Iterable[float]) -> np.ndarray:
    """A fresh 1-D float64 copy of ``values``.

    A 1-D array is copied as it stands; ``list`` first would box every
    element only to unbox it again, and most curves are built from
    arrays.
    """
    if isinstance(values, np.ndarray) and values.ndim == 1:
        return np.array(values, dtype=float)
    array = np.asarray(list(values), dtype=float)
    if array.ndim != 1:
        raise ValueError("expected a 1-D sequence")
    return array


class MissCurve:
    """Piecewise-linear miss ratio versus allocated lines.

    Parameters
    ----------
    sizes:
        Allocation sample points in cache lines, strictly increasing,
        starting at 0.
    miss_ratios:
        Miss ratio (misses / accesses, in [0, 1]) at each sample point.
        Enforced to be non-increasing: a larger allocation can never
        miss more, which holds for the stack-property replacement
        (LRU) that UMONs model.
    """

    __slots__ = ("_sizes", "_ratios", "_sizes_view", "_ratios_view", "_tables")

    def __init__(self, sizes: Iterable[float], miss_ratios: Iterable[float]):
        sizes_arr = _as_float_array(sizes)
        ratios_arr = _as_float_array(miss_ratios)
        if sizes_arr.size != ratios_arr.size:
            raise ValueError("sizes and miss_ratios must have equal length")
        if sizes_arr.size < 2:
            raise ValueError("a miss curve needs at least two points")
        if sizes_arr[0] != 0:
            raise ValueError("miss curves must start at size 0")
        if np.any(np.diff(sizes_arr) <= 0):
            raise ValueError("sizes must be strictly increasing")
        if np.any(ratios_arr < 0) or np.any(ratios_arr > 1):
            raise ValueError("miss ratios must lie in [0, 1]")
        # Enforce monotonicity (non-increasing) without rejecting noisy
        # UMON samples: take the running minimum.
        self._adopt(sizes_arr, np.minimum.accumulate(ratios_arr))

    def _adopt(self, sizes_arr: np.ndarray, ratios_arr: np.ndarray) -> None:
        """Take validated arrays as this curve's own, unchecked.  The
        read-only views are built once (``sizes``/``miss_ratios`` sit on
        the fill-transient hot path); the float tables on first use."""
        self._sizes = sizes_arr
        self._ratios = ratios_arr
        sizes_view = sizes_arr.view()
        sizes_view.flags.writeable = False
        ratios_view = ratios_arr.view()
        ratios_view.flags.writeable = False
        self._sizes_view = sizes_view
        self._ratios_view = ratios_view
        self._tables = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def constant(cls, miss_ratio: float, max_size: float) -> "MissCurve":
        """A size-insensitive curve (streaming or fully-resident app)."""
        return cls([0.0, float(max_size)], [miss_ratio, miss_ratio])

    @classmethod
    def from_hit_counters(
        cls,
        way_hits: Sequence[float],
        misses: float,
        lines_per_way: float,
    ) -> "MissCurve":
        """Build a curve from UMON-style per-way hit counters.

        ``way_hits[i]`` counts hits whose LRU stack depth was ``i`` ways;
        an allocation of ``k`` ways captures ``sum(way_hits[:k])`` hits.
        This is exactly the UCP UMON construction (Qureshi & Patt).
        """
        hits = _as_float_array(way_hits)
        if np.any(hits < 0) or misses < 0:
            raise ValueError("counters must be non-negative")
        total = float(hits.sum() + misses)
        if total <= 0:
            raise ValueError("no accesses recorded")
        cumulative_hits = np.concatenate([[0.0], np.cumsum(hits)])
        sizes = np.arange(hits.size + 1) * float(lines_per_way)
        ratios = (total - cumulative_hits) / total
        return cls(sizes, ratios)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    @property
    def sizes(self) -> np.ndarray:
        """Sample allocations, in lines (read-only view)."""
        return self._sizes_view

    @property
    def miss_ratios(self) -> np.ndarray:
        """Miss ratio at each sample allocation (read-only view)."""
        return self._ratios_view

    @property
    def max_size(self) -> float:
        """Largest sampled allocation; the curve is flat beyond it."""
        return float(self._sizes[-1])

    @property
    def float_tables(self) -> Tuple[List[float], List[float]]:
        """``(sizes, miss_ratios)`` as Python float lists, built once.

        ``tolist`` on a float64 array gives exactly the ``float(x)`` of
        each element, so these are the knots :func:`interp_float` and
        ``bisect`` read on the scalar hot paths.  Shared by every
        reader of this curve: treat them as read-only.
        """
        tables = self._tables
        if tables is None:
            tables = self._tables = (self._sizes.tolist(), self._ratios.tolist())
        return tables

    def __call__(self, size):
        """Miss ratio at ``size`` lines (clamped to the sampled range)."""
        return np.interp(size, self._sizes, self._ratios)

    def at(self, size: float) -> float:
        """Miss ratio at one ``size``, bit-equal to ``float(self(size))``.

        :func:`interp_float` over :attr:`float_tables`: the scalar read
        for hot paths, where ``np.interp``'s per-call overhead dwarfs
        the one interpolation it performs.
        """
        tables = self._tables
        if tables is None:
            tables = self.float_tables
        return interp_float(size, tables[0], tables[1])

    def lookup_many(self, sizes) -> np.ndarray:
        """Miss ratios at a whole allocation vector, in one call.

        ``np.interp`` evaluates elementwise, so
        ``curve.lookup_many(a)[i]`` is bit-identical to ``curve(a[i])``
        — batching changes the cost, never the numbers.  This is the
        batched lookup used wherever many allocations are evaluated at
        once (:meth:`resample`, :func:`combine_curves`).  Scalar hot
        paths that must not pay ``np.interp``'s per-call overhead use
        :func:`interp_float` over :attr:`float_tables` instead (directly
        or through :meth:`at`): the engine's fill states
        (:class:`repro.sim.fill.FillState`), the unmanaged
        shared-LRU epoch loop (:meth:`repro.sim.engine.MixEngine.run`
        under LRU), the engine's other scalar reads (de-boost
        projections, initial rates, baseline IPCs), and Ubik's interval
        decision (the transient bounds
        of :mod:`repro.core.transient`, the batch hit rates priced by
        :class:`repro.core.ubik.UbikPolicy`, and
        :meth:`repro.core.slack.SlackController.active_size`).
        """
        return np.interp(np.asarray(sizes, dtype=float), self._sizes, self._ratios)

    def misses(self, size: float, accesses: float) -> float:
        """Expected misses over ``accesses`` at a fixed allocation."""
        return float(self(size)) * accesses

    def hits(self, size: float, accesses: float) -> float:
        """Expected hits over ``accesses`` at a fixed allocation."""
        return (1.0 - float(self(size))) * accesses

    def utility(self, from_size: float, to_size: float) -> float:
        """Hit-ratio gain from growing ``from_size`` to ``to_size``.

        This is UCP's utility ``U(a, b) = miss(a) - miss(b)`` expressed
        per access; non-negative whenever ``to_size >= from_size``.
        """
        return float(self(from_size)) - float(self(to_size))

    def marginal_utility(self, from_size: float, to_size: float) -> float:
        """Utility per extra line over ``[from_size, to_size]``."""
        span = to_size - from_size
        if span <= 0:
            raise ValueError("to_size must exceed from_size")
        return self.utility(from_size, to_size) / span

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def resample(self, num_points: int, max_size: float | None = None) -> "MissCurve":
        """Linearly interpolate onto ``num_points`` evenly spaced sizes.

        Mirrors the paper's interpolation of 32-point UMON curves to
        256 points for finer-grained allocation decisions.
        """
        if num_points < 2:
            raise ValueError("need at least two points")
        top = self.max_size if max_size is None else float(max_size)
        sizes = np.linspace(0.0, top, num_points)
        return MissCurve(sizes, self.lookup_many(sizes))

    def scaled(self, ratio_scale: float) -> "MissCurve":
        """Scale all miss ratios by ``ratio_scale`` (clamped to [0,1])."""
        return MissCurve(self._sizes, np.clip(self._ratios * ratio_scale, 0.0, 1.0))

    def with_noise(self, rng: np.random.Generator, relative_std: float) -> "MissCurve":
        """Model UMON sampling error: multiplicative Gaussian noise.

        Monotonicity is re-imposed with the constructor's running
        minimum, as real UMON curves are post-processed before use.
        The constructor's checks are skipped, since they cannot fail:
        the sizes are this validated curve's (shared, never written)
        and the clip keeps every ratio in [0, 1].
        """
        noise = rng.normal(1.0, relative_std, size=self._ratios.size)
        noisy = np.clip(self._ratios * noise, 0.0, 1.0)
        curve = MissCurve.__new__(MissCurve)
        curve._adopt(self._sizes, np.minimum.accumulate(noisy))
        return curve

    # ------------------------------------------------------------------
    # Dunder support
    # ------------------------------------------------------------------
    def __getstate__(self):
        """Pickle only the backing arrays (views rebuilt on load).

        Letting the default slot pickling ship the cached views would
        resurrect them as *writable copies* detached from the backing
        arrays, silently dropping the read-only contract for curves
        shipped to process-pool workers.
        """
        return (self._sizes, self._ratios)

    def __setstate__(self, state) -> None:
        """Restore the arrays and rebuild the read-only views."""
        self._adopt(*state)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MissCurve):
            return NotImplemented
        return bool(
            np.array_equal(self._sizes, other._sizes)
            and np.array_equal(self._ratios, other._ratios)
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hashing only
        return id(self)

    def __repr__(self) -> str:
        return (
            f"MissCurve({self._sizes.size} pts, "
            f"m(0)={self._ratios[0]:.3f}, "
            f"m({self._sizes[-1]:.0f})={self._ratios[-1]:.3f})"
        )


def interp_float(x: float, sizes: Sequence[float], ratios: Sequence[float]) -> float:
    """``np.interp(x, sizes, ratios)`` for one float, without NumPy.

    ``sizes``/``ratios`` are a curve's knots as Python floats
    (:attr:`MissCurve.float_tables`).  Its scalar users are the
    engine's fill states, the unmanaged shared-LRU epoch loop, and,
    through :meth:`MissCurve.at`, the engine's other scalar reads and
    Ubik's interval decision.  For an
    ascending grid ``np.interp`` clamps to the end values outside it,
    returns the knot value on a knot, and otherwise finds the segment
    ``sizes[j] <= x < sizes[j+1]`` and evaluates
    ``slope * (x - sizes[j]) + ratios[j]`` with
    ``slope = (ratios[j+1] - ratios[j]) / (sizes[j+1] - sizes[j])``.
    This performs those exact operations in the same order (on a knot
    the product is zero, so the lerp lands on the knot value), so
    ``interp_float(x, ...) == float(curve(x))`` bit for bit, NaN
    included.
    """
    if x <= sizes[0]:
        return ratios[0]
    if x >= sizes[-1]:
        return ratios[-1]
    if x != x:
        return x
    j = bisect_right(sizes, x) - 1
    s_lo = sizes[j]
    m_lo = ratios[j]
    return ((ratios[j + 1] - m_lo) / (sizes[j + 1] - s_lo)) * (x - s_lo) + m_lo


def combine_curves(curves: Sequence[MissCurve], weights: Sequence[float]) -> MissCurve:
    """Access-weighted aggregate miss curve of co-resident partitions.

    Used to reason about a *group* of applications occupying one shared
    pool (e.g., the batch side of the cache): the aggregate miss ratio
    at total size ``s`` assumes the pool is split in proportion to the
    weights, which is the equal-pressure approximation of shared LRU.
    """
    if len(curves) != len(weights):
        raise ValueError("one weight per curve required")
    if not curves:
        raise ValueError("need at least one curve")
    weight_arr = _as_float_array(weights)
    if np.any(weight_arr < 0) or weight_arr.sum() <= 0:
        raise ValueError("weights must be non-negative and not all zero")
    shares = weight_arr / weight_arr.sum()
    top = max(curve.max_size for curve in curves)
    sizes = np.linspace(0.0, top, 257)
    ratios = np.zeros_like(sizes)
    for curve, share in zip(curves, shares):
        ratios += share * curve.lookup_many(sizes * share)
    return MissCurve(sizes, np.clip(ratios, 0.0, 1.0))
