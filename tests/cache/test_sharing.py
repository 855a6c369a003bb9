"""Tests for repro.cache.sharing (the unmanaged-LRU fluid model)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cache.reference import NaiveSharedOccupancyModel
from repro.cache.sharing import SharedOccupancyModel


class TestStep:
    def test_validation_names_the_field_and_value(self):
        with pytest.raises(ValueError, match="capacity must be positive, got 0"):
            SharedOccupancyModel(0)
        model = SharedOccupancyModel(100)
        with pytest.raises(ValueError, match="1 occupancies but 2 insertion rates"):
            model.step([1.0], [1.0, 2.0], 1.0)
        with pytest.raises(ValueError, match=r"occupancy of app 1 is negative: -1\.0"):
            model.step([1.0, -1.0], [1.0, 1.0], 1.0)
        with pytest.raises(
            ValueError, match=r"insertion rate of app 2 is negative: -0\.5"
        ):
            model.step([1.0, 1.0, 1.0], [1.0, 0.0, -0.5], 1.0)
        with pytest.raises(ValueError, match=r"dt must be non-negative, got -1\.0"):
            model.step([1.0], [1.0], -1.0)
        with pytest.raises(
            ValueError,
            match=r"occupancies sum to 200\.0 lines, over the capacity of 100\.0",
        ):
            model.step([200.0], [1.0], 1.0)

    def test_zero_dt_identity(self):
        model = SharedOccupancyModel(100)
        occ = [30.0, 20.0]
        out = model.step(occ, [1.0, 1.0], 0.0)
        assert out == occ
        assert out is not occ

    def test_no_insertions_identity(self):
        model = SharedOccupancyModel(100)
        occ = [30.0, 20.0]
        out = model.step(occ, [0.0, 0.0], 10.0)
        assert out == occ

    def test_fill_phase_before_eviction(self):
        model = SharedOccupancyModel(100)
        out = model.step([0.0, 0.0], [1.0, 1.0], 10.0)
        # 20 insertions into an empty cache: no evictions yet.
        assert out == pytest.approx([10.0, 10.0])
        assert sum(out) < 100

    def test_idle_app_decays_exponentially(self):
        """The inertia effect: an idle app's footprint decays as the
        co-runners insert (paper Figures 2/4)."""
        model = SharedOccupancyModel(100)
        out = model.step([50.0, 50.0], [0.0, 1.0], 100.0)  # app 0 idle
        expected = 50.0 * np.exp(-1.0 * 100.0 / 100.0)
        assert out[0] == pytest.approx(expected, rel=0.01)

    def test_converges_to_proportional_share(self):
        model = SharedOccupancyModel(100)
        out = model.step([90.0, 10.0], [1.0, 3.0], 1e6)
        assert out == pytest.approx([25.0, 75.0], rel=0.01)

    def test_accepts_numpy_vectors(self):
        model = SharedOccupancyModel(100)
        out = model.step(np.array([90.0, 10.0]), np.array([1.0, 3.0]), 10.0)
        assert out == model.step([90.0, 10.0], [1.0, 3.0], 10.0)

    def test_equilibrium(self):
        model = SharedOccupancyModel(200)
        eq = model.equilibrium(np.array([1.0, 1.0, 2.0]))
        assert eq == pytest.approx([50.0, 50.0, 100.0])
        with pytest.raises(ValueError):
            model.equilibrium(np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            model.equilibrium(np.array([-1.0, 1.0]))


@settings(max_examples=60, deadline=None)
@given(
    occ=st.lists(st.floats(min_value=0, max_value=8), min_size=2, max_size=24),
    rates=st.lists(st.floats(min_value=0, max_value=0.1), min_size=2, max_size=24),
    dt=st.floats(min_value=0, max_value=1e5),
)
def test_property_capacity_conserved_and_nonnegative(occ, rates, dt):
    n = min(len(occ), len(rates))
    occ, rates = occ[:n], rates[:n]
    model = SharedOccupancyModel(200.0)
    out = model.step(occ, rates, dt)
    assert min(out) >= -1e-9
    assert sum(out) <= 200.0 + 1e-6
    # A full cache stays full; a partial one never shrinks in total.
    if sum(rates) > 0:
        assert sum(out) >= sum(occ) - 1e-6


# ----------------------------------------------------------------------
# Bit-equality with the NumPy reference, one exit of ``step`` at a time
# ----------------------------------------------------------------------
def reference_step(capacity, occ, rates, dt):
    """The NumPy reference's result and which exit produced it.

    A spy on ``np.clip`` sees the reference reach its full-cache
    phase; the renormalize exit then rescales the clipped vector, so
    the result differs from what the spy saw.
    """
    seen = []
    clip = np.clip

    def spy(*args, **kwargs):
        out = clip(*args, **kwargs)
        seen.append(out.copy())
        return out

    with mock.patch.object(np, "clip", spy):
        out = NaiveSharedOccupancyModel(capacity).step(
            np.asarray(occ, dtype=float), np.asarray(rates, dtype=float), dt
        )
    if not seen:
        exit_ = "fill"
    elif np.array_equal(out, seen[0]):
        exit_ = "full"
    else:
        exit_ = "renormalize"
    return out.tolist(), exit_


def assert_same_bits(got, want):
    assert [float(x).hex() for x in got] == [x.hex() for x in want]


@st.composite
def step_cases(draw, min_capacity, max_capacity, full):
    """(capacity, occupancies, rates, dt) for 1-24 apps.

    ``full`` cases start with the cache all but full and run long
    enough to evict; the others start at most half full and stop
    before the free space runs out.
    """
    n = draw(st.integers(min_value=1, max_value=24))
    capacity = draw(st.floats(min_value=min_capacity, max_value=max_capacity))
    unit = st.floats(min_value=0.0, max_value=1.0)
    weights = draw(st.lists(unit, min_size=n, max_size=n))
    rates = draw(st.lists(unit, min_size=n, max_size=n))
    assume(sum(weights) > 1e-6 and sum(rates) > 1e-6)
    total_rate = float(np.sum(rates))
    if full:
        scale = capacity * (1.0 - 1e-9) / float(np.sum(weights))
        occ = [w * scale for w in weights]
        dt = draw(st.floats(min_value=1e-3, max_value=10.0)) * capacity / total_rate
    else:
        occ = [w * capacity / (2 * n) for w in weights]
        free = capacity - float(np.sum(occ))
        dt = draw(st.floats(min_value=1e-3, max_value=1.0)) * free / total_rate
    return capacity, occ, rates, dt


@settings(max_examples=100, deadline=None)
@given(case=step_cases(1.0, 1e6, full=False))
def test_fill_phase_matches_the_reference_bits(case):
    capacity, occ, rates, dt = case
    want, exit_ = reference_step(capacity, occ, rates, dt)
    assert exit_ == "fill"
    assert_same_bits(SharedOccupancyModel(capacity).step(occ, rates, dt), want)


@settings(max_examples=100, deadline=None)
@given(case=step_cases(1.0, 1e6, full=True))
def test_full_cache_matches_the_reference_bits(case):
    capacity, occ, rates, dt = case
    want, exit_ = reference_step(capacity, occ, rates, dt)
    assert exit_ == "full"
    assert_same_bits(SharedOccupancyModel(capacity).step(occ, rates, dt), want)


@settings(max_examples=100, deadline=None)
@given(case=step_cases(1e13, 1e16, full=True))
def test_renormalize_matches_the_reference_bits(case):
    # At 1e13+ lines one ulp of the total exceeds the 1e-6 drift guard,
    # so about half of these cases take the renormalize exit.
    capacity, occ, rates, dt = case
    want, exit_ = reference_step(capacity, occ, rates, dt)
    assume(exit_ == "renormalize")
    assert_same_bits(SharedOccupancyModel(capacity).step(occ, rates, dt), want)
