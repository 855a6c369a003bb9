"""Tests for repro.monitor.miss_curve."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitor.miss_curve import MissCurve, combine_curves, interp_float
from repro.workloads.batch import make_batch_workload
from repro.workloads.latency_critical import make_lc_workload
from repro.workloads.names import BATCH_CLASSES, LC_NAMES


def simple_curve():
    return MissCurve([0, 100, 200, 400], [0.8, 0.4, 0.2, 0.1])


class TestConstruction:
    def test_basic_properties(self):
        curve = simple_curve()
        assert curve.max_size == 400
        assert curve(0) == pytest.approx(0.8)
        assert curve(400) == pytest.approx(0.1)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            MissCurve([0, 1], [0.5])

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            MissCurve([0], [0.5])

    def test_rejects_nonzero_start(self):
        with pytest.raises(ValueError):
            MissCurve([1, 2], [0.5, 0.4])

    def test_rejects_unsorted_sizes(self):
        with pytest.raises(ValueError):
            MissCurve([0, 5, 3], [0.5, 0.4, 0.3])

    def test_rejects_duplicate_sizes(self):
        with pytest.raises(ValueError):
            MissCurve([0, 5, 5], [0.5, 0.4, 0.3])

    def test_rejects_out_of_range_ratios(self):
        with pytest.raises(ValueError):
            MissCurve([0, 1], [1.5, 0.4])
        with pytest.raises(ValueError):
            MissCurve([0, 1], [0.5, -0.1])

    def test_enforces_monotonicity_from_noisy_input(self):
        curve = MissCurve([0, 10, 20], [0.5, 0.6, 0.3])
        assert curve(10) <= curve(0)
        assert curve(20) <= curve(10)

    def test_constant_constructor(self):
        curve = MissCurve.constant(0.7, 1000)
        assert curve(0) == pytest.approx(0.7)
        assert curve(500) == pytest.approx(0.7)
        assert curve(1000) == pytest.approx(0.7)


class TestEvaluation:
    def test_linear_interpolation_between_points(self):
        curve = simple_curve()
        assert curve(50) == pytest.approx(0.6)
        assert curve(150) == pytest.approx(0.3)

    def test_clamps_beyond_max_size(self):
        curve = simple_curve()
        assert curve(10_000) == pytest.approx(0.1)

    def test_vectorized_evaluation(self):
        curve = simple_curve()
        values = curve(np.array([0, 100, 200]))
        assert values == pytest.approx([0.8, 0.4, 0.2])

    def test_misses_and_hits(self):
        curve = simple_curve()
        assert curve.misses(100, 1000) == pytest.approx(400)
        assert curve.hits(100, 1000) == pytest.approx(600)

    def test_utility_is_miss_reduction(self):
        curve = simple_curve()
        assert curve.utility(100, 200) == pytest.approx(0.2)

    def test_marginal_utility(self):
        curve = simple_curve()
        assert curve.marginal_utility(100, 200) == pytest.approx(0.2 / 100)

    def test_marginal_utility_rejects_bad_range(self):
        with pytest.raises(ValueError):
            simple_curve().marginal_utility(200, 100)


class TestFromHitCounters:
    def test_ucp_construction(self):
        # 3-way UMON: hits at depths 0,1,2 = 50,30,10; misses 10.
        curve = MissCurve.from_hit_counters([50, 30, 10], 10, lines_per_way=64)
        assert curve(0) == pytest.approx(1.0)
        assert curve(64) == pytest.approx(0.5)
        assert curve(128) == pytest.approx(0.2)
        assert curve(192) == pytest.approx(0.1)

    def test_rejects_negative_counters(self):
        with pytest.raises(ValueError):
            MissCurve.from_hit_counters([5, -1], 2, 64)

    def test_rejects_empty_stream(self):
        with pytest.raises(ValueError):
            MissCurve.from_hit_counters([0, 0], 0, 64)


class TestTransformations:
    def test_resample_preserves_endpoints(self):
        curve = simple_curve().resample(33)
        assert curve.sizes.size == 33
        assert curve(0) == pytest.approx(0.8)
        assert curve(400) == pytest.approx(0.1)

    def test_resample_matches_interpolation(self):
        curve = simple_curve()
        resampled = curve.resample(257)
        for s in (37.0, 123.0, 333.0):
            assert resampled(s) == pytest.approx(curve(s), abs=1e-2)

    def test_resample_rejects_too_few_points(self):
        with pytest.raises(ValueError):
            simple_curve().resample(1)

    def test_scaled(self):
        curve = simple_curve().scaled(0.5)
        assert curve(0) == pytest.approx(0.4)

    def test_scaled_clamps_to_one(self):
        curve = MissCurve([0, 10], [0.9, 0.8]).scaled(2.0)
        assert curve(0) == pytest.approx(1.0)

    def test_with_noise_stays_valid(self):
        rng = np.random.default_rng(0)
        noisy = simple_curve().with_noise(rng, 0.05)
        assert np.all(noisy.miss_ratios >= 0)
        assert np.all(noisy.miss_ratios <= 1)
        assert np.all(np.diff(noisy.miss_ratios) <= 1e-12)

    def test_equality(self):
        assert simple_curve() == simple_curve()
        assert simple_curve() != MissCurve([0, 1], [0.5, 0.4])

    def test_repr_mentions_points(self):
        assert "4 pts" in repr(simple_curve())


class TestCombineCurves:
    def test_single_curve_identity_weighting(self):
        curve = simple_curve()
        combined = combine_curves([curve], [1.0])
        assert combined(200) == pytest.approx(curve(200), abs=0.02)

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            combine_curves([simple_curve()], [1.0, 2.0])
        with pytest.raises(ValueError):
            combine_curves([], [])
        with pytest.raises(ValueError):
            combine_curves([simple_curve()], [0.0])

    def test_heavier_app_dominates(self):
        low = MissCurve.constant(0.1, 400)
        high = MissCurve.constant(0.9, 400)
        combined = combine_curves([low, high], [1.0, 9.0])
        assert combined(200) > 0.7


@settings(max_examples=50, deadline=None)
@given(
    ratios=st.lists(
        st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=20
    ),
    query=st.floats(min_value=0.0, max_value=1.0),
)
def test_property_interpolation_bounded_and_monotone(ratios, query):
    sizes = np.arange(len(ratios), dtype=float) * 10
    curve = MissCurve(sizes, ratios)
    value = float(curve(query * curve.max_size))
    assert 0.0 <= value <= 1.0
    # Monotone: larger allocations never miss more.
    bigger = float(curve(min(query * curve.max_size + 5, curve.max_size)))
    assert bigger <= value + 1e-12


@settings(max_examples=200, deadline=None)
@given(
    gaps=st.lists(
        st.floats(min_value=1e-3, max_value=1e4), min_size=1, max_size=40
    ),
    ratios=st.lists(
        st.floats(min_value=0.0, max_value=1.0), min_size=41, max_size=41
    ),
    query=st.floats(min_value=-0.1, max_value=1.1),
    on_knot=st.booleans(),
)
def test_property_interp_float_is_np_interp(gaps, ratios, query, on_knot):
    """Bit for bit equal to ``float(curve(x))`` inside the grid, on its
    knots, and clamped outside it — directly and through ``at``."""
    sizes = np.concatenate(([0.0], np.cumsum(gaps)))
    curve = MissCurve(sizes, ratios[: len(sizes)])
    sizes_l, ratios_l = curve.sizes.tolist(), curve.miss_ratios.tolist()
    if on_knot:
        x = sizes_l[int(query % 1.0 * len(sizes_l)) % len(sizes_l)]
    else:
        x = query * curve.max_size
    want = float(curve(x)).hex()
    assert interp_float(x, sizes_l, ratios_l).hex() == want
    assert curve.at(x).hex() == want
    assert curve.at(np.float64(x)).hex() == want
    assert curve.float_tables == (sizes_l, ratios_l)


def test_interp_float_passes_nan_through():
    curve = simple_curve()
    sizes_l, ratios_l = curve.sizes.tolist(), curve.miss_ratios.tolist()
    assert np.isnan(interp_float(float("nan"), sizes_l, ratios_l))
    assert np.isnan(curve.at(float("nan")))
    assert np.isnan(curve(float("nan")))


def assert_at_reads_own_knots(curve):
    """``at`` agrees with ``np.interp`` on this curve's own knots."""
    assert curve.float_tables == (
        curve.sizes.tolist(),
        curve.miss_ratios.tolist(),
    )
    top = curve.max_size
    for x in (-1.0, 0.0, 0.3 * top, 0.5 * top, 0.77 * top, top, 2.0 * top):
        assert curve.at(x).hex() == float(curve(x)).hex()


@pytest.mark.parametrize(
    "derive",
    [
        lambda c: c.with_noise(np.random.default_rng(3), 0.2),
        lambda c: c.scaled(0.5),
        lambda c: c.resample(33, max_size=300.0),
    ],
    ids=["with_noise", "scaled", "resample"],
)
def test_at_on_derived_curves_reads_their_own_knots(derive):
    curve = simple_curve()
    curve.at(150.0)  # build the parent's float tables first
    derived = derive(curve)
    assert_at_reads_own_knots(derived)
    assert_at_reads_own_knots(curve)


@settings(max_examples=50, deadline=None)
@given(
    hits=st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=32),
    misses=st.integers(min_value=1, max_value=1000),
)
def test_property_hit_counter_curve_endpoints(hits, misses):
    curve = MissCurve.from_hit_counters(hits, misses, 64)
    total = sum(hits) + misses
    assert curve(0) == pytest.approx(1.0 if total == misses + sum(hits) else 1.0)
    assert curve(curve.max_size) == pytest.approx(misses / total)


class TestPickling:
    """Curves pickle to process-pool workers; the read-only contract
    and view/backing-array aliasing must survive the round trip."""

    def test_round_trip_preserves_readonly_views(self):
        import pickle

        curve = MissCurve([0.0, 10.0, 20.0], [1.0, 0.5, 0.2])
        loaded = pickle.loads(pickle.dumps(curve))
        assert loaded == curve
        assert not loaded.sizes.flags.writeable
        assert not loaded.miss_ratios.flags.writeable
        with pytest.raises(ValueError):
            loaded.sizes[0] = 99.0
        # The views alias the backing arrays, not detached copies.
        assert loaded.sizes.base is loaded._sizes
        assert loaded.miss_ratios.base is loaded._ratios

    def test_round_trip_rebuilds_float_tables(self):
        """The float tables never travel: a loaded curve builds its own
        from its arrays, and restoring a state over a curve drops the
        tables of the knots it had before."""
        import pickle

        curve = MissCurve([0.0, 10.0, 20.0], [1.0, 0.5, 0.2])
        curve.at(5.0)
        loaded = pickle.loads(pickle.dumps(curve))
        assert_at_reads_own_knots(loaded)
        assert loaded.float_tables is not curve.float_tables
        other = MissCurve([0.0, 40.0], [0.9, 0.3])
        curve.__setstate__(other.__getstate__())
        assert_at_reads_own_knots(curve)
        assert curve.at(5.0) == other.at(5.0)


def hexes(array):
    return [value.hex() for value in array.tolist()]


def workload_curves(name):
    """An LC workload's curve, or three drawn curves of a batch class."""
    if name in LC_NAMES:
        return [make_lc_workload(name).miss_curve]
    return [make_batch_workload(name, seed).miss_curve for seed in range(3)]


@pytest.mark.parametrize("name", [*LC_NAMES, *BATCH_CLASSES])
def test_with_noise_is_the_constructors_curve(name):
    """``with_noise`` adopts its arrays without the constructor's
    checks, so it must give what the constructor gives over the same
    draw, bit for bit, and leave the generator where one draw does."""
    import pickle

    for curve in workload_curves(name):
        sizes, ratios = hexes(curve.sizes), hexes(curve.miss_ratios)
        for seed, std in ((0, 0.02), (1, 0.3)):
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            noisy = curve.with_noise(rng, std)
            noise = twin.normal(1.0, std, size=len(ratios))
            want = MissCurve(curve.sizes, np.clip(curve.miss_ratios * noise, 0, 1))
            assert rng.bit_generator.state == twin.bit_generator.state
            assert hexes(noisy.sizes) == hexes(want.sizes)
            assert hexes(noisy.miss_ratios) == hexes(want.miss_ratios)
            assert noisy.float_tables == want.float_tables
            for view in (noisy.sizes, noisy.miss_ratios):
                with pytest.raises(ValueError):
                    view[0] = 0.5
            loaded = pickle.loads(pickle.dumps(noisy))
            assert loaded == noisy
            assert hexes(loaded.miss_ratios) == hexes(noisy.miss_ratios)
        assert (hexes(curve.sizes), hexes(curve.miss_ratios)) == (sizes, ratios)
