"""UCP's Lookahead vs the reference full rescan.

``lookahead_partition`` keeps each app's marginal-utility array across
greedy rounds and reruns ``np.argmax`` only when the shrinking budget
cuts the kept maximum off.  The rescan of every app in every round is
kept as :func:`repro.core.reference.naive_lookahead_partition`.  Each
test runs both on the same inputs and requires bit-identical
allocations: the same ``float.hex`` list, every entry a Python
``float``.

The property draws 1-8 apps over curves of 2-257 knots, 1-256
buckets, budgets of 0, the LLC and between, equal, zero and tiny
weights, and per-app minimums part of the time.  Knot ratios come from
a coarse grid part of the time, so equal marginal utilities, and with
them the first-index tie rule of ``np.argmax`` and of the strict
``>`` across apps, come up often; uniform ratios make non-monotone
curves.  The explicit cases pin three identical curves and constant
curves, whose every marginal is zero, so the remainder goes out
round-robin.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reference import naive_lookahead_partition
from repro.monitor.miss_curve import MissCurve
from repro.policies.lookahead import lookahead_partition

LLC = 1000.0


def assert_partitions_identical(curves, weights, total, buckets, min_buckets=None):
    got = lookahead_partition(
        curves, weights, total, buckets=buckets, min_buckets=min_buckets
    )
    want = naive_lookahead_partition(
        curves, weights, total, buckets=buckets, min_buckets=min_buckets
    )
    assert all(type(a) is float for a in got)
    assert [a.hex() for a in got] == [a.hex() for a in want]


@st.composite
def miss_curves(draw, llc_lines):
    """Knot grids and ratios come from a drawn seed: a 257-knot curve
    drawn value by value would make the property slow to generate."""
    knots = draw(st.integers(min_value=2, max_value=257))
    top = llc_lines * draw(st.sampled_from([0.25, 0.5, 1.0, 1.5]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32)))
    if draw(st.booleans()):
        sizes = np.linspace(0.0, top, knots)
    else:
        sizes = np.concatenate(([0.0], np.cumsum(rng.uniform(1e-3, 1.0, knots - 1))))
        sizes *= top / sizes[-1]
    if draw(st.booleans()):
        ratios = rng.choice([0.0, 0.25, 0.5, 1.0], size=knots)
    else:
        ratios = rng.uniform(0.0, 1.0, size=knots)
    return MissCurve(sizes, ratios)


weight_values = st.one_of(
    st.floats(min_value=1e-3, max_value=1e3),
    st.sampled_from([0.0, 1e-15, 1e-12, 1.0]),
)


@st.composite
def partition_inputs(draw):
    llc_lines = draw(st.sampled_from([LLC, 4096.0, 32768]))
    apps = draw(st.integers(min_value=1, max_value=8))
    curves = [draw(miss_curves(llc_lines)) for _ in range(apps)]
    if draw(st.booleans()):
        weights = [draw(weight_values)] * apps
    else:
        weights = draw(st.lists(weight_values, min_size=apps, max_size=apps))
    total = draw(
        st.one_of(
            st.just(0.0),
            st.just(float(llc_lines)),
            st.floats(min_value=0.0, max_value=float(llc_lines)),
        )
    )
    buckets = draw(st.integers(min_value=1, max_value=256))
    min_buckets = None
    if draw(st.booleans()):
        min_buckets = draw(
            st.lists(
                st.integers(min_value=0, max_value=buckets // apps),
                min_size=apps,
                max_size=apps,
            )
        )
    return curves, weights, total, buckets, min_buckets


@settings(max_examples=400, deadline=None)
@given(inputs=partition_inputs())
def test_property_lookahead_matches_the_full_rescan(inputs):
    assert_partitions_identical(*inputs)


@pytest.mark.parametrize("total", [0.0, 333.0, LLC])
@pytest.mark.parametrize("buckets", [1, 16, 256])
def test_three_identical_curves_tie_to_the_lowest_index(total, buckets):
    curve = MissCurve([0, 200, LLC], [0.8, 0.3, 0.1])
    assert_partitions_identical([curve] * 3, [1.0] * 3, total, buckets)


@pytest.mark.parametrize("total", [250.0, LLC])
@pytest.mark.parametrize("buckets", [1, 16, 256])
def test_zero_marginals_spread_the_remainder_round_robin(total, buckets):
    curves = [MissCurve.constant(r, LLC) for r in (0.9, 0.5, 0.0)]
    weights = [1.0, 2.0, 0.0]
    assert_partitions_identical(curves, weights, total, buckets)
    # Nobody gains, so the whole budget goes out round-robin from the
    # heaviest app.
    allocs = lookahead_partition(curves, weights, total, buckets=buckets)
    order = [1, 0, 2]
    step = total / buckets
    want = [0.0] * 3
    for k in range(buckets):
        want[order[k % 3]] += 1
    assert allocs == [float(n * step) for n in want]


def test_a_kept_maximum_cut_off_by_the_budget_is_rescanned():
    """The knee's best increment is the whole budget; the steep app wins
    the first round and cuts it off, so the next round must rescan the
    knee's shorter prefix rather than grant more than is left."""
    knee = MissCurve([0, 100, 900, LLC], [1.0, 0.95, 0.95, 0.0])
    steep = MissCurve([0, 100, LLC], [1.0, 0.0, 0.0])
    assert_partitions_identical([knee, steep], [1.0, 1.0], LLC, 10)
    allocs = lookahead_partition([knee, steep], [1.0, 1.0], LLC, buckets=10)
    assert sum(allocs) == LLC
