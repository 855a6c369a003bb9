"""Ubik's repartitioning table vs the reference NumPy walks.

``RepartitionTable`` runs its greedy walks over Python floats.  The
NumPy walks it replaced are kept as
:class:`repro.core.reference.NaiveRepartitionTable`.  Each test builds
both tables from the same inputs and requires identical rows (values
and dtype) at every level, and bit-identical allocations (float hex and
Python ``float`` type) on and between the level boundaries and clamped
outside them.

The property draws 1-8 apps over curves of 2-257 knots, equal, zero and
tiny weights (below the ``1e-12`` clamp), averages at 0, at the LLC and
between, and 1-256 buckets.  Knot ratios come from a coarse grid part
of the time, so equal marginals, and with them the first-index tie
rule of ``np.argmin``/``np.argmax``, come up often; the explicit cases
pin three identical curves and constant curves whose every marginal is
zero.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reference import NaiveRepartitionTable
from repro.core.repartition import RepartitionTable
from repro.monitor.miss_curve import MissCurve

LLC = 1000.0


def assert_tables_identical(curves, weights, llc_lines, avg, buckets):
    table = RepartitionTable(curves, weights, llc_lines, avg, buckets=buckets)
    oracle = NaiveRepartitionTable(curves, weights, llc_lines, avg, buckets=buckets)
    assert table.bucket_lines == oracle.bucket_lines
    for level in range(buckets + 1):
        row, want = table.row(level), oracle.row(level)
        assert row.dtype == want.dtype
        assert row.tolist() == want.tolist(), f"level {level}"
    step = table.bucket_lines
    probes = [-1.0, 2.0 * llc_lines]
    for level in range(buckets + 1):
        probes += [level * step, (level + 0.5) * step]
    for batch_lines in probes:
        got = table.allocations_at(batch_lines)
        want = oracle.allocations_at(batch_lines)
        assert all(type(a) is float for a in got)
        assert [a.hex() for a in got] == [a.hex() for a in want], batch_lines


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
def table_inputs(draw):
    llc_lines = draw(st.sampled_from([LLC, 4096.0, 32768]))
    apps = draw(st.integers(min_value=1, max_value=8))
    curves = [draw(miss_curves(llc_lines)) for _ in range(apps)]
    if draw(st.booleans()):
        weights = [draw(weight_values)] * apps
    else:
        weights = draw(st.lists(weight_values, min_size=apps, max_size=apps))
    avg = draw(
        st.one_of(
            st.just(0.0),
            st.just(float(llc_lines)),
            st.floats(min_value=0.0, max_value=float(llc_lines)),
        )
    )
    buckets = draw(st.integers(min_value=1, max_value=256))
    return curves, weights, llc_lines, avg, buckets


@settings(max_examples=300, deadline=None)
@given(inputs=table_inputs())
def test_property_table_matches_numpy_walks(inputs):
    assert_tables_identical(*inputs)


@pytest.mark.parametrize("avg", [0.0, 333.0, 500.0, LLC])
@pytest.mark.parametrize("buckets", [1, 16, 256])
def test_three_identical_curves_tie_to_the_lowest_index(avg, buckets):
    curve = MissCurve([0, 200, LLC], [0.8, 0.3, 0.1])
    assert_tables_identical([curve] * 3, [1.0] * 3, LLC, avg, buckets)


@pytest.mark.parametrize("avg", [0.0, 250.0, LLC])
@pytest.mark.parametrize("buckets", [1, 16, 256])
def test_constant_curves_tie_on_zero_marginals(avg, buckets):
    curves = [MissCurve.constant(r, LLC) for r in (0.9, 0.5, 0.0)]
    assert_tables_identical(curves, [1.0, 2.0, 0.0], LLC, avg, buckets)


def test_empty_batch_side_matches():
    assert_tables_identical([], [], LLC, 500.0, 16)
