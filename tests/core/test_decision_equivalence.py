"""Ubik's interval decision vs the reference paths of
:mod:`repro.core.reference`.

``RepartitionTable`` runs its greedy walks over Python floats, and only
as far as a lookup reaches.  The NumPy walks it replaced are kept as
:class:`repro.core.reference.NaiveRepartitionTable`.  Each test builds
both tables from the same inputs and requires identical rows (values
and dtype) at every level, and bit-identical allocations (float hex and
Python ``float`` type) on and between the level boundaries and clamped
outside them, whether the rows are read in level order or shuffled,
and when a row is read again.

The property draws 1-8 apps over curves of 2-257 knots, equal, zero and
tiny weights (below the ``1e-12`` clamp), averages at 0, at the LLC and
between, and 1-256 buckets.  Knot ratios come from a coarse grid part
of the time, so equal marginals, and with them the first-index tie
rule of ``np.argmin``/``np.argmax``, come up often; the explicit cases
pin three identical curves and constant curves whose every marginal is
zero.

``evaluate_options`` reads each boost-grid point once per call; the
per-option search it replaced is kept as
:func:`repro.core.reference.naive_evaluate_options`.  The option wall
requires equal tables, every field's float hex, infeasible rows
included, the same batch-pricing calls in the same order, and equal
errors (type and message) where either raises.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.boost import evaluate_options
from repro.core.reference import NaiveRepartitionTable, naive_evaluate_options
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


@settings(max_examples=150, deadline=None)
@given(inputs=table_inputs(), order=st.randoms(use_true_random=False))
def test_rows_read_in_shuffled_order_match_the_numpy_walks(inputs, order):
    """The walks extend only as far as each lookup reaches, so reads in
    any order, rows and allocations mixed, see the full walk's rows.
    Every row is read twice, so later reads come from the row's kept
    allocation list."""
    curves, weights, llc_lines, avg, buckets = inputs
    table = RepartitionTable(curves, weights, llc_lines, avg, buckets=buckets)
    oracle = NaiveRepartitionTable(curves, weights, llc_lines, avg, buckets=buckets)
    levels = list(range(buckets + 1)) * 2
    order.shuffle(levels)
    step = table.bucket_lines
    for level in levels:
        if order.random() < 0.5:
            assert table.row(level).tolist() == oracle.row(level).tolist(), level
        else:
            batch_lines = (level + order.random()) * step
            got = table.allocations_at(batch_lines)
            want = oracle.allocations_at(batch_lines)
            assert [a.hex() for a in got] == [a.hex() for a in want], batch_lines
    for level in range(buckets + 1):
        assert table.row(level).tolist() == oracle.row(level).tolist(), level


# ----------------------------------------------------------------------
# The option table
# ----------------------------------------------------------------------
OPTION_FIELDS = (
    "idle_lines",
    "boost_lines",
    "active_lines",
    "lost_cycles",
    "transient_cycles",
    "net_gain",
    "benefit",
    "cost",
)


def option_table(evaluate, slope, **kwargs):
    """The option rows as float hex (with the feasible flag) and the
    batch-pricing calls, or the error type and message raised."""
    priced = []

    def batch_delta_hit_rate(delta):
        priced.append(delta.hex())
        return slope * delta

    try:
        options = evaluate(batch_delta_hit_rate=batch_delta_hit_rate, **kwargs)
    except ValueError as error:
        return "raises", type(error), str(error), priced
    rows = [
        tuple(float(getattr(o, name)).hex() for name in OPTION_FIELDS)
        + (o.feasible,)
        for o in options
    ]
    return rows, priced


def assert_options_identical(slope=1e-6, **kwargs):
    got = option_table(evaluate_options, slope, **kwargs)
    want = option_table(naive_evaluate_options, slope, **kwargs)
    assert got == want
    return got


@st.composite
def option_curves(draw, top):
    """Knots from a drawn seed; the ratios descend, come from a coarse
    grid, or reach zero from some knot on."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32)))
    knots = draw(st.integers(min_value=2, max_value=40))
    if draw(st.booleans()):
        sizes = np.linspace(0.0, top, knots)
    else:
        sizes = np.concatenate(([0.0], np.cumsum(rng.uniform(1e-3, 1.0, knots - 1))))
        sizes *= top / sizes[-1]
    shape = draw(st.sampled_from(["descending", "coarse", "reaches zero"]))
    if shape == "coarse":
        ratios = rng.choice([0.0, 0.25, 0.5, 1.0], size=knots)
    else:
        ratios = np.sort(rng.uniform(0.0, 1.0, size=knots))[::-1]
        if shape == "reaches zero":
            ratios[draw(st.integers(min_value=1, max_value=knots - 1)):] = 0.0
    return MissCurve(sizes, ratios)


@st.composite
def option_inputs(draw):
    top = draw(st.sampled_from([5.0, 1000.0, 32768.0]))
    curve = draw(option_curves(top))
    active = draw(
        st.one_of(
            st.floats(min_value=0.05, max_value=1.0).map(lambda f: f * top),
            st.sampled_from([top, 0.0, -1.0, 1.2 * top]),
        )
    )
    boost_max = draw(
        st.one_of(
            st.floats(min_value=1.0, max_value=1.1).map(lambda f: f * active),
            st.sampled_from([0.5 * active, active, top, 2.0 * top]),
        )
    )
    return dict(
        curve=curve,
        c=draw(st.one_of(st.floats(min_value=1.0, max_value=50.0), st.just(-5.0))),
        M=draw(st.one_of(st.floats(min_value=50.0, max_value=300.0), st.just(0.0))),
        active_lines=active,
        deadline_cycles=10.0 ** draw(st.floats(min_value=2.0, max_value=9.0)),
        boost_max_lines=boost_max,
        idle_fraction=draw(st.floats(min_value=0.0, max_value=1.0)),
        activation_rate=draw(st.floats(min_value=0.0, max_value=1e-6)),
        num_options=draw(st.integers(min_value=1, max_value=20)),
        use_exact_bounds=draw(st.booleans()),
    )


@settings(max_examples=400, deadline=None)
@given(
    inputs=option_inputs(),
    slope=st.floats(min_value=-1e-5, max_value=1e-5),
)
def test_property_options_match_the_per_option_search(inputs, slope):
    with np.errstate(all="ignore"):
        assert_options_identical(slope, **inputs)


FIG7_CURVE = MissCurve([0, 8192, 16384, 32768, 65536], [0.8, 0.45, 0.25, 0.12, 0.04])


def fig7_inputs(**changes):
    inputs = dict(
        curve=FIG7_CURVE,
        c=20.0,
        M=100.0,
        active_lines=32768.0,
        deadline_cycles=2.5e7,
        boost_max_lines=65536.0,
        idle_fraction=0.85,
        activation_rate=2e-8,
        num_options=16,
        use_exact_bounds=False,
    )
    inputs.update(changes)
    return inputs


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("num_options", [1, 4, 16, 20])
def test_figure7_table(exact, num_options):
    rows, __ = assert_options_identical(
        **fig7_inputs(num_options=num_options, use_exact_bounds=exact)
    )
    assert len(rows) >= 2


@pytest.mark.parametrize("exact", [False, True])
def test_curve_that_reaches_zero(exact):
    """Where the curve reaches zero the bound transient is infinite, so
    with a short deadline no boost repays the losses; the exact
    integral is finite short of that knot."""
    curve = MissCurve([0, 16384, 32768, 34816], [0.8, 0.3, 0.1, 0.0])
    rows, __ = assert_options_identical(
        **fig7_inputs(
            curve=curve,
            boost_max_lines=34816.0,
            deadline_cycles=1e6,
            use_exact_bounds=exact,
        )
    )
    if not exact:
        assert rows[-1][-1] is False
        assert math.isnan(float.fromhex(rows[-1][1]))


@pytest.mark.parametrize("boost_max", [32768.0, 16384.0, 0.0])
def test_no_boost_above_active_ends_infeasible(boost_max):
    rows, __ = assert_options_identical(**fig7_inputs(boost_max_lines=boost_max))
    assert [row[-1] for row in rows] == [True, False]


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"active_lines": 70000.0}, "s2 beyond the sampled curve"),
        ({"active_lines": -1.0}, "need 0 <= s1 <= s2"),
        ({"active_lines": math.nan}, "need 0 <= s1 <= s2"),
        ({"boost_max_lines": math.nan}, "need 0 <= s1 <= s2"),
        ({"c": -100.0, "M": 1.0}, "non-positive access interval"),
        ({"c": -100.0, "M": 1.0, "use_exact_bounds": True}, "non-positive access interval"),
    ],
)
def test_errors_are_the_oracles(changes, message):
    got = assert_options_identical(**fig7_inputs(**changes))
    assert got[:3] == ("raises", ValueError, message)


def test_random_tables_cover_every_outcome():
    """A seeded sweep like the property's meets feasible tables, tables
    ending infeasible, and each error, so the wall is not vacuous."""
    rng = random.Random(2014)
    outcomes = set()
    for __ in range(300):
        top = rng.choice([1000.0, 32768.0])
        knots = rng.randint(2, 30)
        ratios = sorted((rng.random() for __ in range(knots)), reverse=True)
        if rng.random() < 0.3:
            zero = rng.randint(1, knots - 1)
            ratios[zero:] = [0.0] * (knots - zero)
        curve = MissCurve(np.linspace(0.0, top, knots), ratios)
        active = rng.choice([top * rng.uniform(0.05, 1.0), 1.2 * top])
        inputs = dict(
            curve=curve,
            c=rng.choice([rng.uniform(1.0, 50.0), -500.0]),
            M=rng.uniform(50.0, 300.0),
            active_lines=active,
            deadline_cycles=10.0 ** rng.uniform(3.0, 9.0),
            boost_max_lines=rng.uniform(0.5, 1.1) * top,
            idle_fraction=rng.random(),
            activation_rate=rng.uniform(0.0, 1e-6),
            num_options=rng.randint(1, 20),
            use_exact_bounds=rng.random() < 0.3,
        )
        with np.errstate(all="ignore"):
            table = assert_options_identical(rng.uniform(-1e-5, 1e-5), **inputs)
        if table[0] == "raises":
            outcomes.add(table[2])
        else:
            outcomes.add("infeasible" if table[0][-1][-1] is False else "feasible")
    assert outcomes == {
        "feasible",
        "infeasible",
        "s2 beyond the sampled curve",
        "non-positive access interval",
    }
