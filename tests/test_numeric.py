"""Tests for repro.numeric: NumPy's summation order and percentile
without NumPy, and the tail metrics built on them."""

import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.numeric import mean, pairwise_sum, percentile
from repro.server.latency import percentile_latency, tail_mean

#: Lengths drawn evenly up to 600, so vectors NumPy splits once (from
#: 129 elements) and again (from 249) are drawn as often as short ones.
_LENGTHS = st.integers(min_value=0, max_value=600)


def _values(rng, n):
    """``n`` floats of either sign, magnitudes spread evenly in log
    scale from 1e-5 to 1e5 in one list, and about one in ten a zero of
    either sign."""
    return [
        rng.choice((0.0, -0.0))
        if rng.random() < 0.1
        else rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-5.0, 5.0)
        for _ in range(n)
    ]


@settings(max_examples=400, deadline=None)
@given(n=_LENGTHS, rng=st.randoms(use_true_random=True))
def test_pairwise_sum_is_numpys_sum(n, rng):
    """Left to right below 8 elements, 8 partial sums up to 128, halves
    beyond: the same bits as ``np.sum`` at every length."""
    values = _values(rng, n)
    assert pairwise_sum(values).hex() == float(np.sum(np.asarray(values))).hex()


@settings(max_examples=400, deadline=None)
@given(n=_LENGTHS.filter(bool), rng=st.randoms(use_true_random=True))
def test_mean_is_numpys_mean(n, rng):
    values = _values(rng, n)
    assert mean(values).hex() == float(np.mean(values)).hex()


@settings(max_examples=100, deadline=None)
@given(n=_LENGTHS.filter(bool), rng=st.randoms(use_true_random=True))
def test_mean_of_flags_is_numpys_fraction(n, rng):
    """A predicate list, such as the share of mixes with safe tails,
    averages as NumPy averages a bool array."""
    flags = [rng.random() < 0.5 for _ in range(n)]
    assert mean(flags).hex() == float(np.mean(flags)).hex()


def test_signed_zero_sums_to_positive_zero():
    assert pairwise_sum([-0.0]).hex() == float(np.sum([-0.0])).hex() == "0x0.0p+0"
    assert mean([-0.0]).hex() == float(np.mean([-0.0])).hex() == "0x0.0p+0"


# ----------------------------------------------------------------------
# percentile and the tail metrics
# ----------------------------------------------------------------------
#: Percentiles drawn anywhere in [0, 100], the ends and the tail
#: metric's 95 often.
_PCTS = st.one_of(
    st.sampled_from([0.0, 100.0, 95.0, 50.0, 0, 100, 95]),
    st.floats(min_value=0.0, max_value=100.0),
)


def _latencies(rng, n):
    """``n`` non-negative latencies: spread over decades, or drawn from
    a few values so ties are common, with an infinity or a NaN now and
    then.  Zeros are positive: NumPy orders equal values unspecified,
    so the sign of a zero result is not part of the contract."""
    if rng.random() < 0.4:
        pool = [0.0, 1.0, 2.5, 7.0, 1e6]
        values = [rng.choice(pool) for _ in range(n)]
    else:
        values = [10.0 ** rng.uniform(-3.0, 9.0) for _ in range(n)]
    if rng.random() < 0.1:
        values[rng.randrange(n)] = rng.choice((math.inf, math.nan))
    return values


def _numpy_tail_mean(values, pct):
    """The NumPy computation ``tail_mean`` stood as: the mean of the
    values at or past ``np.percentile``, NaN for an empty tail."""
    arr = np.asarray(values, dtype=float)
    with warnings.catch_warnings(), np.errstate(invalid="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)
        return float(arr[arr >= np.percentile(arr, pct)].mean())


@settings(max_examples=500, deadline=None)
@given(n=st.integers(min_value=1, max_value=400), pct=_PCTS, seed=st.integers())
def test_percentile_is_numpys(n, pct, seed):
    values = _latencies(random.Random(seed), n)
    with np.errstate(invalid="ignore"):
        want = float(np.percentile(np.asarray(values), pct))
    assert percentile(values, pct).hex() == want.hex()


@settings(max_examples=500, deadline=None)
@given(n=st.integers(min_value=1, max_value=400), pct=_PCTS, seed=st.integers())
def test_tail_mean_is_numpys(n, pct, seed):
    values = _latencies(random.Random(seed), n)
    want = _numpy_tail_mean(values, pct)
    assert tail_mean(values, pct).hex() == want.hex()
    assert tail_mean(tuple(values), pct).hex() == want.hex()
    assert tail_mean(np.asarray(values), pct).hex() == want.hex()


@pytest.mark.parametrize(
    "values",
    [[3.0], [2.0, 2.0, 2.0], [1.0, 2.0], [5.0, 1.0, 4.0, 1.0, 5.0], list(range(1, 41))],
)
@pytest.mark.parametrize("pct", [0, 5, 50, 95, 97.5, 100])
def test_small_cases_are_numpys(values, pct):
    """Both lerp branches (weights below and from one half) and the
    last order statistic, read past the end of the sorted values."""
    want = float(np.percentile(np.asarray(values, dtype=float), pct))
    assert percentile(values, pct).hex() == want.hex()
    assert tail_mean(values, pct).hex() == _numpy_tail_mean(values, pct).hex()


@pytest.mark.parametrize("pct, upper", [(1.0 / 3.0, False), (2.5, True)])
def test_each_lerp_branch_is_numpys(pct, upper):
    """At 80 of these values the 1/3rd percentile's weight is below one
    half and the 2.5th's above it, and at both the forward lerp
    ``a + (b - a) * t`` and the backward one ``b - (b - a) * (1 - t)``
    differ in the last bit: NumPy takes the backward one from one half
    on, and so must ``percentile``."""
    values = [0.1 * 3 ** (i % 7) + i for i in range(80)]
    index = (len(values) - 1) * (pct / 100)
    lo = math.floor(index)
    t = index - lo
    a, b = sorted(values)[lo : lo + 2]
    forward, backward = a + (b - a) * t, b - (b - a) * (1 - t)
    assert forward != backward and (t >= 0.5) is upper
    want = float(np.percentile(np.asarray(values), pct))
    assert want == (backward if upper else forward)
    assert percentile(values, pct).hex() == want.hex()


@pytest.mark.parametrize("where", [0, 1, -1])
def test_any_nan_gives_nan(where):
    values = [1.0, 2.0, 3.0, 4.0]
    values[where] = math.nan
    assert math.isnan(percentile(values, 95))
    assert math.isnan(tail_mean(values))
    assert math.isnan(percentile_latency(values))


def test_an_infinite_latency_is_numpys_nan():
    """NumPy's lerp from a finite value to infinity takes ``inf - inf``
    from one half on, so the threshold is NaN and the tail is empty."""
    values = [1.0, math.inf]
    with np.errstate(invalid="ignore"):
        assert math.isnan(float(np.percentile(values, 95)))
    assert math.isnan(percentile(values, 95))
    assert math.isnan(tail_mean(values))


@pytest.mark.parametrize("function", [tail_mean, percentile_latency])
def test_empty_and_negative_latencies_raise(function):
    with pytest.raises(ValueError, match="no latencies"):
        function([])
    with pytest.raises(ValueError, match="non-negative"):
        function([1.0, -0.5, 2.0])
    with pytest.raises(ValueError, match="non-negative"):
        function([math.nan, -1.0])


@pytest.mark.parametrize("pct", [-1.0, 100.5, math.nan])
def test_percentile_rejects_what_numpy_rejects(pct):
    with pytest.raises(ValueError, match=r"\[0, 100\]"):
        np.percentile([1.0, 2.0], pct)
    with pytest.raises(ValueError, match=r"\[0, 100\]"):
        percentile([1.0, 2.0], pct)
    with pytest.raises(ValueError, match="empty"):
        percentile([], 50)
