"""Tests for repro.numeric: NumPy's summation order without NumPy."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.numeric import mean, pairwise_sum

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
