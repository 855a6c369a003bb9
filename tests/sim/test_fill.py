"""Tests for repro.sim.fill — the engine's transient integrator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.schemes import vantage_setassoc, way_partitioning
from repro.core.transient import lost_cycles_exact, transient_length_exact
from repro.monitor.miss_curve import MissCurve
from repro.sim.fill import FillState

C, M = 50.0, 100.0


def curve():
    return MissCurve([0, 1000, 2000, 4000], [0.8, 0.3, 0.15, 0.05])


def make_fill(resident=0.0, target=4000.0, scheme=None):
    return FillState(curve(), C, M, scheme=scheme, resident=resident, target=target)


class TestSteadyState:
    def test_steady_execution(self):
        fill = make_fill(resident=4000.0, target=4000.0)
        cycles, __, misses = fill.advance_accesses(1000.0)
        p = 0.05
        assert misses == pytest.approx(1000 * p)
        assert cycles == pytest.approx(1000 * (C + p * M))

    def test_advance_cycles_steady_inverse(self):
        fill = make_fill(resident=4000.0, target=4000.0)
        budget = 123_456.0
        cycles, accesses, __ = fill.advance_cycles(budget)
        assert cycles == pytest.approx(budget)
        assert accesses == pytest.approx(budget / (C + 0.05 * M))

    def test_zero_accesses(self):
        fill = make_fill(resident=1000.0)
        cycles, __, misses = fill.advance_accesses(0.0)
        assert cycles == 0.0
        assert misses == 0.0

    def test_validation(self):
        fill = make_fill()
        with pytest.raises(ValueError):
            fill.advance_accesses(-1.0)
        with pytest.raises(ValueError):
            fill.advance_cycles(-1.0)
        with pytest.raises(ValueError):
            fill.set_target(-1.0)
        with pytest.raises(ValueError):
            FillState(curve(), -1.0, M)


class TestGrowth:
    def test_one_line_per_miss(self):
        """The Vantage invariant: lines grown == misses seen."""
        fill = make_fill(resident=500.0, target=4000.0)
        __, __, misses = fill.advance_accesses(2000.0)
        assert fill.resident - 500.0 == pytest.approx(misses)

    def test_growth_stops_at_target(self):
        fill = make_fill(resident=0.0, target=1500.0)
        fill.advance_accesses(1e7)
        assert fill.resident == pytest.approx(1500.0)
        assert not fill.filling

    def test_miss_ratio_declines_during_fill(self):
        fill = make_fill(resident=0.0, target=4000.0)
        p0 = fill.miss_ratio()
        fill.advance_accesses(500.0)
        assert fill.miss_ratio() < p0

    def test_shrink_is_immediate(self):
        fill = make_fill(resident=3000.0, target=4000.0)
        fill.set_target(1000.0)
        assert fill.resident == 1000.0
        assert fill.miss_ratio() == pytest.approx(0.3)

    def test_transient_time_matches_analytic(self):
        """The engine's integral equals the Section 5.1 exact sum."""
        fill = make_fill(resident=1000.0, target=3000.0)
        total_cycles = 0.0
        # Many small steps; stop once filled.
        while fill.filling:
            cycles, __, __ = fill.advance_accesses(200.0)
            if not fill.filling:
                # Remove the post-fill steady part of the last chunk.
                break
            total_cycles += cycles
        approx = transient_length_exact(curve(), 1000.0, 3000.0, C, M)
        # total_cycles is within one chunk of the analytic value.
        chunk_cost = 200 * (C + 0.3 * M)
        assert abs(total_cycles - approx) < 2 * chunk_cost

    def test_advance_cycles_growth_inverse(self):
        """advance_cycles and advance_accesses agree on the same path."""
        forward = make_fill(resident=200.0, target=4000.0)
        cycles, __, __ = forward.advance_accesses(1500.0)
        inverse = make_fill(resident=200.0, target=4000.0)
        __, accesses, __ = inverse.advance_cycles(cycles)
        assert accesses == pytest.approx(1500.0, rel=1e-6)
        assert inverse.resident == pytest.approx(forward.resident, rel=1e-6)

    def test_zero_miss_region_stalls_growth(self):
        flat_zero = MissCurve([0, 100, 4000], [0.5, 0.0, 0.0])
        fill = FillState(flat_zero, C, M, resident=200.0, target=4000.0)
        cycles, __, misses = fill.advance_accesses(10_000.0)
        # p=0 at resident=200: no misses, no growth, pure-hit cycles.
        assert misses == pytest.approx(0.0, abs=1e-6)
        assert cycles == pytest.approx(10_000 * C, rel=1e-6)


class TestSchemes:
    def test_way_partition_quantizes_target(self):
        scheme = way_partitioning(4096, 16)  # 256-line ways
        fill = FillState(curve(), C, M, scheme=scheme)
        fill.set_target(1000.0)
        assert fill.target == 768.0  # floor to 3 ways

    def test_way_partition_slow_fill(self):
        scheme = way_partitioning(4096, 16)
        rng = np.random.default_rng(0)
        slow = FillState(curve(), C, M, scheme=scheme, resident=0, target=2048)
        slow.begin_transient(rng)
        fast = make_fill(resident=0.0, target=2048.0)
        adv_slow = slow.advance_accesses(3000.0)
        adv_fast = fast.advance_accesses(3000.0)
        assert slow.resident < fast.resident

    def test_way_partition_assoc_penalty(self):
        scheme = way_partitioning(4096, 16)
        fill = FillState(curve(), C, M, scheme=scheme, resident=256, target=256)
        # One way allocated: heavy associativity penalty on misses.
        assert fill.miss_ratio() > float(curve()(256.0))

    def test_soft_scheme_effective_target(self):
        scheme = vantage_setassoc(4096, 16)
        fill = FillState(curve(), C, M, scheme=scheme)
        fill.set_target(1000.0)
        assert fill.effective_target == pytest.approx(940.0)

    def test_idle_loss_jitter(self):
        scheme = vantage_setassoc(4096, 16)
        rng = np.random.default_rng(1)
        fill = FillState(curve(), C, M, scheme=scheme, resident=900, target=1000)
        before = fill.resident
        losses = 0
        for _ in range(20):
            fill.apply_idle_loss(rng)
        assert fill.resident < before


@settings(max_examples=50, deadline=None)
@given(
    resident_frac=st.floats(min_value=0, max_value=1),
    target_frac=st.floats(min_value=0.01, max_value=1),
    accesses=st.floats(min_value=0, max_value=20_000),
)
def test_property_fill_conservation(resident_frac, target_frac, accesses):
    """Invariants: resident in [start, target], misses == growth while
    filling, cycles == c*n + M*misses."""
    target = 4000.0 * target_frac
    start = min(4000.0 * resident_frac, target)
    fill = FillState(curve(), C, M, resident=start, target=target)
    cycles, done, misses = fill.advance_accesses(accesses)
    assert done == pytest.approx(accesses)
    assert start - 1e-9 <= fill.resident <= max(target, start) + 1e-9
    grown = fill.resident - start
    assert misses >= grown - 1e-6
    # abs tolerance covers the engine's sub-epsilon access cutoff.
    assert cycles == pytest.approx(
        C * accesses + M * misses, rel=1e-9, abs=1e-6
    )


@settings(max_examples=50, deadline=None)
@given(
    budget=st.floats(min_value=0, max_value=5e6),
    start_frac=st.floats(min_value=0, max_value=1),
)
def test_property_cycles_inverse_consistent(budget, start_frac):
    start = 4000.0 * start_frac
    a = FillState(curve(), C, M, resident=start, target=4000.0)
    spent, accesses, __ = a.advance_cycles(budget)
    assert spent <= budget + 1e-6
    b = FillState(curve(), C, M, resident=start, target=4000.0)
    cycles, __, __ = b.advance_accesses(accesses)
    assert cycles == pytest.approx(budget, rel=1e-5, abs=1.0)
    assert b.resident == pytest.approx(a.resident, rel=1e-6, abs=1e-3)
