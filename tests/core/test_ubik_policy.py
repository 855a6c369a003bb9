"""Tests for repro.core.ubik (policy-level behaviour)."""

import dataclasses

import numpy as np
import pytest

from repro.core.ubik import UbikPolicy
from repro.monitor.miss_curve import MissCurve
from repro.policies.base import AppView, PolicyContext

LLC = 196_608  # 12 MB
TARGET = 32_768  # 2 MB


def lc_view(index, idle_fraction=0.8, curve=None):
    curve = curve or MissCurve(
        [0, TARGET // 2, TARGET, 2 * TARGET, LLC], [0.8, 0.4, 0.25, 0.12, 0.05]
    )
    return AppView(
        index=index,
        name=f"lc{index}",
        kind="lc",
        curve=curve,
        apki=16.0,
        hit_interval=40.0,
        miss_penalty=100.0,
        access_rate=0.002,
        target_lines=float(TARGET),
        deadline_cycles=3e6,
        target_tail_cycles=3e6,
        idle_fraction=idle_fraction,
        activation_rate=1e-7,
        accesses_per_request=8000.0,
        tail_accesses_per_request=12_000.0,
    )


def batch_view(index, flavor="friendly"):
    if flavor == "friendly":
        curve = MissCurve([0, LLC], [0.8, 0.1])
    elif flavor == "knee":
        curve = MissCurve([0, LLC // 8, LLC // 2, LLC], [0.9, 0.3, 0.1, 0.05])
    else:
        curve = MissCurve.constant(0.9, LLC)
    return AppView(
        index=index,
        name=f"b{index}",
        kind="batch",
        curve=curve,
        apki=10.0,
        hit_interval=70.0,
        miss_penalty=120.0,
        access_rate=0.01,
    )


def make_ctx(apps, active=None, boosted=None, targets=None):
    lc = [a.index for a in apps if a.is_lc]
    return PolicyContext(
        llc_lines=LLC,
        apps=apps,
        current_targets=targets or {a.index: 0.0 for a in apps},
        now=0.0,
        avg_batch_lines=LLC - 2 * TARGET,
        lc_active=active or {i: False for i in lc},
        rng=np.random.default_rng(0),
        lc_boosted=boosted or {i: False for i in lc},
    )


@pytest.fixture
def apps():
    return [lc_view(0), lc_view(1), batch_view(2), batch_view(3, "stream")]


class TestLifecycle:
    def test_initialize_covers_all_apps(self, apps):
        policy = UbikPolicy()
        decision = policy.initialize(make_ctx(apps))
        assert set(decision.targets) == {0, 1, 2, 3}
        assert sum(decision.targets.values()) <= LLC + 1e-6

    def test_idle_apps_downsized_below_target(self, apps):
        policy = UbikPolicy()
        decision = policy.initialize(make_ctx(apps))
        sizing = policy.sizing_for(0)
        assert sizing.idle_lines < TARGET
        assert decision.targets[0] == sizing.idle_lines

    def test_activation_boosts_and_arms_plan(self, apps):
        policy = UbikPolicy()
        ctx = make_ctx(apps)
        init = policy.initialize(ctx)
        ctx = make_ctx(
            apps, active={0: True, 1: False}, targets=dict(init.targets)
        )
        decision = policy.on_lc_active(ctx, 0)
        sizing = policy.sizing_for(0)
        assert decision.targets[0] == sizing.boost_lines
        assert sizing.boost_lines > sizing.active_lines
        assert 0 in decision.boost_plans
        plan = decision.boost_plans[0]
        assert plan.active_lines == sizing.active_lines

    def test_boost_capped_for_mutual_isolation(self, apps):
        """sboost <= llc / num_lc: boosted LC apps can never collide."""
        policy = UbikPolicy()
        policy.initialize(make_ctx(apps))
        for index in (0, 1):
            assert policy.sizing_for(index).boost_lines <= LLC / 2

    def test_deboost_returns_to_active(self, apps):
        policy = UbikPolicy()
        ctx = make_ctx(apps)
        init = policy.initialize(ctx)
        ctx = make_ctx(apps, active={0: True, 1: False}, targets=dict(init.targets))
        boost_decision = policy.on_lc_active(ctx, 0)
        ctx2 = make_ctx(
            apps,
            active={0: True, 1: False},
            boosted={0: True, 1: False},
            targets=boost_decision.merged_over(init.targets),
        )
        deboost = policy.on_deboost(ctx2, 0)
        assert deboost.targets[0] == policy.sizing_for(0).active_lines

    def test_idle_gives_space_to_batch(self, apps):
        policy = UbikPolicy()
        ctx = make_ctx(apps)
        init = policy.initialize(ctx)
        active_targets = dict(init.targets)
        active_targets[0] = TARGET
        ctx = make_ctx(apps, active={0: True, 1: False}, targets=active_targets)
        idle_decision = policy.on_lc_idle(ctx, 0)
        batch_after = idle_decision.targets[2] + idle_decision.targets[3]
        batch_before = active_targets[2] + active_targets[3]
        assert idle_decision.targets[0] < TARGET
        assert batch_after >= batch_before

    def test_interval_leaves_boosted_apps_alone(self, apps):
        policy = UbikPolicy()
        ctx = make_ctx(apps)
        init = policy.initialize(ctx)
        boosted_targets = dict(init.targets)
        boosted_targets[0] = 50_000.0  # mid-boost
        ctx = make_ctx(
            apps,
            active={0: True, 1: False},
            boosted={0: True, 1: False},
            targets=boosted_targets,
        )
        decision = policy.on_interval(ctx)
        assert decision.targets[0] == 50_000.0


class TestBatchPricing:
    @pytest.mark.parametrize("num_options", [16, 64])
    @pytest.mark.parametrize("slack", [0.0, 0.05])
    def test_each_price_is_its_rows_own(self, slack, num_options, monkeypatch):
        """A rebuild prices each table row once; every price the option
        search reads equals pricing its batch space afresh on that
        rebuild's table, at initialize and at a later reconfiguration
        with another average and other weights.  At 64 options the idle
        sizes step by less than a bucket, so neighbouring rows are
        priced too."""
        import repro.core.boost as boost

        seen = []
        evaluate = boost.evaluate_options

        def spy(**kwargs):
            price = kwargs["batch_delta_hit_rate"]

            def recorded(delta):
                value = price(delta)
                seen.append((delta, value))
                return value

            kwargs["batch_delta_hit_rate"] = recorded
            return evaluate(**kwargs)

        monkeypatch.setattr(boost, "evaluate_options", spy)
        # A long deadline makes most options feasible, so the search
        # prices many rows.
        apps = [
            dataclasses.replace(lc_view(0), deadline_cycles=3e7),
            dataclasses.replace(lc_view(1, idle_fraction=0.3), deadline_cycles=3e7),
            batch_view(2),
            batch_view(3, "stream"),
            batch_view(4, "knee"),
        ]
        policy = UbikPolicy(slack=slack, num_options=num_options)
        later = [
            dataclasses.replace(a, access_rate=0.01 * (1 + a.index)) for a in apps
        ]
        for rebuild, ctx in enumerate([make_ctx(apps), make_ctx(later)]):
            seen.clear()
            if rebuild == 0:
                policy.initialize(ctx)
            else:
                ctx.avg_batch_lines = LLC - 3 * TARGET
                policy.on_interval(ctx)
            avg = ctx.avg_batch_lines
            table = policy._table
            assert len({table.level_for(avg + delta) for delta, __ in seen}) > 15
            base = policy._batch_hit_rate(avg)
            for delta, value in seen:
                fresh = policy._batch_hit_rate(avg + delta) - base
                assert value.hex() == fresh.hex(), (rebuild, delta)


class TestSlackVariant:
    def test_name_reflects_slack(self):
        assert UbikPolicy().name == "Ubik"
        assert UbikPolicy(slack=0.05).name == "Ubik-5%"

    def test_slack_shrinks_active_size(self, apps):
        """With a flat-ish curve, slack lowers s_active below target."""
        flat = MissCurve([0, TARGET // 8, LLC], [0.9, 0.33, 0.30])
        flat_apps = [lc_view(0, curve=flat), lc_view(1), batch_view(2), batch_view(3)]
        strict = UbikPolicy(slack=0.0)
        slacked = UbikPolicy(slack=0.10)
        strict.initialize(make_ctx(flat_apps))
        slacked.initialize(make_ctx(flat_apps))
        assert (
            slacked.sizing_for(0).active_lines
            < strict.sizing_for(0).active_lines
        )

    def test_watermark_forces_strict_plan(self, apps):
        policy = UbikPolicy(slack=0.05)
        ctx = make_ctx(apps)
        init = policy.initialize(ctx)
        ctx2 = make_ctx(apps, active={0: True, 1: False}, targets=dict(init.targets))
        decision = policy.on_watermark(ctx2, 0)
        strict = policy._strict_sizing[0]
        assert decision.targets[0] == strict.boost_lines
        if 0 in decision.boost_plans:
            assert decision.boost_plans[0].watermark_factor is None

    def test_validation(self):
        with pytest.raises(ValueError):
            UbikPolicy(slack=-0.1)
        with pytest.raises(ValueError, match="buckets"):
            UbikPolicy(buckets=0)

    @pytest.mark.parametrize("num_options", [0, -3])
    def test_rejects_bad_num_options_when_built(self, num_options):
        """A bad option count fails where the policy is made, not in
        the first interval's sizing mid-simulation."""
        from repro.runtime.registry import make_policy

        with pytest.raises(ValueError, match="num_options"):
            make_policy("ubik", num_options=num_options)
