"""Tests for the named factory registries."""

import pytest

from repro.core.ubik import UbikPolicy
from repro.policies.lru import LRUPolicy
from repro.runtime import (
    Registry,
    list_lc_workloads,
    list_policies,
    list_schemes,
    make_policy,
    make_scheme,
)
from repro.runtime.registry import _builtin_registry
from repro.workloads.latency_critical import LC_NAMES


class TestPolicyRegistry:
    def test_builtin_policies_present(self):
        names = list_policies()
        for expected in ("lru", "ucp", "onoff", "static_lc", "ubik", "fixed"):
            assert expected in names

    def test_make_policy_with_kwargs(self):
        policy = make_policy("ubik", slack=0.05)
        assert isinstance(policy, UbikPolicy)
        assert policy.slack == 0.05

    def test_make_policy_case_insensitive(self):
        assert isinstance(make_policy("LRU"), LRUPolicy)

    def test_unknown_policy_error_lists_names_and_suggests(self):
        with pytest.raises(KeyError) as excinfo:
            make_policy("ubiq")
        message = str(excinfo.value)
        assert "unknown policy 'ubiq'" in message
        assert "lru" in message  # the key table is listed
        assert "did you mean 'ubik'" in message


class TestSchemeRegistry:
    def test_builtin_schemes_present(self):
        names = list_schemes()
        for expected in (
            "vantage_zcache",
            "vantage_sa16",
            "vantage_sa64",
            "waypart_sa16",
            "waypart_sa64",
        ):
            assert expected in names

    def test_make_scheme_builds_model(self):
        model = make_scheme("waypart_sa16", llc_lines=16 * 1024)
        assert model.name == "WayPart SA16"
        assert model.granularity_lines > 1

    def test_unknown_scheme_rejected(self):
        with pytest.raises(KeyError, match="unknown scheme"):
            make_scheme("vantage_sa32", llc_lines=1024)


class TestWorkloadRegistries:
    def test_lc_names_registered(self):
        assert set(list_lc_workloads()) == set(LC_NAMES)


class TestRegistryMechanics:
    def test_duplicate_registration_rejected(self):
        reg = Registry("thing")
        reg.register("a", lambda: 1)
        with pytest.raises(ValueError, match="already registered"):
            reg.register("a", lambda: 2)

    def test_decorator_form(self):
        reg = Registry("thing")

        @reg.register("b")
        def make_b():
            return "b!"

        assert reg.make("b") == "b!"
        assert "b" in reg
        assert len(reg) == 1

    def test_builtins_fill_once_on_first_read(self):
        calls = []

        def builtins(registry):
            calls.append(registry)
            registry.register("a", lambda: 1)

        reg = _builtin_registry("thing", builtins)
        assert calls == []
        assert reg.names() == ["a"]
        assert reg.make("a") == 1 and "a" in reg and len(reg) == 1
        assert calls == [reg]

    def test_builtins_fill_before_a_registration(self):
        reg = _builtin_registry(
            "thing", lambda registry: registry.register("a", lambda: 1)
        )
        with pytest.raises(ValueError, match="thing 'a' already registered"):
            reg.register("a", lambda: 2)
        reg.register("b", lambda: 2)
        assert reg.names() == ["a", "b"]

    def test_unknown_name_error_lists_the_builtins(self):
        reg = _builtin_registry(
            "thing", lambda registry: registry.register("alpha", int)
        )
        with pytest.raises(KeyError) as excinfo:
            reg.get("alpah")
        assert excinfo.value.args[0] == (
            "unknown thing 'alpah' (known: alpha); did you mean 'alpha'?"
        )
