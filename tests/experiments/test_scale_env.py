"""Tests for the environment-variable scale knobs."""

import pytest

from repro.experiments.common import ExperimentScale, default_scale
from repro.workloads.latency_critical import LC_NAMES


class TestDefaultScale:
    def test_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_REQUESTS", raising=False)
        monkeypatch.delenv("REPRO_LC", raising=False)
        monkeypatch.delenv("REPRO_MIXES", raising=False)
        monkeypatch.delenv("REPRO_LOADS", raising=False)
        scale = default_scale()
        assert scale.requests == 120
        assert scale.lc_names == LC_NAMES
        assert len(scale.combos) == 6  # representative subset
        assert scale.loads == (0.2, 0.6)

    def test_requests_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_REQUESTS", "300")
        assert default_scale().requests == 300

    def test_lc_subset(self, monkeypatch):
        monkeypatch.setenv("REPRO_LC", "shore,specjbb")
        assert default_scale().lc_names == ("shore", "specjbb")

    def test_full_grid_via_mixes(self, monkeypatch):
        monkeypatch.setenv("REPRO_MIXES", "2")
        scale = default_scale()
        assert len(scale.combos) == 20  # the paper's full combo grid
        assert scale.mixes_per_combo == 2

    def test_invalid_lc_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_LC", "redis")
        with pytest.raises(ValueError, match="^REPRO_LC .*masstree"):
            default_scale()

    def test_loads_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOADS", "0.2")
        assert default_scale().loads == (0.2,)

    def test_loads_override_in_full_grid(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOADS", "0.3,0.7")
        monkeypatch.setenv("REPRO_MIXES", "1")
        scale = default_scale()
        assert scale.loads == (0.3, 0.7)
        assert len(scale.combos) == 20


class TestBadKnobs:
    """A malformed knob fails in default_scale, naming itself and the
    value, instead of deep in the engine or the store."""

    @pytest.mark.parametrize(
        "name, raw",
        [
            ("REPRO_REQUESTS", "abc"),
            ("REPRO_REQUESTS", "10"),
            ("REPRO_REQUESTS", "19"),
            ("REPRO_MIXES", "two"),
            ("REPRO_MIXES", "-3"),
            ("REPRO_LOADS", "0.2,high"),
            ("REPRO_LOADS", "1.5"),
            ("REPRO_LOADS", "0"),
            ("REPRO_LOADS", "nan"),
            ("REPRO_LOADS", "0.2,inf"),
            ("REPRO_LC", "bogus"),
            ("REPRO_LC", "shore,redis"),
        ],
    )
    def test_bad_value_named(self, monkeypatch, name, raw):
        monkeypatch.setenv(name, raw)
        with pytest.raises(ValueError, match=f"{name} .*'{raw}'"):
            default_scale()

    def test_lowest_accepted_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_REQUESTS", "20")
        monkeypatch.setenv("REPRO_MIXES", "0")
        scale = default_scale()
        assert scale.requests == 20
        assert len(scale.combos) == 6

    @pytest.mark.parametrize("load", [0.0, 1.0, 1.5, -0.2, float("nan")])
    def test_scale_rejects_loads_outside_the_unit_interval(self, load):
        with pytest.raises(ValueError, match=r"loads must be in \(0, 1\)"):
            ExperimentScale(loads=(0.2, load))
