"""The lazy package roots, the self-filling registries and the name tables."""

import importlib
import importlib.util
from itertools import combinations_with_replacement

import pytest

#: Every package root whose re-exports load on first read.
LAZY_ROOTS = (
    "repro",
    "repro.runtime",
    "repro.experiments",
    "repro.sim",
    "repro.cache",
    "repro.workloads",
    "repro.monitor",
)


@pytest.mark.parametrize("name", LAZY_ROOTS)
class TestLazyRoot:
    def test_name_table_is_all(self, name):
        package = importlib.import_module(name)
        assert len(set(package.__all__)) == len(package.__all__)
        assert sorted(package._EXPORTS) == sorted(package.__all__)

    def test_dir_lists_every_export(self, name):
        package = importlib.import_module(name)
        assert set(package.__all__) <= set(dir(package))

    def test_every_export_is_its_submodules_object(self, name):
        package = importlib.import_module(name)
        for export, submodule in package._EXPORTS.items():
            defining = importlib.import_module(f"{name}.{submodule}")
            assert getattr(package, export) is getattr(defining, export)

    def test_unknown_attribute_raises(self, name):
        package = importlib.import_module(name)
        assert not hasattr(package, "no_such_export")
        with pytest.raises(AttributeError, match="no_such_export"):
            package.no_such_export


def test_public_api_entry_points():
    import repro
    from repro.runtime import make_policy
    from repro.sim import MixEngine

    namespace = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert namespace["Session"] is repro.Session
    assert MixEngine.__module__ == "repro.sim.engine"
    assert make_policy("lru").__class__.__name__ == "LRUPolicy"


def test_runtime_exports_no_retired_name():
    """The store engines and their tooling, and the registry entry
    points no caller used, are gone from the runtime's export table."""
    import repro.runtime as runtime

    retired = {
        "StoreBackend",
        "DirectoryBackend",
        "MemoryBackend",
        "make_backend",
        "SqliteBackend",
        "BACKENDS",
        "migrate_store",
        "register_policy",
        "register_scheme",
        "make_lc_workload_named",
        "make_batch_workload_named",
        "BATCH_WORKLOADS",
        "list_batch_classes",
    }
    assert not retired & set(runtime._EXPORTS)
    assert not retired & set(dir(runtime))
    assert not any(hasattr(runtime, name) for name in retired)
    assert importlib.util.find_spec("repro.runtime.backends") is None


def test_registries_list_todays_entries():
    from repro.runtime import (
        list_lc_workloads,
        list_policies,
        list_schemes,
    )
    from repro.runtime.registry import BUILTIN_POLICY_NAMES

    assert list_policies() == ["fixed", "lru", "onoff", "static_lc", "ubik", "ucp"]
    assert sorted(BUILTIN_POLICY_NAMES) == list_policies()
    assert list_schemes() == [
        "vantage_sa16",
        "vantage_sa64",
        "vantage_zcache",
        "waypart_sa16",
        "waypart_sa64",
    ]
    assert list_lc_workloads() == ["masstree", "moses", "shore", "specjbb", "xapian"]


def test_registries_fill_one_at_a_time(fresh_interpreter):
    """Importing the registries loads no model; reading ``SCHEMES``
    loads the scheme models and nothing else."""
    models = (
        "repro.cache",
        "repro.core",
        "repro.policies",
        "repro.workloads.latency_critical",
        "repro.workloads.batch",
    )
    __, loaded = fresh_interpreter(
        "-c", "import repro.runtime.registry", watch=models
    )
    assert loaded == []
    __, loaded = fresh_interpreter(
        "-c",
        "from repro.runtime.registry import SCHEMES; SCHEMES.names()",
        watch=models,
    )
    assert loaded == ["repro.cache", "repro.cache.schemes"]


def test_engine_loads_no_umon(fresh_interpreter):
    """A simulation reads miss curves, never the UMON oracle: importing
    the engine and Ubik loads ``repro.monitor.miss_curve`` alone of the
    monitor package."""
    __, loaded = fresh_interpreter(
        "-c",
        "import repro.sim.engine, repro.core.ubik",
        watch=("repro.monitor",),
    )
    assert loaded == ["repro.monitor", "repro.monitor.miss_curve"]


class TestNameTables:
    """The one home of the grid's names agrees with the models."""

    def test_lc_names_follow_the_models(self):
        from repro.workloads import latency_critical
        from repro.workloads.names import LC_NAMES

        assert LC_NAMES == ("xapian", "masstree", "moses", "shore", "specjbb")
        assert tuple(latency_critical._SPECS) == LC_NAMES

    def test_batch_classes(self):
        from repro.workloads.names import BATCH_CLASSES

        assert BATCH_CLASSES == ("n", "f", "t", "s")

    def test_batch_type_combos(self):
        from repro.workloads.names import batch_type_combos

        combos = batch_type_combos()
        assert combos == list(combinations_with_replacement("nfts", 3))
        assert len(combos) == 20
        assert combos[0] == ("n", "n", "n") and combos[-1] == ("s", "s", "s")

    @pytest.mark.parametrize(
        "load, label",
        [(0.05, "lo"), (0.2, "lo"), (0.4, "lo"), (0.41, "hi"), (0.6, "hi")],
    )
    def test_load_label(self, load, label):
        from repro.workloads.names import load_label

        assert load_label(load) == label

    @pytest.mark.parametrize(
        "module, names",
        [
            ("latency_critical", ("LC_NAMES",)),
            ("batch", ("BATCH_CLASSES",)),
            (
                "mixes",
                ("LOW_LOAD", "HIGH_LOAD", "load_label", "batch_type_combos"),
            ),
        ],
    )
    def test_models_re_export_the_tables(self, module, names):
        from repro.workloads import names as tables

        model = importlib.import_module(f"repro.workloads.{module}")
        for name in names:
            assert name in model.__all__
            assert getattr(model, name) is getattr(tables, name)
