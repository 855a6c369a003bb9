"""Production replay vs the scalar oracle on the golden-suite grid.

The acceptance bar for the replay engine is the one every fast path in
this repo meets: *byte identity*.  This runs the pinned 2-policy sweep
(the Ubik and LRU cells of the ``tests/golden`` grid) into a fresh
store through a serial ``Session`` — the production path, one replay
group on :class:`~repro.sim.engine.MixEngine` — and the same
specs one by one through ``execute_spec``, the scalar ``run_mix``
oracle, into another.  The stores must match: raw trees on a
directory store, documents by fingerprint on a memory store.  A
corpus written either way must also serve a rerun the other way as a
pure store hit.
"""

import pytest

from repro.runtime import (
    MixRef,
    PolicySpec,
    ResultStore,
    RunSpec,
    Session,
    get_artifacts,
    reset_artifacts,
)
from repro.runtime.work import execute_spec

#: The 2-policy sweep the other golden files pin: one shared baseline,
#: two run records — and, in production, one two-cell replay group.
GOLDEN_SPECS = [
    RunSpec(
        mix=MixRef(lc_name="masstree", load=0.2, combo="nft"),
        policy=policy,
        requests=60,
    )
    for policy in (
        PolicySpec.of("ubik", slack=0.05),
        PolicySpec.of("lru", label="LRU"),
    )
]


def store_tree(root):
    """Every file under a store root, path → bytes."""
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in root.rglob("*")
        if p.is_file()
    }


@pytest.fixture(autouse=True)
def _fresh_state():
    """An empty artifact cache per arm, so each simulates from scratch."""
    reset_artifacts()
    yield
    reset_artifacts()


def run_production(store):
    """The sweep through a serial session; returns its records."""
    return Session(store=store, jobs=1).run_many(GOLDEN_SPECS)


def run_oracle(store):
    """The same specs one by one through the scalar oracle."""
    return [execute_spec(spec, store) for spec in GOLDEN_SPECS]


def test_directory_store_trees_byte_identical(tmp_path):
    production = run_production(ResultStore(tmp_path / "production"))
    # The sweep must actually have replayed as a group, or this test
    # proves nothing: one group of two cells = one miss, one hit.
    counters = get_artifacts().stats()["kinds"]["replay_group"]
    assert (counters["hits"], counters["misses"]) == (1, 1)

    reset_artifacts()
    oracle = run_oracle(ResultStore(tmp_path / "oracle"))
    assert "replay_group" not in get_artifacts().stats()["kinds"]

    assert production == oracle
    tree = store_tree(tmp_path / "production")
    assert tree == store_tree(tmp_path / "oracle")
    # Run record per policy plus the shared baseline document.
    assert len(tree) == 3


def test_memory_store_documents_byte_identical(store_documents):
    production_store = ResultStore(None)
    production_records = run_production(production_store)

    reset_artifacts()
    oracle_store = ResultStore(None)
    assert run_oracle(oracle_store) == production_records

    production = store_documents(production_store)
    assert len(production) == 3
    assert production == store_documents(oracle_store)


@pytest.mark.parametrize("first", ["production-first", "oracle-first"])
def test_rerun_the_other_way_is_a_pure_store_hit(tmp_path, first):
    """Same records, same bytes, and no replay group formed on the
    rerun: every cell resolved from the store."""
    runs = [run_production, run_oracle]
    if first == "oracle-first":
        runs.reverse()
    root = tmp_path / "store"
    records = runs[0](ResultStore(root))
    tree = store_tree(root)

    reset_artifacts()
    assert runs[1](ResultStore(root)) == records
    assert store_tree(root) == tree
    assert "replay_group" not in get_artifacts().stats()["kinds"]
