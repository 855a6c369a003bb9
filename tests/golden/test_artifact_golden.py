"""Warm artifact cache vs emptied cache on a golden-suite grid.

The acceptance bar for the artifact cache is *byte identity*.  Serving
streams, baselines, and workload objects from the per-process cache
must change nothing about what lands in the store — not a float, not a
byte, not a file.  This runs a 2-policy × 2-load sweep (the Ubik and
LRU cells of the pinned ``tests/golden`` grid, at both loads) into two
fresh store roots: once as one warm batch, and once spec by spec with
the cache emptied before each spec, as a fresh process per spec would
run it.  The records and the store *trees* — every file, every byte —
must match.  Because both loads share a batch, a stream or baseline
key that dropped an input the artifact depends on would serve one
load's artifact to the other and fail this test.
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

#: A 2-policy × 2-load sweep over the golden grid's (masstree, nft)
#: mix, across policies so the run shares baselines and streams the
#: way a real sweep does.
GOLDEN_SPECS = [
    RunSpec(
        mix=MixRef(lc_name="masstree", load=load, combo="nft"),
        policy=policy,
        requests=60,
    )
    for load in (0.2, 0.6)
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


def run_sweep(root):
    """The sweep into a store as one batch; returns its records."""
    return Session(store=ResultStore(root)).run_many(GOLDEN_SPECS)


@pytest.fixture(autouse=True)
def _fresh_artifacts():
    """Every test starts and ends with an empty cache."""
    reset_artifacts()
    yield
    reset_artifacts()


def test_warm_batch_and_reset_per_spec_store_trees_byte_identical(tmp_path):
    warm_root = tmp_path / "warm"
    reset_root = tmp_path / "reset-per-spec"

    warm_records = run_sweep(warm_root)
    # The warm batch must actually have shared artifacts across its
    # cells, or this test proves nothing.
    stats = get_artifacts().stats()["kinds"]
    assert stats["stream"]["hits"] > 0
    assert stats["baseline"]["misses"] == 2
    assert stats["replay_group"] == {"hits": 2, "misses": 2, "entries": 0}

    reset_records = []
    for spec in GOLDEN_SPECS:
        reset_artifacts()
        reset_records += Session(store=ResultStore(reset_root)).run_many([spec])

    assert warm_records == reset_records
    warm_tree = store_tree(warm_root)
    assert warm_tree == store_tree(reset_root)
    # Run record per cell plus one shared baseline document per load.
    assert len(warm_tree) == 6


def test_warm_process_rerun_is_a_pure_store_hit(tmp_path):
    """Re-running the sweep in the same (artifact-warm) process serves
    everything from the store without writing a byte."""
    root = tmp_path / "store"
    first = run_sweep(root)
    tree = store_tree(root)
    again = run_sweep(root)
    assert again == first
    assert store_tree(root) == tree
