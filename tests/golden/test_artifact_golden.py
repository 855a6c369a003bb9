"""Artifact-cache-on vs -off determinism on a golden-suite grid.

The acceptance bar for the artifact cache is *byte identity*.  Serving
streams, baselines, and workload objects from the per-process cache
must change nothing about what lands in the store — not a float, not a byte, not a file.  This runs a
two-policy sweep (the Ubik and LRU cells of the pinned ``tests/golden``
grid) into fresh store roots with the cache enabled and disabled and
compares the resulting store *trees* — every file, every byte.
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

#: A 2-policy sweep over the golden grid's (masstree, low-load, nft)
#: mix, across policies so the run shares a baseline and streams the
#: way a real sweep does.
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


def run_sweep(root):
    """The 2-policy sweep into a fresh store; returns its records."""
    return Session(store=ResultStore(root)).run_many(GOLDEN_SPECS)


@pytest.fixture(autouse=True)
def _fresh_artifacts(monkeypatch):
    """Empty cache, enabled regardless of the invoking environment —
    the cache-off arm is pinned explicitly via ``disabled()``."""
    monkeypatch.delenv("REPRO_ARTIFACTS", raising=False)
    reset_artifacts()
    yield
    reset_artifacts()


def test_cache_on_and_cache_off_store_trees_byte_identical(tmp_path):
    on_root = tmp_path / "artifacts-on"
    off_root = tmp_path / "artifacts-off"

    on_records = run_sweep(on_root)
    # The cached sweep must actually have exercised the cache, or this
    # test proves nothing.
    stats = get_artifacts().stats()["kinds"]
    assert stats["stream"]["hits"] > 0
    assert stats["baseline"]["misses"] == 1

    reset_artifacts()
    with get_artifacts().disabled():
        off_records = run_sweep(off_root)

    assert on_records == off_records
    on_tree = store_tree(on_root)
    assert on_tree == store_tree(off_root)
    # Run record per policy plus the shared baseline document.
    assert len(on_tree) == 3


def test_warm_process_rerun_is_a_pure_store_hit(tmp_path):
    """Re-running the sweep in the same (artifact-warm) process serves
    everything from the store without writing a byte."""
    root = tmp_path / "store"
    first = run_sweep(root)
    tree = store_tree(root)
    again = run_sweep(root)
    assert again == first
    assert store_tree(root) == tree
