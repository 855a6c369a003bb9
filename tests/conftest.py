"""Test-suite isolation for the persistent result store.

The runtime's default ``Session`` persists results under
``~/.cache/repro-ubik`` so real experiment processes share work.  The
test suite must stay hermetic: point the store at a throwaway
directory for the whole session unless the environment explicitly
chose one (the CI workflow does, to exercise cross-process reuse).
"""

import os

import pytest


@pytest.fixture(scope="session", autouse=True)
def _isolated_result_store(tmp_path_factory):
    if os.environ.get("REPRO_CACHE_DIR") or os.environ.get("REPRO_STORE"):
        yield
        return
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("repro-store"))
    try:
        yield
    finally:
        os.environ.pop("REPRO_CACHE_DIR", None)


@pytest.fixture
def forbid_evaluation(monkeypatch):
    """A switch that makes evaluating any spec fail the test.

    Once called, an in-process batch holding a spec and any process-pool
    construction both raise, so a batch can only be served from its
    store.
    """
    import concurrent.futures

    from repro.runtime import session

    def refuse_batch(specs, *args, **kwargs):
        specs = list(specs)
        if specs:
            raise AssertionError(f"{len(specs)} spec(s) were evaluated")
        return []

    def refuse_pool(*args, **kwargs):
        raise AssertionError("a process pool was built")

    def forbid():
        monkeypatch.setattr(session, "execute_specs", refuse_batch)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse_pool)

    return forbid
