"""Test-suite isolation for the persistent result store.

The runtime's default ``Session`` persists results under
``~/.cache/repro-ubik`` so real experiment processes share work.  The
test suite must stay hermetic: point the store at a throwaway
directory for the whole session unless the environment explicitly
chose one (the CI workflow does, to exercise cross-process reuse).
"""

import os
import subprocess
import sys
from pathlib import Path

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


@pytest.fixture(scope="session")
def store_documents():
    """``documents(store)``: ``{fingerprint: document text}`` for all a
    store holds, read through ``store.fingerprints()``: a directory
    store's file texts, a memory store's documents as the canonical
    JSON a directory store would write.  Two stores holding the same
    corpus map equal, whichever kind each is."""
    from repro.runtime.spec import canonical_json

    def documents(store):
        if store.root is None:
            return {fp: canonical_json(store.get(fp)) for fp in store.fingerprints()}
        return {fp: store.document_path(fp).read_text() for fp in store.fingerprints()}

    return documents


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


@pytest.fixture
def fresh_interpreter():
    """Run ``python -X importtime ARGS`` in a new interpreter.

    The child finds ``repro`` on its path and inherits the environment
    plus ``env``.  Returns its stdout and, sorted, every module it
    imported that is one of the names in ``watch`` or sits under one,
    read from the import-time log on its stderr.
    """
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])

    def run(*args, watch, env=None):
        child_env = dict(os.environ, **(env or {}))
        child_env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, child_env.get("PYTHONPATH")) if p
        )
        done = subprocess.run(
            [sys.executable, "-X", "importtime", *args],
            env=child_env,
            capture_output=True,
            text=True,
            check=True,
        )
        imported = {
            line.rsplit("|", 1)[1].strip()
            for line in done.stderr.splitlines()
            if line.startswith("import time:")
        }
        return done.stdout, sorted(
            m
            for m in imported
            if any(m == w or m.startswith(w + ".") for w in watch)
        )

    return run
