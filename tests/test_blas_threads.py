"""Importing ``repro`` keeps NumPy's BLAS to one thread.

Nothing in the package calls BLAS, but on a host with two or more free
CPUs importing NumPy starts an OpenBLAS worker thread that spins for a
while.  The package root sets ``OPENBLAS_NUM_THREADS=1`` unless the
environment already names a value.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

THREADS = "import os; print(len(os.listdir('/proc/self/task')))"


def run_python(code, **env):
    """Run ``code`` in a fresh interpreter that finds ``repro`` and
    takes ``OPENBLAS_NUM_THREADS`` from ``env`` alone; its stdout."""
    child_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    child_env.update(env, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=child_env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return done.stdout.strip()


def test_importing_repro_first_starts_no_blas_worker():
    if not os.path.isdir("/proc/self/task") or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs /proc and at least two CPUs")
    if run_python(f"import numpy; {THREADS}") == "1":
        pytest.skip("this NumPy's BLAS starts no worker thread")
    assert run_python(f"import repro, numpy; {THREADS}") == "1"


def test_an_explicit_blas_setting_wins():
    code = "import os, repro, numpy; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert run_python(code, OPENBLAS_NUM_THREADS="2") == "2"
