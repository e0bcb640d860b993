"""Test-session setup shared by the suite.

The pytest header names the BLAS setup.  The pinned `dynamics` digests hold
under any OpenBLAS thread count, because the solver and the Abel sweep run
numpy's products on one thread, but they hold for one kind of CPU and one
BLAS build: OpenBLAS and numpy pick their kernels by CPU at run time, and
another BLAS can round differently.

Hypothesis runs under a derandomized profile: every run draws the same
examples, so a failure reproduces from the test command alone, and a failing
test prints the blob that replays its example.  Runs no longer explore new
examples; the `@example` cases pin the inputs a test must always cover.
"""

import os

import pytest
from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, print_blob=True)
settings.load_profile("derandomized")


def _blas_name() -> str:
    """BLAS name and version numpy was built against, from ``numpy.__config__``."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 prints its config only
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def pytest_report_header(config):
    threads = ", ".join(f"{name}={os.environ.get(name, 'unset')}"
                        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    # sched_getaffinity is Linux-only; elsewhere count every CPU
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return [f"blas: {_blas_name()}; {threads}; cpu affinity: {cpus}"]


@pytest.fixture
def small_leaves(monkeypatch):
    """`site_spectrum` with 16-site leaves, so that boxes of a few dozen sites merge.

    Tests of the merge path set this themselves, so they keep running merges
    whatever leaf size the solver is tuned to.
    """
    from quasitrace import dynamics

    monkeypatch.setattr(dynamics, "_LEAF_SIZE", 16)
