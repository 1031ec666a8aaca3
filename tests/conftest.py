"""Shared test fixtures."""

import concurrent.futures

import pytest


@pytest.fixture
def recording_pool(monkeypatch):
    """Replaces the process pool with one that maps in this process.

    Returns the list of (max_workers, start method) of every pool built.
    """
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers, mp_context):
            sizes.append((max_workers, mp_context.get_start_method()))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes
