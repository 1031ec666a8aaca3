"""Shared test fixtures."""

import os

import pytest


@pytest.fixture
def forks(monkeypatch):
    """Wraps ``os.fork`` to count the children this process makes.

    Returns the list of the pids of every child forked here, in order.
    """
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids
