"""Fixtures shared by the test modules."""

import os
import signal
import sys
import threading

import pytest

from aqss.random import cores


@pytest.fixture
def pin_cores(monkeypatch):
    """pin_cores(k) makes random.cores() report k cores. Threads switch every
    microsecond, a pass over a stack that hangs is stopped after 60 s, and
    every thread it started is gone afterwards."""

    def pin(k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))
        assert cores() == k

    def hung(signum, frame):
        raise TimeoutError("the pass hung")

    threads = threading.active_count()
    previous = signal.signal(signal.SIGALRM, hung)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    signal.alarm(60)
    try:
        yield pin
    finally:
        signal.alarm(0)
        sys.setswitchinterval(interval)
        signal.signal(signal.SIGALRM, previous)
    assert threading.active_count() == threads
