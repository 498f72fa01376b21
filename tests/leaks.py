"""What a test leaves open: file descriptors and running threads.

The counting behind ``conftest.leak_check`` (one test) and the process
suite's module-wide check (a module's pools).
"""

from __future__ import annotations

import gc
import os
import threading

_FD_DIR = "/proc/self/fd"


def open_resources():
    """``(open file descriptors, running threads)`` of this process,
    counted after a collection so what was dropped is gone, or ``None``
    where ``/proc`` is absent."""
    if not os.path.isdir(_FD_DIR):
        return None
    gc.collect()
    return len(os.listdir(_FD_DIR)), threading.active_count()


def assert_released(before) -> None:
    """No more file descriptors open and threads running than
    :func:`open_resources` counted in ``before`` (nothing where it
    counted nothing)."""
    if before is None:
        return
    fds, threads = open_resources()
    assert fds <= before[0], "the test left file descriptors open"
    assert threads <= before[1], "the test left threads running"
