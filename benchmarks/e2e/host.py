"""Host noise control: CPU pinning and the speed calibration kernel.

On the shared two-core sandbox this benchmark was sized on, identical
code runs up to twice as fast from one second to the next (no steal time
is reported; the cores themselves slow down), and a closed loop that
bounces between two cores pays a wake-up on every hop.  Two measures:

* everything — harness, client, launchers — is pinned to one CPU, which
  removes the cross-core wake-ups (about 2x on the shortest requests) and
  costs nothing, since a closed loop with one client never has two
  things to do at once;
* every timed stretch is bracketed by runs of a fixed calibration kernel
  (:class:`Calibrator`) and scaled to what it would have taken at
  ``REF_OPS_PER_S``.  The kernel shares no code with the system under
  test, so a change to the system cannot move it.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from typing import List, Optional

import numpy as np

#: Kernel speed all timings are scaled to: about what this sandbox
#: reaches when undisturbed, so scaled and raw values agree on a quiet host.
REF_OPS_PER_S = 4500.0

CALIBRATION_S = 0.1


def pin_to_one_cpu() -> Optional[int]:
    """Pin this process (children inherit) to its lowest allowed CPU."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def scale(before: float, after: float, exponent: float) -> float:
    """What to multiply a duration by (divide a rate by), given the host
    factors measured either side of it.  ``exponent`` is the workload's
    ``host_exponent``: how strongly its speed follows the kernel's."""
    return ((before + after) / 2) ** exponent


class Calibrator:
    """Measures how fast the host is right now.

    One kernel operation mixes what the request path is made of: a small
    numpy sort, a JSON round trip, and ``ECHOES`` wake-up round trips to
    another thread over a socket pair (syscalls and context switches are
    slowed differently from user-mode compute by a busy host, and the
    shortest requests are mostly those).
    """

    ECHOES = 4

    def __init__(self) -> None:
        self._a = np.random.default_rng(0).random(4096)
        self._doc = {"readings": [{"x": float(v), "y": float(v)} for v in self._a[:64]]}
        self._near, self._far = socket.socketpair()
        self._echo = threading.Thread(target=self._echo_loop, daemon=True)
        self._echo.start()
        self.readings: List[float] = []  # every factor handed out

    def _echo_loop(self) -> None:
        try:
            while data := self._far.recv(256):
                self._far.sendall(data)
        except OSError:
            pass  # closed under us: the calibrator is done

    def close(self) -> None:
        self._near.close()  # the echo thread sees end of stream and returns
        self._echo.join(timeout=5.0)
        self._far.close()

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def factor(self, seconds: float = CALIBRATION_S) -> float:
        """Host speed as a share of the reference."""
        a, doc, near = self._a, self._doc, self._near
        ping = b"x" * 120
        ops = 0
        start = time.perf_counter()
        while (now := time.perf_counter()) - start < seconds:
            float(np.sort(a * 1.0001).sum())
            json.loads(json.dumps(doc))
            for _ in range(self.ECHOES):
                near.sendall(ping)
                near.recv(256)
            ops += 1
        value = ops / (now - start) / REF_OPS_PER_S
        self.readings.append(value)
        return value
