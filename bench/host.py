"""How fast the host runs right now, read from a fixed reference loop.

On a shared virtual host the CPU time of the same work swings by a third
from one minute to the next, as other guests load the machine.  The
compute stages divide their CPU time by the slowdown read just before and
just after each piece of work, which turns it into CPU seconds at the
reference machine's speed.  The reference loop is benchmark code, so a
change to the package moves the stage's time and not the divisor.
"""

from __future__ import annotations

import time

import numpy as np

# CPU seconds of one reference_loop on the reference machine (bench/README.md):
# over 90 s of readings there, 2.8 ms at the 10th percentile, 3.5 ms at the median
REFERENCE_S = 3.2e-3
CALLS = 3  # reference loops per reading

_POINTS = np.random.default_rng(0).random((60, 2)) * 1000.0


def reference_loop() -> float:
    """Fixed work in the mix of the package's hot paths: pairwise distances
    over small numpy arrays, as in link detection, and interpreted float
    arithmetic, as in mobility."""
    x = 0.0
    for _ in range(20):
        d = _POINTS[:, None, :] - _POINTS[None, :, :]
        x += float(((d * d).sum(-1) <= 2500.0).sum())
        for i in range(60):
            x += _POINTS[i, 0] * 0.5 if i & 1 else -_POINTS[i, 1]
    return x


def slowdown() -> float:
    """CPU time of a reference loop now over its time on the reference
    machine: 1.25 means this host runs a quarter slower at the moment."""
    started = time.process_time()
    for _ in range(CALLS):
        reference_loop()
    return (time.process_time() - started) / CALLS / REFERENCE_S
