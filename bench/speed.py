"""Machine-speed probe: the yardstick the timing metrics are scaled by.

The benchmark shares a few cores of its host with other tenants, and the
host's speed drifts: a fixed loop runs half as fast again, or slower still,
for stretches of seconds to minutes.  Raw wall times of a 50 s run then
spread across runs by more than any useful regression bound.  So a probe, a
fixed numpy loop that depends on nothing in ``enkfcontrol``, is timed right
before and right after each verb (and each set-up sample), and the wall
time is scaled by ``NOMINAL_S`` over the mean of those two probes.  A scaled
time is the wall time at the host speed where the probe takes
``NOMINAL_S``; a change to the program moves it as it moves the wall time,
while drift in the host's speed largely cancels.

The probe mixes the two kinds of work the program does: a Python loop of
small matrix-vector steps like the closed-loop rollout, and tall-skinny
matrix products like the EnKF's ensemble updates.
"""

from __future__ import annotations

import time

import numpy as np

# Median probe time on the 2-vCPU Intel Xeon VM the bounds were measured on,
# with OpenBLAS 0.3.31 pinned to one thread.  Only a scale: any constant
# gives the same run-to-run spread.
NOMINAL_S = 0.1

SMALL_STEPS = 2000
GEMM_REPS = 30


class Probe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal(100)
        self.A = rng.standard_normal((100, 100)) / 10.0
        self.E = rng.standard_normal((2000, 100))

    def __call__(self) -> float:
        """Run the probe once and return its wall time in seconds."""
        t0 = time.perf_counter()
        y = self.x
        for _ in range(SMALL_STEPS):
            Ay = self.A @ y
            y = 0.5 * Ay / np.linalg.norm(Ay) + 0.1 * np.roll(y, 1)
        for _ in range(GEMM_REPS):
            self.E @ (self.E.T @ self.E)
        return time.perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` of wall time, scaled to the host speed where a probe takes NOMINAL_S."""
    return seconds * NOMINAL_S / (0.5 * (before + after))
