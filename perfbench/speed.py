"""Machine-speed references, for times that hold still on a shared host.

On a shared virtual machine the speed of the same code drifts by 20 % and
more within minutes, as other tenants come and go. A fixed piece of work of
the same kind, timed right before and right after each measurement, drifts
with it: a fixed numpy computation for the solve, a fresh interpreter that
imports numpy for the set-up. A time divided by its reference's time and
multiplied by the reference's time on the machine described in README.md
reads in seconds of that machine at the reference's usual speed.
"""

import subprocess
import sys
import time

import numpy as np

# The references' times, rounded, on the machine described in README.md:
# one call of the compute reference, one spawn reference.
COMPUTE_CALL_S = 0.0006
SPAWN_REFERENCE_S = 0.16

SPAWN_ARGV = (sys.executable, "-c", "import time, numpy; print(time.monotonic())")


class ComputeReference:
    """Softmax, a weighted sum and a smoothed TV over (4, 128, 128) arrays:
    the mix of work an msvar iteration does."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.z = rng.random((4, 128, 128))
        self.f = rng.random((128, 128))
        self.per_call(0.05)  # first calls set up numpy's caches

    def per_call(self, window):
        """Mean seconds per call, over calls that fill at least `window` seconds."""
        calls = 0
        start = time.perf_counter()
        while True:
            e = np.exp(self.z - self.z.max(axis=0))
            y = e / e.sum(axis=0)
            gx = np.diff(self.f, axis=1)
            gy = np.diff(self.f, axis=0)
            float(np.sqrt(gx[:-1] ** 2 + gy[:, :-1] ** 2 + 1e-4).sum() + (y * self.z).sum())
            calls += 1
            elapsed = time.perf_counter() - start
            if elapsed >= window:
                return elapsed / calls


def spawn_seconds(argv=SPAWN_ARGV):
    """Seconds from starting a process until it prints time.monotonic() as its last word."""
    start = time.monotonic()
    proc = subprocess.run(list(argv), capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1]) - start


def normalised(seconds, before, after, reference_s):
    """A measured time scaled by the reference times taken around it."""
    return seconds * reference_s / ((before + after) / 2.0)
