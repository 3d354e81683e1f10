"""Machine-speed probe: timings that do not drift with a shared machine.

On a shared machine the same work takes up to half as long again in a
busy phase as in a quiet one, and the phases last from seconds to many
minutes, longer than a run.  CPU time tracks wall time, so the cause is
contention for the hardware, not scheduling.  The probe measures that
drift directly: ``probe()`` times a fixed mix of pure-Python integer work,
complex scalar math and small numpy array work, none of it fse code, so no
change to fse can move it.  The timed loop runs it every PROBE_EVERY_S and
scales each point's latency by PROBE_REF_S over the mean of the two probes
around the point.  A scaled time reads as on the reference machine in a
quiet phase.  The raw wall-clock figures stay in the run record.
"""

from __future__ import annotations

import cmath
import math
from time import perf_counter

import numpy as np

# probe() on an x86_64 2-core machine in a quiet phase (Python 3.11.7,
# numpy 2.4.6); it only fixes the scale of the scaled times
PROBE_REF_S = 0.0115
PROBE_EVERY_S = 0.25


def _integer_loop():
    s = 0
    for i in range(40000):
        s += i * i % 7
    return s


def _complex_scalars():
    z, acc = 0.3 + 0.2j, 0j
    for i in range(6000):
        acc += cmath.exp(z * i * 1e-4) * cmath.log(z + i) + math.lgamma(1.5 + i * 1e-3)
    return acc


def _small_arrays():
    a = np.linspace(0.0, 1.0, 64) + 0j
    for _ in range(600):
        a = a + np.sum(np.exp(a * 1j) * a) * 1e-9
    return a


def probe() -> float:
    """Wall time of one pass of the three kernels."""
    t0 = perf_counter()
    _integer_loop()
    _complex_scalars()
    _small_arrays()
    return perf_counter() - t0


class Scaler:
    """Probes taken between points of a timed loop, and the scale factor
    of every point from the probes on either side of it."""

    def __init__(self):
        self.done = 0
        self.marks = [(0, probe())]     # (points done, probe seconds)
        self.last = perf_counter()

    def after(self, now: float) -> None:
        """Call after each point, with the time it ended; probes when due."""
        self.done += 1
        if now - self.last >= PROBE_EVERY_S:
            self.marks.append((self.done, probe()))
            self.last = perf_counter()

    def factors(self) -> list[float]:
        """Scale factor of every point so far (closes the last stretch)."""
        if self.marks[-1][0] < self.done:
            self.marks.append((self.done, probe()))
        out = []
        for (lo, before), (hi, after) in zip(self.marks, self.marks[1:]):
            out += [scaled(1.0, before, after)] * (hi - lo)
        return out


def scaled(seconds: float, before: float, after: float) -> float:
    """One timing scaled by the probes taken just before and after it."""
    return seconds * 2.0 * PROBE_REF_S / (before + after)
