"""In-process calibration against the host's drifting CPU speed.

On a 2-vCPU Intel Xeon virtual machine with Python 3.11 the same
pure-Python work ran up to 1.8 times slower for minutes at a time; CPU time
drifted with wall time, and a loop on the other vCPU did not follow the
drift.  So each op process runs a small fixed loop, shaped like the
polynomial kernel (a sparse product over a dict of exponent tuples and
Fractions), from a real-time interval timer on its own thread of execution:
the loop sees the speed the op sees, while the op runs.  The mean loop speed
during the import and during the op give the factors that turn the
measured seconds of each phase into reference seconds; the loop's own time
is taken out first.  In five identities runs the factor cut the quartile
spread of wall_s from 0.15 to 0.03 of the median.

The loop lives in the benchmark, not in sphere_sos, so that no change to the
program can change the yardstick.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

# Reference time of one unit; it took 0.25-0.55 ms on the machine above.
REF_UNIT_S = 0.0004
INTERVAL_S = 0.04  # about 1% of the op's time goes to the loop
# Import takes only about 0.15 s, so it is probed more densely.
IMPORT_INTERVAL_S = 0.005

_P = {(i % 3, i % 4, i % 2): Fraction(i + 1, 7 + i) for i in range(8)}


def unit() -> dict:
    out: dict = {}
    for e1, c1 in _P.items():
        for e2, c2 in _P.items():
            key = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            s = out.get(key, Fraction(0)) + c1 * c2
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


class Probe:
    """Runs unit() on every SIGALRM tick and keeps count of units and time."""

    def __init__(self):
        self.units = 0
        self.seconds = 0.0

    def start(self, interval: float = INTERVAL_S) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        unit()
        self.seconds += time.perf_counter() - t0
        self.units += 1


def factor(units: int, seconds: float) -> float:
    """Reference seconds per measured second at the probed speed."""
    return REF_UNIT_S * units / seconds
