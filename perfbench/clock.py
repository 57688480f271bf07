"""Wall-clock times rescaled to one host speed.

On a shared host the speed of one core drifts by 20-50 % over minutes, as
other tenants come and go; a run measures that drift along with the
library.  A Clock times a fixed calibration loop between timed sections,
and multiplies each section's time by REF_CAL_S over the mean of the
calibrations just before and just after it.

The loop does the kind of work the library does, multiply-adds in GF(p^2)
on a slotted class plus dict churn, but uses no library code, so a faster
library still reads faster.  Timed between strict recoveries for eight
minutes on a shared two-vCPU virtual machine (Python 3.11), it cut the
quartile spread of 30-second medians from 0.22 to 0.03 of their median; a
plain integer loop cut it only to 0.09.
"""

from time import perf_counter

CAL_REPS = 15
# seconds one calibration takes on an unloaded core of the host the
# benchmark was written on (Python 3.11); figures are in seconds of it
REF_CAL_S = 0.05


class _Fp2:
    __slots__ = ("a", "b")
    P = 1000003

    def __init__(self, a, b):
        self.a = a % self.P
        self.b = b % self.P

    def __mul__(self, o):
        return _Fp2(self.a * o.a - self.b * o.b, self.a * o.b + self.b * o.a)

    def __add__(self, o):
        return _Fp2(self.a + o.a, self.b + o.b)


def calibrate():
    """Seconds the calibration loop takes now."""
    t = perf_counter()
    for _ in range(CAL_REPS):
        x, y, seen = _Fp2(3, 5), _Fp2(7, 11), {}
        for i in range(3000):
            x = x * y + x
            seen[x.a, i & 255] = x
    return perf_counter() - t


class Clock:
    """Times sections, each followed by one calibration."""

    def __init__(self):
        self._cal = calibrate()

    def time(self, fn):
        """(fn(), wall seconds, reference seconds) of one call of fn."""
        before = self._cal
        t = perf_counter()
        out = fn()
        wall = perf_counter() - t
        self._cal = calibrate()
        return out, wall, wall * 2 * REF_CAL_S / (before + self._cal)
