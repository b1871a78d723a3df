"""Machine speed, measured by a fixed kernel next to each operation.

The host this benchmark was tuned on changes speed from moment to moment:
for spells of a fraction of a second to half a minute, all CPU work, the
program's and this kernel's alike, takes up to 1.8 times as long, process
CPU time included.  Raw round times then spread by a quarter of their
median between runs of the same code.  So the benchmark times the kernel at
every operation boundary and scales each operation's time by
``(REF_KERNEL_S / kernel time) ** SENSITIVITY``, where the kernel time is
the mean of the readings taken from one operation length before the
operation starts to one operation length after it ends (at least the
readings just before and just after it).  A scaled second is a second on a
machine where the kernel takes ``REF_KERNEL_S``.  The kernel is the
benchmark's own pure-Python loop: no change to the program can make it
faster or slower.
"""

from __future__ import annotations

import statistics
import time

# Near the kernel's time on an idle core of the 2-core reference machine
# (README.md); any fixed value would do, it only sets the unit.
REF_KERNEL_S = 0.005
KERNEL_ITERATIONS = 80_000
READINGS = 5
# Scaled time is raw time times (REF_KERNEL_S / kernel time) ** SENSITIVITY.
# The program slows less than this kernel when the host is busy: set-up by
# about the 0.8th power of the kernel's slowdown, an RTS24 sweep row by the
# 0.76th.  And the readings around a 20 s solve say little about the speed
# in its middle.  Scaled with exponents from 0 to 1, two sets of five to
# seven seeds per workload were steadiest between 0.5 and 0.8 (README.md,
# "Noise").
SENSITIVITY = 0.7


def kernel() -> int:
    total = 0
    for i in range(KERNEL_ITERATIONS):
        total += i * i % 7
    return total


def kernel_seconds() -> float:
    """Mean of ``READINGS`` timed kernel runs, about 25 ms in all.

    The mean, not the median: an operation's time sums the machine's
    slowness over its length, slow moments included.
    """
    t0 = time.perf_counter()
    for _ in range(READINGS):
        kernel()
    return (time.perf_counter() - t0) / READINGS


def scale(kernel_time: float) -> float:
    """The factor that turns raw seconds into scaled seconds."""
    return (REF_KERNEL_S / kernel_time) ** SENSITIVITY


class Meter:
    """Times operations between kernel readings and scales them.

    ``op(fn, *args)`` takes the last reading as the opening one (reading
    anew if there is none), runs ``fn`` and reads the kernel again; call
    ``read()`` after untimed work so the next opening reading is fresh.
    ``factor(span)`` gives the operation's scale factor once the readings
    after it are taken.  The readings are not part of the operations'
    times; ``overhead`` and ``overhead_cpu`` sum their wall and CPU time so
    a round's times can exclude them.
    """

    def __init__(self):
        self.readings: list[tuple[float, float]] = []   # (time, seconds)
        self.overhead = self.overhead_cpu = 0.0
        self._fresh = False

    def read(self) -> None:
        c0, t0 = time.process_time(), time.perf_counter()
        seconds = kernel_seconds()
        t1 = time.perf_counter()
        self.readings.append(((t0 + t1) / 2.0, seconds))
        self.overhead += t1 - t0
        self.overhead_cpu += time.process_time() - c0
        self._fresh = True

    def op(self, fn, *args, **kwargs):
        """``(result, wall, cpu, span)`` for ``fn(*args, **kwargs)``."""
        if not self._fresh:
            self.read()
        self._fresh = False
        first = len(self.readings) - 1
        c0, t0 = time.process_time(), time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        self.read()
        return result, wall, cpu, (first, t0, wall)

    def factor(self, span) -> float:
        """The scale factor for the mean reading near the operation."""
        first, start, wall = span
        near = [s for k, (t, s) in enumerate(self.readings)
                if k in (first, first + 1)
                or start - wall <= t <= start + 2.0 * wall]
        return scale(sum(near) / len(near))

    def slowdown(self) -> float:
        """Median kernel reading over the reference time."""
        return statistics.median(s for _, s in self.readings) / REF_KERNEL_S
