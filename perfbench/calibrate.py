"""Speed calibration for wall times measured on a shared machine.

On a shared host the same pure-Python work runs up to twice as slowly
for stretches of seconds.  A run that lands in a slow stretch then
reads slower everywhere, and no statistic within the run removes that.
The benchmark therefore times a fixed pure-Python loop before, between
and after the operations it measures.  It reports each operation's
time scaled to a host on which that loop takes exactly
:data:`REFERENCE_S`:

    scaled = measured * REFERENCE_S / median(loops within 1 s of the operation)

The loop is interpreter-bound dict work, like the certifier's own.
Each CPU of a shared host slows on its own, so the measured process
(and the loop with it) is pinned to one CPU.  The raw, unscaled medians
are printed beside the metrics.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import time
from typing import Callable, Iterator, List, Tuple

#: the loop's duration on the reference host (a quiet core of a 2 GHz
#: x86-64 Xeon, Python 3.11)
REFERENCE_S = 0.004

_ITERATIONS = 30000


def cpu_pair() -> Tuple[int, int]:
    """(CPU for the measured work, CPU for the load generator): the
    first and the last CPU this process may run on."""
    if not hasattr(os, "sched_getaffinity"):
        return 0, 0
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[0], allowed[-1]


def pin(cpu: int) -> None:
    """Keep this process, and the threads and children it starts
    afterwards, on one CPU (a no-op where affinity is unsupported)."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {cpu})


@contextlib.contextmanager
def pinned(cpu: int) -> Iterator[None]:
    """:func:`pin` for the duration of the block."""
    if not hasattr(os, "sched_getaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    pin(cpu)
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def loop_seconds(clock: Callable[[], float] = time.perf_counter) -> float:
    """Time one run of the calibration loop on ``clock``."""
    started = clock()
    table: dict = {}
    for index in range(_ITERATIONS):
        key = index & 255
        table[key] = table.get(key, 0) + index
    return clock() - started


class Calibrator:
    """Timestamped calibration loops, and the scale factor they give
    for any measured interval.

    ``clock`` timestamps the loops and must be the clock the measured
    intervals use; ``loop_clock`` times the loop itself.  A thread that
    shares the interpreter with busy threads times the loop on its own
    CPU clock (``time.thread_time``), so waiting for the interpreter
    lock does not read as a slow host."""

    #: loops this close (seconds) to an interval's ends count for it
    MARGIN_S = 1.0

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        loop_clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.clock = clock
        self.loop_clock = loop_clock
        self.samples: List[Tuple[float, float]] = []

    def sample(self) -> None:
        self.samples.append((self.clock(), loop_seconds(self.loop_clock)))

    def factor(self, start: float, end: float) -> float:
        """Scale for a wall time measured from ``start`` to ``end``."""
        near = [
            seconds
            for at, seconds in self.samples
            if start - self.MARGIN_S <= at <= end + self.MARGIN_S
        ]
        if not near:
            raise ValueError("no calibration loop near the interval")
        return REFERENCE_S / statistics.median(near)
