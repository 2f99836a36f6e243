"""Wall time rescaled to a fixed host speed, probed only while the program is idle.

On a shared 2-core virtual machine (Intel Xeon, Python 3.11) this code runs up to
1.7x slower in phases that last from under a second to minutes.  Process
CPU time tracks wall time through them (correlation 0.9999), so the
slowdown comes from the host, not from the scheduler.  Raw wall times of
30-second runs then spread by 10-35% between runs.

:class:`HostClock` samples the host's speed while the program runs: a
``SIGALRM`` handler runs a fixed pure-Python loop every 25 ms in the main
thread and records how long the loop took.  The host's speed in a sample
is ``REFERENCE_PROBE_S`` over the loop's time, and an interval's time is
multiplied by the mean speed of the samples in it, raised to
``SENSITIVITY``: an estimate of the time it would take at the reference
speed.

A sample counts only while nothing of the program runs beside the probe:
the handler pauses the program's Python code, and a sample is dropped when
the process has a child process, or when another of its threads (a BLAS
worker, say) used CPU during the loop.  So the program's own concurrency
or contention can never pass for a slow host; an interval without a valid
sample takes the latest one before it.  Probe bursts only at stage
boundaries were tried instead and do not work on that machine: the host's
speed changes within a stage, and the mean of the two boundary bursts
correlated only 0.45 with a bootstrap-heavy stage's time, against 0.94 for
the samples taken during it.
"""

from __future__ import annotations

import os
import signal
import time

#: Probe period in seconds.
PERIOD_S = 0.025
#: Probe time on a quiet core of the machine above; it only sets the scale.
REFERENCE_PROBE_S = 2.0e-4
#: Program slowdown as a power of probe slowdown (see ``README.md``).
SENSITIVITY = 1.25
#: A probe longer than this many reference times was preempted, not slowed.
_CLIP = 4.0
#: Other threads' CPU time, as a share of the probe's, that voids a sample.
_BUSY = 0.05


def _probe_kernel() -> int:
    total = 0
    for i in range(3000):
        total += i * i % 7
    return total


def _has_children() -> bool:
    """Whether the process has a child, running or exited; reaps nothing."""
    try:
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
    except ChildProcessError:
        return False
    return True


class HostClock:
    """Times intervals in seconds at a fixed host speed."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.dropped = 0
        #: Seconds spent in the probe handler so far.
        self.probe_s = 0.0
        self._running = False

    def _probe(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        if _has_children():
            self.dropped += 1
        else:
            thread0, process0 = time.thread_time(), time.process_time()
            start = time.perf_counter()
            _probe_kernel()
            took = time.perf_counter() - start
            others = (time.process_time() - process0) - (time.thread_time() - thread0)
            if others > _BUSY * took:
                self.dropped += 1
            else:
                self.samples.append(min(took, _CLIP * REFERENCE_PROBE_S))
        self.probe_s += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._running = True

    def stop(self) -> None:
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._running = False

    def mark(self) -> tuple[float, int, float]:
        return time.perf_counter(), len(self.samples), self.probe_s

    def elapsed(self, mark: tuple[float, int, float]) -> tuple[float, float]:
        """(raw, rescaled) seconds since ``mark``.

        The program's share of the interval (its time less the probes')
        is scaled by the host's mean speed over the interval.  An interval
        without a valid sample uses the latest one before it; with none at
        all the time is left raw.
        """
        t0, first, probe_s = mark
        raw = time.perf_counter() - t0
        program = raw - (self.probe_s - probe_s)
        probes = self.samples[first:] or self.samples[-1:]
        if not probes:
            return raw, raw
        speed = sum(REFERENCE_PROBE_S / p for p in probes) / len(probes)
        return raw, program * speed**SENSITIVITY
