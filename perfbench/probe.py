"""Host-speed probe: the CPU time of a fixed Python loop, every 20 ms.

A shared host changes speed by up to 1.8x, for every process on it at
once, both from one second to the next and for tens of seconds at a
time.  A run that falls in a slow period then reads up to 1.8x slower,
and ten runs spread by more than any useful bound.  A thread in the
benchmark process times the same small loop throughout the run, and
the wall time of each set-up and operation is scaled by ``REFERENCE_S /
(median loop time over that interval)``.

The loop is timed in the thread's own CPU time, not in wall time.  So
the time the thread waits for a CPU while the workload's processes run,
or for the GIL while the in-process campaign client runs, does not
count: the probe measures how fast the CPU executes while it runs, not
how much of the CPU the workload leaves free.  A change that makes a
command use more or fewer CPUs does not move the scale factor.  (What
a busy sibling CPU still does to the loop's speed was below the host's
own noise: with 0, 1 and 2 busy processes beside it the loop's median
CPU time over eight 2-second rounds each was 1.57, 1.66 and 1.59 ms.)
"""

import statistics
import threading
import time

#: Median probe loop time on the host the reference speed refers to
#: (2-vCPU x86_64 VM, Python 3.11, typical load).
REFERENCE_S = 1.5e-3
INTERVAL_S = 0.02
_ITERATIONS = 20000


class HostProbe:
    """Samples ``(monotonic time, loop CPU seconds)`` until closed."""

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="host-probe",
                                        daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._stop.set()
        self._thread.join()

    def _run(self):
        while not self._stop.wait(INTERVAL_S):
            start = time.thread_time()
            total = 0
            for value in range(_ITERATIONS):
                total += value * value
            self.samples.append((time.monotonic(),
                                 time.thread_time() - start))

    def median(self, start, end):
        """Median loop time over ``[start, end]``, widened to >= 5 samples."""
        pad = 0.0
        while True:
            inside = [seconds for when, seconds in self.samples
                      if start - pad <= when <= end + pad]
            if len(inside) >= 5 or pad > 10.0:
                return statistics.median(inside) if inside else REFERENCE_S
            pad += 0.5
