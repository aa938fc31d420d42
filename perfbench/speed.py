"""Host-speed probe: scales measured times to a reference machine speed.

The shared host this benchmark runs on changes speed by 20-50 % over
seconds to minutes, for every process alike, so raw wall-clock times of
one workload spread more between runs than any code change worth
measuring.  While a workload runs, ``python3 perfbench/speed.py FILE``
runs beside it: every 30 ms it times a fixed pure-Python loop (~1 ms)
by its own CPU time, which excludes waiting for a CPU -- so the
workload's own load does not slow the probe -- but includes the host's
slowdown.  A time measured over a window is reported as

    raw * REFERENCE_PROBE_S / median(probe CPU time inside the window)

that is, as it would read on a host where the probe takes
``REFERENCE_PROBE_S``.  The raw values are printed beside the scaled
ones.
"""

from __future__ import annotations

import bisect
import json
import signal
import statistics
import subprocess
import sys
import time

#: Probe CPU time on the reference host (2-vCPU VM at 2.1 GHz, Python
#: 3.11); only sets the scale of the reported times.
REFERENCE_PROBE_S = 1.2e-3
PERIOD_S = 0.03


def _probe_loop(path: str) -> None:
    samples = []
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    while not stop:
        start = time.perf_counter()
        cpu = time.process_time()
        total = 0
        for i in range(20_000):
            total += i * i
        samples.append((start, time.process_time() - cpu))
        time.sleep(PERIOD_S)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(samples, handle)


class Speed:
    """A running probe; :meth:`stop` returns its samples."""

    def __init__(self, path) -> None:
        self.path = path
        self.proc = subprocess.Popen([sys.executable, __file__, str(path)])
        self.samples: list = []
        self._times: list = []

    def stop(self) -> None:
        self.proc.terminate()
        self.proc.wait(timeout=30)
        with open(self.path, encoding="utf-8") as handle:
            self.samples = json.load(handle)
        self._times = [t for t, _d in self.samples]

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_PROBE_S / the median probe time in [start, end]
        (the whole run's when the window holds under five samples)."""
        lo = bisect.bisect_left(self._times, start)
        hi = bisect.bisect_right(self._times, end)
        inside = [d for _t, d in self.samples[lo:hi]]
        if len(inside) < 5:
            inside = [d for _t, d in self.samples]
        if not inside:
            return 1.0
        return REFERENCE_PROBE_S / statistics.median(inside)

    def factor_at(self, moment: float, half_width: float = 1.0) -> float:
        """The factor of the two seconds around ``moment``."""
        return self.factor(moment - half_width, moment + half_width)


if __name__ == "__main__":
    _probe_loop(sys.argv[1])
