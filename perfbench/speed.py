"""Machine-speed probe for timing on a shared, noisy host.

On a small shared box the speed of one core drifts by up to 2x over
seconds to minutes (other tenants on sibling hardware threads), so raw
wall times of identical work spread far wider than any useful bound. A
reference computation timed in the same process while the work runs
slows down with it, so dividing by it cancels the drift.

:class:`SpeedProbe` interrupts the timed work every ``interval`` seconds
(``SIGALRM``; Python runs the handler between bytecodes) and times a
fixed pure-Python reference loop, :func:`probe`. Probe time is excluded
from the measured time.

Stretches of work between two probes are of two kinds. A stretch of at
most ``NATIVE_FACTOR`` intervals is interpreter work, possibly with short
native calls, and is scaled by one factor for the whole body,
``REF_PROBE_S`` over the median probe, giving seconds at the reference
speed. The median, not the probes on either side of each stretch, sets
the factor because a single probe can land on a passing disturbance. A
longer stretch means one long call into native code (a dense eigensolver,
say) held the handler off; it counts at its raw duration, because the
interpreter probe does not predict the speed of such calls: on the
reference machine, scaling the native stretches of ``oracles`` bodies by
the probe raised that workload's wall-time spread (IQR over median,
across seeds) from 0.08-0.16 to 0.19-0.3. ``REF_PROBE_S`` is the
median probe on the reference machine, so at its typical speed both kinds
of stretch read raw seconds and moving work from one kind to the other
does not by itself move the total. The probe cannot tell host drift from
a slowdown the measured program causes itself, so the raw time is kept
alongside.
"""

from __future__ import annotations

import bisect
import itertools
import signal
import statistics
import time

#: median duration of :func:`probe` on the reference machine (2-vCPU
#: Xeon box, CPython 3.11; median over 98 workload bodies); scaled times
#: are in seconds at that speed
REF_PROBE_S = 0.0032
#: a stretch longer than this many intervals was one long native call
NATIVE_FACTOR = 3.0


def probe() -> float:
    """Time a fixed mix of interpreter work: float math, dicts, lists."""
    t0 = time.perf_counter()
    acc = 0.0
    table: dict[int, float] = {}
    for i in range(1, 12000):
        acc += (i % 7) * 0.5 / i
        table[i & 63] = acc
    items = sorted(table.values())
    acc += items[0] + sum(x * x for x in range(4000))
    return time.perf_counter() - t0


class SpeedProbe:
    """Context manager measuring raw and speed-scaled time of its body."""

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self.probes: list[float] = []
        #: (raw start, raw end) of each stretch of work between two probes
        self.stretches: list[tuple[float, float]] = []
        self._mark = 0.0
        self._busy = False

    def _sample(self) -> None:
        end = time.perf_counter()
        p = probe()
        if self.probes:
            self.stretches.append((self._mark, end))
        self.probes.append(p)
        self._mark = time.perf_counter()

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:  # a late alarm must not nest inside a probe
            self._busy = True
            self._sample()
            self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        self._mark = time.perf_counter()
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()

    @property
    def speed(self) -> float:
        """REF_PROBE_S over the median probe: above 1 is a fast moment."""
        return REF_PROBE_S / statistics.median(self.probes)

    @property
    def raw_s(self) -> float:
        """Seconds of work in the body, probes excluded."""
        return sum(e - s for s, e in self.stretches)

    def _native(self, start: float, end: float) -> bool:
        return end - start > NATIVE_FACTOR * self.interval

    def _factors(self) -> list[float]:
        speed = self.speed
        return [1.0 if self._native(s, e) else speed for s, e in self.stretches]

    @property
    def native_s(self) -> float:
        """Raw seconds of the stretches held by one long native call."""
        return sum(e - s for s, e in self.stretches if self._native(s, e))

    @property
    def scaled_s(self) -> float:
        """Seconds of work at the reference speed."""
        return sum((e - s) * k for (s, e), k in zip(self.stretches, self._factors()))

    def to_scaled(self, times: list[float]) -> list[float]:
        """Map ``time.perf_counter()`` readings taken inside the body to
        scaled seconds since the body began; probe intervals take no time."""
        starts = [s for s, _ in self.stretches]
        factors = self._factors()
        done = list(itertools.accumulate(((e - s) * k for (s, e), k
                                          in zip(self.stretches, factors)), initial=0.0))
        out = []
        for t in times:
            i = bisect.bisect_right(starts, t) - 1
            if i < 0:
                out.append(0.0)
            else:
                start, end = self.stretches[i]
                out.append(done[i] + (min(t, end) - start) * factors[i])
        return out
