"""Reference-speed timing for a shared host whose speed drifts.

On a host shared with other tenants the same pure-Python work runs
anywhere from 1x to 1.7x slower, in spells that last from a fraction of
a second to minutes, and CPU time inflates with wall time (the core is
slower, the process is not descheduled).  Raw wall times of identical
runs minutes apart then differ by 20-30%.

So every timed segment is bracketed by a :func:`probe` — a fixed
~1 ms pure-Python loop — and its wall time is rescaled to *reference
speed*, the speed at which the probe takes :data:`REF_PROBE_S`::

    scaled = raw * REF_PROBE_S / mean(probe before, probe after)

Probes run between segments, never inside one, and only where no
worker of the workload is running.  The run manifest keeps the raw
times and every probe reading beside the scaled times, so any run can
be re-derived.  The rescaling narrows, it does not remove, the drift:
on the 2-CPU host above, the quartile spread of a metric over ten runs
fell from about 0.2 raw to 0.04-0.10 rescaled.
"""

from __future__ import annotations

import time

__all__ = ["REF_PROBE_S", "probe", "scaled", "Stopwatch"]

#: Probe time that defines reference speed: the unloaded speed of the
#: 2-CPU host the benchmark was written on.
REF_PROBE_S = 0.0010

_PROBE_LOOPS = 15_000


def probe() -> float:
    """Best of two timings of a fixed pure-Python loop (~1 ms each)."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        acc = 0
        for i in range(_PROBE_LOOPS):
            acc += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def scaled(raw: float, before: float, after: float) -> float:
    """``raw`` seconds rescaled to reference speed by the probes that
    bracket it (their mean estimates the speed in between)."""
    return raw * REF_PROBE_S * 2 / (before + after)


class Stopwatch:
    """Consecutive laps, each rescaled by the probes around it.

    ``calibrated=False`` skips probing (every factor is 1), for traced
    passes whose wall time must hold nothing but the traced work.
    """

    def __init__(self, calibrated: bool = True) -> None:
        self.calibrated = calibrated
        self.raw: list[float] = []
        self.scaled: list[float] = []
        #: Every probe reading, one more than there are laps.
        self.probes = [probe() if calibrated else REF_PROBE_S]
        #: Start of the current lap (``perf_counter`` seconds).
        self.start = time.perf_counter()

    def lap(self) -> float:
        """Close the current lap, probe, start the next; returns the
        closed lap's scaled seconds."""
        end = time.perf_counter()
        after = probe() if self.calibrated else REF_PROBE_S
        raw = end - self.start
        self.raw.append(raw)
        self.scaled.append(scaled(raw, self.probes[-1], after))
        self.probes.append(after)
        self.start = time.perf_counter()
        return self.scaled[-1]

