"""Host seconds corrected for how fast the host ran while they passed.

The benchmark runs on shared hosts whose cores slow down by up to 1.8x
while neighbours are busy, in phases from a second to many minutes, so
the same run can take 5 s in one minute and 7 s in the next.  No window
a benchmark can afford averages those phases out.  Instead, while a
timed call runs, a SIGALRM handler pauses it every PROBE_PERIOD_S and
times :func:`probe_kernel`, a fixed loop that allocates nothing and
touches a few cache lines, so its time follows the core's speed and
not what the call left in the caches.  The call's host seconds, probe
time left out, divided by its *slowdown*, the mean probe time over
REFERENCE_PROBE_S, give *reference seconds*: how long the call would
have taken on a core where the probe takes REFERENCE_PROBE_S.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter
from typing import NamedTuple

#: Probe time on an uncontended core of the host the benchmark was tuned
#: on (Intel Xeon at 2.1 GHz), about the fastest 1% of probes there.
#: It fixes the unit of reference seconds; comparisons on one host do not
#: depend on it.
REFERENCE_PROBE_S = 1.05e-3
#: Host seconds between probes; each probe adds about 5% to a call.
PROBE_PERIOD_S = 0.025
#: Probes just before and just after a call that is not probed inside.
BURST = 64


#: Keys the probe looks up, as attribute and global lookups do.
_KEYS = tuple(f"key{i}" for i in range(64))
_TABLE = {key: i for i, key in enumerate(_KEYS)}


def probe_kernel() -> int:
    """Integer arithmetic and string-keyed dict lookups, in equal parts.

    Interpreted code slows down more than arithmetic alone and less than
    lookups alone while the host is contended; the mix follows it.
    """
    s = 0
    for i in range(10000):
        s += i * i % 7
    for _ in range(180):
        for key in _KEYS:
            s += _TABLE[key]
    return s


class Timing(NamedTuple):
    """How long one call took."""

    #: Host seconds of the call, probe time left out.
    host_s: float
    #: Mean probe time during the call over REFERENCE_PROBE_S.
    slowdown: float

    @property
    def seconds(self) -> float:
        """Reference seconds of the call."""
        return self.host_s / self.slowdown


def _probe(probes: list) -> None:
    t0 = perf_counter()
    probe_kernel()
    probes.append(perf_counter() - t0)


def _slowdown(probes: list) -> float:
    return statistics.mean(probes) / REFERENCE_PROBE_S


def timed(fn, *args):
    """(result, Timing) of ``fn(*args)``, probed from just before to after."""
    probes: list = []
    _probe(probes)
    previous = signal.signal(signal.SIGALRM, lambda *_: _probe(probes))
    signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
    t0 = perf_counter()
    try:
        result = fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        t1 = perf_counter()
        signal.signal(signal.SIGALRM, previous)
    inside = sum(probes[1:])
    _probe(probes)
    return result, Timing(t1 - t0 - inside, _slowdown(probes))


def timed_between(fn, *args):
    """(result, Timing) of ``fn(*args)``, undisturbed; BURST probes on
    each side give its slowdown."""
    probes: list = []
    for _ in range(BURST):
        _probe(probes)
    t0 = perf_counter()
    result = fn(*args)
    host_s = perf_counter() - t0
    for _ in range(BURST):
        _probe(probes)
    return result, Timing(host_s, _slowdown(probes))
