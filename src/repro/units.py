"""Unit helpers and constants shared across the library.

The simulator accounts for three kinds of quantities:

* data sizes, always tracked internally in **bytes**;
* durations, always tracked internally in **seconds** (video time or
  simulated compute time);
* speeds, expressed as a multiple of video realtime ("x realtime"):
  a speed of 30 means one second of video is processed in 1/30 s.
"""

from __future__ import annotations

KB = 1024
MB = 1024 * KB
GB = 1024 * MB
TB = 1024 * GB

SECOND = 1.0
MINUTE = 60.0
HOUR = 3600.0
DAY = 24 * HOUR

#: Segment length used throughout the store (the paper stores 8-second
#: segments in LMDB).
SEGMENT_SECONDS = 8.0

#: Length of the clip used for every profiling run (the paper profiles on
#: 10-second clips).
PROFILE_CLIP_SECONDS = 10.0


def bytes_per_day(bytes_per_second: float) -> float:
    """Convert a byte rate into bytes accumulated over one day."""
    return bytes_per_second * DAY


def fmt_bytes(n: float) -> str:
    """Render a byte count using the largest sensible binary unit."""
    for unit, name in ((TB, "TB"), (GB, "GB"), (MB, "MB"), (KB, "KB")):
        if abs(n) >= unit:
            return f"{n / unit:.2f} {name}"
    return f"{n:.0f} B"


def fmt_speed(x: float) -> str:
    """Render an x-realtime speed the way the paper annotates figures."""
    if x == float("inf"):
        return "inf"
    if x >= 1000:
        return f"{x / 1000.0:.1f}k x"
    if x >= 10:
        return f"{x:.0f}x"
    return f"{x:.1f}x"
