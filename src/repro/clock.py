"""Deterministic simulated clock used for all resource accounting.

The paper reports wall-clock measurements on a specific testbed.  To make
every experiment reproducible and hardware independent, this reproduction
charges compute, coding and disk costs to a :class:`SimClock` instead of
measuring the host machine.  Speeds in "x realtime" are then ratios of video
time to simulated time, exactly as defined in Section 2.2 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class SimClock:
    """A monotonically advancing simulated clock with per-category totals.

    ``charge`` advances the clock and attributes the cost to a category so
    experiments can break down where simulated time went (decode vs consume
    vs disk), mirroring the paper's per-component cost analysis.
    """

    now: float = 0.0
    by_category: Dict[str, float] = field(default_factory=dict)

    #: Relative tolerance for backwards ``advance_to`` targets.  Event
    #: times are sums of float durations, so two paths to the same
    #: instant may disagree by a few ulps; anything beyond this is an
    #: event-ordering bug, not rounding.
    BACKWARDS_TOLERANCE = 1e-9

    def charge(self, seconds: float, category: str = "other") -> float:
        """Advance the clock by ``seconds`` (must be non-negative)."""
        if seconds < 0:
            raise ValueError(f"cannot charge negative time: {seconds}")
        self.now += seconds
        self.by_category[category] = self.by_category.get(category, 0.0) + seconds
        return self.now

    def advance_to(self, t: float, category: str = "other") -> float:
        """Advance the clock to absolute simulated time ``t``.

        Charges the difference to ``category``.  A ``t`` at (or a float
        epsilon before) the current time is a no-op — concurrent
        completions may land on the same instant, and absolute event
        times are sums of float durations that can disagree by ulps.  A
        backwards jump beyond that tolerance raises ``ValueError``:
        silently ignoring it would mask event-ordering bugs upstream.
        """
        delta = t - self.now
        if delta > 0:
            self.charge(delta, category)
        elif delta < -self.BACKWARDS_TOLERANCE * max(1.0, abs(self.now)):
            raise ValueError(
                f"clock cannot run backwards: advance_to({t}) from "
                f"{self.now}"
            )
        return self.now

    def spent(self, category: str) -> float:
        """Total simulated seconds charged to ``category`` so far."""
        return self.by_category.get(category, 0.0)
