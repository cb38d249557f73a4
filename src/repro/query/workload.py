"""Open-loop workload generation: arrival processes and tenant mixes.

A *closed-loop* benchmark admits every query at t=0 and measures the
drain; an *open-loop* one feeds the executor a continuous arrival stream
whose rate does not react to the store's speed — the regime where
queueing delay, admission control and SLOs actually mean something.
This module builds those streams deterministically:

* :func:`poisson_arrivals` — memoryless arrivals at a fixed rate;
* :func:`bursty_arrivals` — a two-state Markov-modulated Poisson
  process (MMPP): calm and burst phases with different rates, the
  classic model for camera fleets that go quiet at night and spike on
  events;
* :func:`diurnal_arrivals` — a non-homogeneous Poisson process thinned
  against a sinusoidal rate curve (one "day" per ``period``);
* :func:`trace_arrivals` — replay explicit timestamps from a recorded
  trace.

Every generator is a pure function of its parameters and a seed
(:func:`repro.rng.rng_for` underneath), so the same spec always yields
the same stream — workloads are as reproducible as the queries they
carry.

:class:`TenantSpec` bundles a tenant's arrival process with its *query
mix* (weighted :class:`QueryMixEntry` choices), SLO, fair-share weight
and admission quota; :func:`build_workload` merges the per-tenant
streams into one deterministic arrival list, and
:func:`workload_specs` lowers it to ``execute_many``-style admit specs
(``arrival``, ``tenant`` and ``deadline = arrival + slo`` included) —
what :meth:`VStore.serve` feeds the executor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import QueryError
from repro.rng import rng_for

__all__ = [
    "ArrivalSpec",
    "Arrival",
    "QueryMixEntry",
    "TenantSpec",
    "poisson_arrivals",
    "bursty_arrivals",
    "diurnal_arrivals",
    "trace_arrivals",
    "generate_arrivals",
    "build_workload",
    "workload_specs",
]


# ---------------------------------------------------------------------------
# Arrival processes
# ---------------------------------------------------------------------------


def poisson_arrivals(rate: float, horizon: float, seed: object) -> List[float]:
    """Poisson arrivals at ``rate`` per simulated second over ``horizon``.

    Inter-arrival gaps are i.i.d. exponential draws from a generator
    seeded by ``("poisson", seed)`` — same seed, same stream.
    """
    if rate <= 0:
        raise QueryError(f"arrival rate must be positive: {rate}")
    if horizon <= 0:
        raise QueryError(f"horizon must be positive: {horizon}")
    rng = rng_for("workload", "poisson", seed)
    times: List[float] = []
    t = 0.0
    while True:
        t += rng.exponential(1.0 / rate)
        if t >= horizon:
            return times
        times.append(t)


def bursty_arrivals(
    rate_calm: float,
    rate_burst: float,
    horizon: float,
    seed: object,
    *,
    dwell_calm: float = 10.0,
    dwell_burst: float = 2.0,
) -> List[float]:
    """Two-state MMPP: exponential dwell in each phase, Poisson within.

    Starts calm; phase switches are part of the same seeded stream, so
    the burst placement is reproducible.  ``dwell_*`` are the *mean*
    phase lengths in simulated seconds.
    """
    for name, value in (("rate_calm", rate_calm), ("rate_burst", rate_burst),
                        ("dwell_calm", dwell_calm),
                        ("dwell_burst", dwell_burst)):
        if value <= 0:
            raise QueryError(f"{name} must be positive: {value}")
    if horizon <= 0:
        raise QueryError(f"horizon must be positive: {horizon}")
    rng = rng_for("workload", "bursty", seed)
    times: List[float] = []
    t = 0.0
    burst = False
    phase_end = rng.exponential(dwell_calm)
    while t < horizon:
        rate = rate_burst if burst else rate_calm
        t_next = t + rng.exponential(1.0 / rate)
        if t_next >= phase_end:
            # No arrival before the phase flips; restart the memoryless
            # draw from the switch instant at the new rate.
            t = phase_end
            burst = not burst
            phase_end = t + rng.exponential(
                dwell_burst if burst else dwell_calm
            )
            continue
        t = t_next
        if t >= horizon:
            break
        times.append(t)
    return times


def diurnal_arrivals(
    rate: float,
    horizon: float,
    seed: object,
    *,
    period: float = 86400.0,
    amplitude: float = 0.8,
) -> List[float]:
    """Non-homogeneous Poisson arrivals under a sinusoidal rate curve.

    The instantaneous rate is ``rate * (1 + amplitude * sin(2*pi*t /
    period))`` — mean ``rate``, peak ``rate*(1+amplitude)`` — sampled by
    thinning: candidates are drawn at the peak rate and kept with
    probability ``rate(t)/peak``, the textbook exact method.
    """
    if rate <= 0:
        raise QueryError(f"arrival rate must be positive: {rate}")
    if horizon <= 0:
        raise QueryError(f"horizon must be positive: {horizon}")
    if not 0.0 <= amplitude < 1.0:
        raise QueryError(f"amplitude must be in [0, 1): {amplitude}")
    if period <= 0:
        raise QueryError(f"period must be positive: {period}")
    rng = rng_for("workload", "diurnal", seed)
    peak = rate * (1.0 + amplitude)
    times: List[float] = []
    t = 0.0
    while True:
        t += rng.exponential(1.0 / peak)
        if t >= horizon:
            return times
        instantaneous = rate * (
            1.0 + amplitude * math.sin(2.0 * math.pi * t / period)
        )
        if rng.random() * peak <= instantaneous:
            times.append(t)


def trace_arrivals(times: Sequence[float]) -> List[float]:
    """Validate and normalize a recorded arrival trace.

    Returns the timestamps sorted ascending; negative entries are
    rejected (arrivals predate the run origin).  Round-trips: a list
    that is already sorted comes back equal.
    """
    out = sorted(float(t) for t in times)
    if out and out[0] < 0:
        raise QueryError(f"trace arrivals must be >= 0: {out[0]}")
    return out


@dataclass(frozen=True)
class ArrivalSpec:
    """Declarative arrival process, resolvable via :func:`generate_arrivals`.

    ``kind`` selects the generator: ``"poisson"`` (uses ``rate``),
    ``"bursty"`` (``rate`` calm, ``rate_burst``, mean ``dwell_calm`` /
    ``dwell_burst``), ``"diurnal"`` (``rate``, ``period``,
    ``amplitude``), or ``"trace"`` (explicit ``trace`` timestamps;
    ``rate`` is ignored).
    """

    kind: str = "poisson"
    rate: float = 1.0
    rate_burst: float = 4.0
    dwell_calm: float = 10.0
    dwell_burst: float = 2.0
    period: float = 86400.0
    amplitude: float = 0.8
    trace: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("poisson", "bursty", "diurnal", "trace"):
            raise QueryError(
                f"unknown arrival kind {self.kind!r}; "
                f"known: poisson, bursty, diurnal, trace"
            )


def generate_arrivals(spec: ArrivalSpec, horizon: float,
                      seed: object) -> List[float]:
    """Resolve an :class:`ArrivalSpec` to its deterministic timestamps."""
    if spec.kind == "poisson":
        return poisson_arrivals(spec.rate, horizon, seed)
    if spec.kind == "bursty":
        return bursty_arrivals(
            spec.rate, spec.rate_burst, horizon, seed,
            dwell_calm=spec.dwell_calm, dwell_burst=spec.dwell_burst,
        )
    if spec.kind == "diurnal":
        return diurnal_arrivals(
            spec.rate, horizon, seed,
            period=spec.period, amplitude=spec.amplitude,
        )
    return [t for t in trace_arrivals(spec.trace) if t < horizon]


# ---------------------------------------------------------------------------
# Tenants and query mixes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QueryMixEntry:
    """One weighted choice in a tenant's query mix."""

    query: str  # query name ("A"/"B"), resolved by the store facade
    dataset: str
    accuracy: float = 0.9
    t0: float = 0.0
    t1: float = 16.0
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise QueryError(f"mix weight must be positive: {self.weight}")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: who arrives, what they ask, what they are owed.

    ``slo_seconds`` turns into a per-query deadline ``arrival + slo``.
    ``weight`` and ``quota`` are the only tenant settings: a run that
    serves the tenant copies them onto its executor's
    :class:`~repro.query.scheduler.TenantState`.  ``weight`` orders
    weighted fair sharing (the ``"wfair"`` admission queue *and* the
    ``"wfair"`` executor policy); ``quota`` caps the tenant's in-flight
    queries under admission control.
    """

    name: str
    arrivals: ArrivalSpec = field(default_factory=ArrivalSpec)
    mix: Tuple[QueryMixEntry, ...] = ()
    slo_seconds: Optional[float] = None
    weight: float = 1.0
    quota: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise QueryError("tenant needs a non-empty name")
        if not self.mix:
            raise QueryError(f"tenant {self.name!r} needs a query mix")
        if self.slo_seconds is not None and self.slo_seconds <= 0:
            raise QueryError(
                f"tenant {self.name!r}: slo must be positive: "
                f"{self.slo_seconds}"
            )
        if self.weight <= 0:
            raise QueryError(
                f"tenant {self.name!r}: weight must be positive: "
                f"{self.weight}"
            )
        if self.quota is not None and self.quota < 1:
            raise QueryError(
                f"tenant {self.name!r}: quota must be >= 1: {self.quota}"
            )


@dataclass(frozen=True)
class Arrival:
    """One materialized arrival: when, whose, and which query."""

    t: float
    tenant: str
    entry: QueryMixEntry
    deadline: Optional[float] = None


def build_workload(tenants: Sequence[TenantSpec], horizon: float,
                   seed: object) -> List[Arrival]:
    """Merge every tenant's arrival stream into one deterministic list.

    Each tenant draws its arrival times and mix choices from its own
    ``(seed, tenant name)``-derived generator — adding a tenant never
    perturbs another's stream.  The merged list is sorted by ``(t,
    tenant, index)``, so equal-instant arrivals across tenants order
    deterministically too.
    """
    if not tenants:
        raise QueryError("workload needs at least one tenant")
    names = [t.name for t in tenants]
    if len(set(names)) != len(names):
        raise QueryError(f"duplicate tenant names: {sorted(names)}")
    merged: List[Tuple[float, str, int, Arrival]] = []
    for tenant in tenants:
        times = generate_arrivals(tenant.arrivals, horizon,
                                  (seed, tenant.name))
        mix_rng = rng_for("workload", "mix", seed, tenant.name)
        weights = [e.weight for e in tenant.mix]
        total = sum(weights)
        probs = [w / total for w in weights]
        for i, t in enumerate(times):
            choice = int(mix_rng.choice(len(tenant.mix), p=probs))
            entry = tenant.mix[choice]
            deadline = (t + tenant.slo_seconds
                        if tenant.slo_seconds is not None else None)
            merged.append((t, tenant.name, i,
                           Arrival(t=t, tenant=tenant.name, entry=entry,
                                   deadline=deadline)))
    merged.sort(key=lambda item: item[:3])
    return [item[3] for item in merged]


def workload_specs(arrivals: Sequence[Arrival]) -> List[Dict[str, object]]:
    """Lower arrivals to ``execute_many``-style admit specs."""
    specs: List[Dict[str, object]] = []
    for a in arrivals:
        spec: Dict[str, object] = {
            "query": a.entry.query,
            "dataset": a.entry.dataset,
            "accuracy": a.entry.accuracy,
            "t0": a.entry.t0,
            "t1": a.entry.t1,
            "arrival": a.t,
            "tenant": a.tenant,
        }
        if a.deadline is not None:
            spec["deadline"] = a.deadline
        specs.append(spec)
    return specs
