"""The workload build :func:`repro.query.workload.build_workload` replaced:
one ``Generator.choice(k, p=probs)`` call per arrival.

``build_workload(tenants, horizon, seed)`` must return the same
:class:`~repro.query.workload.Arrival` list as the production build, entry
objects included (``tests/test_workload.py``).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import QueryError
from repro.query.workload import Arrival, TenantSpec, generate_arrivals
from repro.rng import rng_for


def build_workload(tenants: Sequence[TenantSpec], horizon: float,
                   seed: object) -> List[Arrival]:
    """Merge every tenant's stream, drawing each mix choice on its own."""
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
