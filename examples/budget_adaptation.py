#!/usr/bin/env python3
"""Elastic adaptation to resource budgets (Table 4 and Figure 13).

Run:  python examples/budget_adaptation.py

Part 1 shrinks the ingestion budget (CPU cores per stream) and shows VStore
cheapening coding speed steps while storage grows gently — the paper's
Table 4.  Part 2 imposes storage budgets and shows the erosion planner
picking decay factors, with overall operator speed decaying by age — the
paper's Figure 13.
"""

from repro import IngestBudget
from repro.core.config import derive_configuration
from repro.operators.library import default_library
from repro.units import DAY, fmt_bytes


def ingest_budget_sweep(library) -> None:
    print("=== Ingestion budget sweep (Table 4) ===")
    baseline = derive_configuration(library)
    cores_needed = baseline.plan.ingest_cores
    print(f"unbudgeted ingest cost: {cores_needed:.2f} cores/stream\n")
    header = f"{'budget':>10} {'cores used':>11} {'storage/day':>12}  formats"
    print(header)
    for factor in (None, 0.8, 0.6, 0.45):
        budget = IngestBudget(None if factor is None
                              else max(0.3, cores_needed * factor))
        config = derive_configuration(library, ingest_budget=budget)
        label = "unlimited" if factor is None else f"{budget.cores:.2f}"
        codings = ", ".join(sf.fmt.coding.label
                            for sf in config.plan.formats)
        print(f"{label:>10} {config.plan.ingest_cores:>11.2f} "
              f"{fmt_bytes(config.plan.storage_bytes_per_second * DAY):>12}"
              f"  [{codings}]")
    print()


def storage_budget_sweep(library) -> None:
    print("=== Storage budget sweep (Figure 13) ===")
    free = derive_configuration(library, lifespan_days=10)
    unbounded = free.erosion.total_bytes
    print(f"10-day footprint without erosion: {fmt_bytes(unbounded)}\n")
    floor_cfg = derive_configuration(library, lifespan_days=10)
    for fraction in (1.1, 0.95, 0.9):
        budget = unbounded * fraction
        config = derive_configuration(library, lifespan_days=10,
                                      storage_budget_bytes=budget)
        erosion = config.erosion
        speeds = " ".join(f"{erosion.overall_speed[a]:.2f}"
                          for a in range(1, 11))
        print(f"budget {fmt_bytes(budget):>10}: k={erosion.k:.2f}  "
              f"total={fmt_bytes(erosion.total_bytes)}")
        print(f"    overall speed by age: {speeds}")
    print()


def main() -> None:
    library = default_library(
        names=("Diff", "S-NN", "NN", "Motion", "License", "OCR")
    )
    ingest_budget_sweep(library)
    storage_budget_sweep(library)


if __name__ == "__main__":
    main()
