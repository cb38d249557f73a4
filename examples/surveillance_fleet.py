#!/usr/bin/env python3
"""Operating a six-camera fleet: per-stream storage and ingest costs.

Run:  python examples/surveillance_fleet.py

Derives one unified configuration (as the paper does) and reports, for each
of the six benchmark streams, the analytic storage growth and transcoding
CPU — the quantities behind Figures 11b and 11c — under VStore and under
the N->N alternative that skips coalescing.
"""

from repro.clock import SimClock
from repro.core.config import derive_configuration
from repro.ingest.pipeline import IngestionPipeline
from repro.query.alternatives import n_to_n_scheme
from repro.operators.library import default_library
from repro.profiler.coding_profiler import CodingProfiler
from repro.video.datasets import DATASETS


def main() -> None:
    library = default_library(
        names=("Diff", "S-NN", "NN", "Motion", "License", "OCR")
    )
    config = derive_configuration(library)
    vstore_formats = config.storage_formats
    n_to_n_formats = n_to_n_scheme(
        config, CodingProfiler(activity=0.35)
    ).storage_formats
    print(f"VStore stores {len(vstore_formats)} formats; "
          f"N->N would store {len(n_to_n_formats)}.\n")

    header = (f"{'stream':>9} | {'VStore GB/day':>13} {'cores':>6} | "
              f"{'N->N GB/day':>11} {'cores':>6}")
    print(header)
    print("-" * len(header))
    for name in DATASETS:
        ours = IngestionPipeline(name, vstore_formats,
                                 clock=SimClock()).report()
        theirs = IngestionPipeline(name, n_to_n_formats,
                                   clock=SimClock()).report()
        print(f"{name:>9} | {ours.bytes_per_day / 2**30:>13.1f} "
              f"{ours.cores_required:>6.2f} | "
              f"{theirs.bytes_per_day / 2**30:>11.1f} "
              f"{theirs.cores_required:>6.2f}")
    print("\n(dashcam is the motion-heavy outlier, as in Figure 11b)")


if __name__ == "__main__":
    main()
