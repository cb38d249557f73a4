"""Re-pin the outcome digests in pinned.json.

    python3 benchmarks/e2e/pin.py [--seeds 0-31]

Runs every workload once per seed at both scales, untimed, in fresh
worker processes, and rewrites pinned.json with the digests.  Only a
change that alters simulated behaviour on purpose should re-pin: the
digests are the benchmark's behaviour contract, and run.py fails any run
whose digest differs from the one pinned for its seed.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-31",
                        help="first-last seed, inclusive")
    parser.add_argument("--out", default=str(run.HERE / "out"))
    opts = parser.parse_args(argv)
    pinned = {}
    for scale in ("full", "smoke"):
        pinned[scale] = {
            name: run.child(["digests", "--workload", name, "--scale", scale,
                             "--seeds", opts.seeds], opts.out,
                            timeout=None)["digests"]
            for name in run.WORKLOADS}
    (run.HERE / "pinned.json").write_text(json.dumps(pinned, indent=2)
                                          + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
