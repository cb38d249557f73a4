"""Golden output of the Section-4 planner.

Pins what three cold ``derive_configuration`` calls produce — each
consumer's decision, the storage plan, and every profiling counter and
simulated-seconds tally — against ``tests/golden/configure.json``:

* ``default``: the full Table-2 library;
* ``e2e_library``: the end-to-end benchmark's six-operator library;
* ``e2e_phase1``: that library restricted to the drift workload's first
  consumers (Motion, License and OCR at 0.9).

Ints and labels are written exactly, floats as ``f"{x:.12g}"``: exact bits
are the scoring parity test's job (``test_scoring_parity.py``), since
vectorized ``exp``/``log`` may round differently on another CPU.

Regenerate after an *intentional* planner change with::

    PYTHONPATH=src python -m pytest tests/test_configure_golden.py --update-golden

and review the diff.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.config import derive_configuration
from repro.operators.library import Consumer, default_library

GOLDEN_PATH = Path(__file__).parent / "golden" / "configure.json"

E2E_LIBRARY = ("Diff", "S-NN", "NN", "Motion", "License", "OCR")
E2E_PHASE1 = (Consumer("Motion", 0.9), Consumer("License", 0.9),
              Consumer("OCR", 0.9))


def _num(x):
    return x if isinstance(x, int) else f"{x:.12g}"


def _record(library, consumers=None) -> dict:
    profilers: dict = {}
    config = derive_configuration(library, consumers=consumers,
                                  profilers=profilers)
    stats, coding = config.stats, config.coding_profiler.stats
    return {
        "decisions": [
            {
                "consumer": d.consumer.label,
                "fidelity": d.fidelity.label,
                "accuracy": _num(d.accuracy),
                "consumption_speed": _num(d.consumption_speed),
            }
            for d in config.decisions
        ],
        "formats": [
            {"label": sf.label, "golden": sf.golden}
            for sf in config.plan.formats
        ],
        "config_stats": {
            name: _num(getattr(stats, name))
            for name in ("operator_runs", "operator_seconds", "coding_runs",
                         "coding_memo_hits", "coding_seconds",
                         "coalesce_rounds")
        },
        "coding_profiler": {
            name: _num(getattr(coding, name))
            for name in ("runs", "memo_hits", "adequacy_hits", "seconds")
        },
        "operator_profilers": {
            dataset: {
                "runs_by_operator": dict(p.stats.runs_by_operator),
                "seconds_by_operator": {
                    op: _num(s)
                    for op, s in p.stats.seconds_by_operator.items()
                },
            }
            for dataset, p in profilers.items()
        },
    }


def _payload() -> dict:
    e2e = default_library(names=E2E_LIBRARY)
    return {
        "default": _record(default_library()),
        "e2e_library": _record(e2e),
        "e2e_phase1": _record(e2e, list(E2E_PHASE1)),
    }


def _canonical_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True, indent=1,
                       ensure_ascii=True) + "\n").encode("utf-8")


def test_configurations_match_golden(request):
    data = _canonical_bytes(_payload())
    if request.config.getoption("--update-golden"):
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_bytes(data)
        return
    assert GOLDEN_PATH.exists(), (
        f"missing golden {GOLDEN_PATH}; generate it with "
        f"pytest tests/test_configure_golden.py --update-golden"
    )
    assert GOLDEN_PATH.read_bytes() == data, (
        "derive_configuration's output or accounting changed; if the "
        "planner change is intentional, regenerate with --update-golden "
        "and review the diff"
    )
