"""Test-only parity oracles: reference implementations production code
must match bit for bit.

Tests import this package as ``oracles``; ``benchmarks/conftest.py`` puts
``tests/`` on ``sys.path`` so the benchmarks import it the same way.
"""

from .executor import _execute_sequential, no_fastpath, reference_loop
from .profiler import scalar_profiler

__all__ = [
    "_execute_sequential",
    "no_fastpath",
    "reference_loop",
    "scalar_profiler",
]
