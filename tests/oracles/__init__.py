"""Test-only parity oracles: reference implementations production code
must match bit for bit.

Tests import this package as ``oracles``; ``benchmarks/conftest.py`` puts
``tests/`` on ``sys.path`` so the benchmarks import it the same way.  The
scalar segment reader (``assess`` and the clock-charging ``read``) lives
in :mod:`.reader`; import it as ``from oracles import reader``.  Operator
scoring recomputed on every probe lives in :mod:`.scoring`; import it as
``from oracles import scoring``.  The per-track clip build lives in
:mod:`.content`; import it as ``from oracles import content``.
"""

from .executor import _execute_sequential, reference_loop
from .fastpath import fastpath_loop
from .profiler import scalar_profiler

__all__ = [
    "_execute_sequential",
    "fastpath_loop",
    "reference_loop",
    "scalar_profiler",
]
