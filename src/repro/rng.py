"""Deterministic random-stream helpers.

Every stochastic element of the simulation (scene content, detector noise)
draws from a generator seeded by a *stable hash* of its identifying context,
so results are reproducible across processes and runs regardless of
iteration order.
"""

from __future__ import annotations

import hashlib

import numpy as np
# NumPy loads ``numpy.random`` on first attribute access; importing it here
# pays that once at import time rather than inside the first cold build.
import numpy.random  # noqa: F401


def stable_seed(*parts: object) -> int:
    """Derive a 64-bit seed from any printable context parts.

    Unlike ``hash()``, this is stable across interpreter runs (no hash
    randomization) which keeps dataset content and profiles deterministic.
    """
    text = "\x1f".join(repr(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def rng_for(*parts: object) -> np.random.Generator:
    """A numpy generator seeded from the given context parts."""
    return np.random.default_rng(stable_seed(*parts))
