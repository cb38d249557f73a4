"""Operator cascades: the two benchmark queries of Figure 2.

Query A (car detection): Diff filters out similar frames, the specialized
shallow NN rapidly detects most cars, and the full NN analyzes the frames
the shallow net is unsure about.

Query B (license-plate recognition): Motion filters frames with little
motion, License spots plate regions, OCR recognizes the characters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import QueryError


@dataclass(frozen=True)
class QueryCascade:
    """A named cascade of operators, executed in order."""

    name: str
    operators: Tuple[str, ...]
    description: str = ""

    def __post_init__(self) -> None:
        if not self.operators:
            raise QueryError(f"cascade {self.name!r} has no operators")

    def __len__(self) -> int:
        return len(self.operators)

    def __iter__(self):
        return iter(self.operators)

    @property
    def label(self) -> str:
        return f"{self.name} ({' + '.join(self.operators)})"


QUERY_A = QueryCascade(
    name="A",
    operators=("Diff", "S-NN", "NN"),
    description="Car detector: Diff filters similar frames; S-NN rapidly "
                "detects most cars; NN analyzes remaining frames.",
)

QUERY_B = QueryCascade(
    name="B",
    operators=("Motion", "License", "OCR"),
    description="Vehicle license-plate recognition: Motion filters frames "
                "with little motion; License spots plate regions; OCR "
                "recognizes characters.",
)


#: The benchmark cascades by name.
_CASCADES: Dict[str, QueryCascade] = {"A": QUERY_A, "B": QUERY_B}


def cascade_for(name: str) -> QueryCascade:
    """Look up one of the benchmark cascades by name ("A" or "B")."""
    try:
        return _CASCADES[name]
    except KeyError:
        raise QueryError(
            f"unknown query {name!r}; known: {', '.join(_CASCADES)}"
        ) from None


def stages_with_coverage(selectivities: List[float]) -> List[float]:
    """Fraction of the queried timespan each stage must scan: stage i
    covers the product of the positive fractions of stages before it."""
    coverage = []
    acc = 1.0
    for s in selectivities:
        coverage.append(acc)
        acc *= max(0.0, min(1.0, s))
    return coverage
