"""Storage formats SF<f, c> and consumption formats CF<f> (Section 3.1).

A *consumption format* is the fidelity of the raw frame sequence supplied to
an operator.  A *storage format* pairs a fidelity with a coding option and
describes one on-disk version of an ingested stream.

Storage formats are interned like their knobs: each of the 600 x 26
(fidelity, coding) pairs has one canonical instance, made the first time
it is asked for, with its ``label`` computed once and an int hash
(fidelity index x 26 + coding index).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.video.coding import Coding, coding_space_size
from repro.video.fidelity import Fidelity


@dataclass(frozen=True)
class ConsumptionFormat:
    """CF<f> — the fidelity of frames handed to a consumer."""

    fidelity: Fidelity

    @property
    def label(self) -> str:
        return self.fidelity.label

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"CF<{self.label}>"


@dataclass(frozen=True, init=False, eq=False)
class StorageFormat:
    """SF<f, c> — one stored video version (fidelity plus coding).

    ``is_raw`` (true when this version stores raw frames — the coding
    bypass) and ``label`` are cached per format.
    """

    __slots__ = ("fidelity", "coding", "index", "label", "is_raw")

    fidelity: Fidelity
    coding: Coding

    def __new__(cls, fidelity: Fidelity, coding: Coding) -> "StorageFormat":
        if fidelity.__class__ is not Fidelity or coding.__class__ is not Coding:
            raise TypeError(
                f"StorageFormat takes a Fidelity and a Coding, not "
                f"{fidelity!r} and {coding!r}"
            )
        index = fidelity.index * _N_CODINGS + coding.index
        fmt = _FORMATS.get(index)
        if fmt is None:
            fmt = object.__new__(cls)
            values = (fidelity, coding, index,
                      f"{fidelity.label} {coding.label}", coding.raw)
            for name, value in zip(cls.__slots__, values):
                object.__setattr__(fmt, name, value)
            _FORMATS[index] = fmt
        return fmt

    def __reduce__(self):
        # Unpickling and copying go back through the constructor.
        return (StorageFormat, (self.fidelity, self.coding))

    def __eq__(self, other) -> bool:
        if other.__class__ is not StorageFormat:
            return NotImplemented
        return self.index == other.index

    def __hash__(self) -> int:
        return self.index

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"SF<{self.label}>"


_N_CODINGS = coding_space_size()

#: Canonical formats by index, filled in on first use.
_FORMATS: Dict[int, StorageFormat] = {}

