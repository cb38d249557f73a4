"""Coding knobs (Table 1): speed step, keyframe interval, coding bypass.

Coding knobs trade off ingestion (encode) cost, storage size and retrieval
(decode) cost without affecting consumer behaviour (Section 2.3).  A coding
option is either

* an encoded option ``Coding(speed_step, keyframe_interval)``, or
* the bypass option :data:`RAW`, storing raw YUV420 frames on disk.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, Iterator, Optional, Tuple

from repro.errors import KnobError

#: Encoder speed steps, slowest first, with the equivalent x264 preset.
SPEED_STEPS: Tuple[str, ...] = ("slowest", "slow", "med", "fast", "fastest")
SPEED_PRESET: Dict[str, str] = {
    "slowest": "veryslow",
    "slow": "medium",
    "med": "veryfast",
    "fast": "superfast",
    "fastest": "ultrafast",
}

#: Keyframe intervals in frames (the GOP length).
KEYFRAME_INTERVALS: Tuple[int, ...] = (5, 10, 50, 100, 250)


@dataclass(frozen=True, init=False, eq=False)
class Coding:
    """One coding option.

    ``raw`` selects the coding-bypass path; the other two knobs are then
    meaningless and must be ``None``.

    Like fidelities (see :mod:`repro.video.fidelity`), the 26 options are
    canonical instances built at import: the constructor, :meth:`parse`,
    ``pickle`` and ``copy`` return them, ``label`` is computed once, and
    equality and the hash go by ``index`` — the position in
    :func:`coding_space` (``RAW`` is last).
    """

    __slots__ = ("speed_step", "keyframe_interval", "raw", "index", "label")

    speed_step: Optional[str]
    keyframe_interval: Optional[int]
    raw: bool

    def __new__(cls, speed_step: Optional[str] = None,
                keyframe_interval: Optional[int] = None,
                raw: bool = False) -> "Coding":
        if raw:
            if speed_step is not None or keyframe_interval is not None:
                raise KnobError("raw coding takes no speed step / keyframe interval")
            return RAW
        if speed_step not in SPEED_STEPS:
            raise KnobError(f"illegal speed step: {speed_step!r}")
        if keyframe_interval not in KEYFRAME_INTERVALS:
            raise KnobError(f"illegal keyframe interval: {keyframe_interval!r}")
        return _CODINGS[KEYFRAME_INTERVALS.index(keyframe_interval)
                        * len(SPEED_STEPS) + SPEED_STEPS.index(speed_step)]

    def __reduce__(self):
        # Unpickling and copying go back through the constructor.
        return (Coding, (self.speed_step, self.keyframe_interval, self.raw))

    def __eq__(self, other) -> bool:
        if other.__class__ is not Coding:
            return NotImplemented
        return self.index == other.index

    def __hash__(self) -> int:
        return self.index

    @property
    def speed_idx(self) -> int:
        """Index of the speed step, slowest (cheapest storage) first."""
        if self.raw:
            raise KnobError("raw coding has no speed step")
        return SPEED_STEPS.index(self.speed_step)

    # ``label`` (cached per option): paper-style, e.g. ``250-slowest`` or
    # ``RAW``.

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.label

    @classmethod
    def parse(cls, label: str) -> "Coding":
        """Parse a label produced by :attr:`label`."""
        if label == "RAW":
            return RAW
        interval_text, _, step = label.partition("-")
        if not step:
            raise KnobError(f"malformed coding label: {label!r}")
        return cls(speed_step=step, keyframe_interval=int(interval_text))


def _option(index: int, speed_step: Optional[str],
            keyframe_interval: Optional[int]) -> Coding:
    """Build one canonical option (module load only)."""
    raw = speed_step is None
    values = (
        speed_step, keyframe_interval, raw, index,
        "RAW" if raw else f"{keyframe_interval}-{speed_step}",
    )
    option = object.__new__(Coding)
    for name, value in zip(Coding.__slots__, values):
        object.__setattr__(option, name, value)
    return option


#: The 25 encoded options in :func:`coding_space` order, then RAW.
_CODINGS: Tuple[Coding, ...] = tuple(
    _option(index, step, interval)
    for index, (interval, step) in enumerate(
        product(KEYFRAME_INTERVALS, SPEED_STEPS)
    )
) + (_option(len(KEYFRAME_INTERVALS) * len(SPEED_STEPS), None, None),)

#: The coding-bypass option: store raw YUV420 frames.
RAW = _CODINGS[-1]


def coding_space(include_raw: bool = True) -> Iterator[Coding]:
    """Iterate the coding space C (25 encoded options, plus RAW)."""
    return iter(_CODINGS if include_raw else _CODINGS[:-1])


def coding_space_size(include_raw: bool = True) -> int:
    """|C| — the number of coding options."""
    return len(SPEED_STEPS) * len(KEYFRAME_INTERVALS) + (1 if include_raw else 0)
