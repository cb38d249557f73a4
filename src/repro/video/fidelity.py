"""Fidelity knobs (Table 1) and the richer-than partial order (Section 2.3).

A *fidelity option* is a combination of four knob values:

* ``quality`` — image quality, the loss due to compression
  (``worst/bad/good/best``, the paper's CRF 50/40/23/0);
* ``crop`` — crop factor, the fraction of the frame's linear dimensions
  kept around the center (50%, 75%, 100%);
* ``resolution`` — named resolution ("60p" ... "720p", ten values);
* ``sampling`` — frame sampling rate as a fraction of the ingest frame
  rate (1/30, 1/6, 1/2, 2/3, 1).

Between two options the paper defines a *richer-than* partial order:
X is richer than Y iff X is at least as rich on every knob and strictly
richer on at least one.  Video can only be degraded along this order (R1).

The space is a finite lattice and each of its 600 points is one canonical
:class:`Fidelity`, built when this module loads.  The constructor
normalizes its arguments to the knob tables' own values and returns that
instance, and so do :meth:`Fidelity.parse`, ``pickle`` and ``copy``.  A
point's knob indices, ``label``, ``fps`` and ``pixels`` are computed once;
equality compares lattice indices and the hash *is* the lattice index, an
int that no ``PYTHONHASHSEED`` moves.  This module alone owns the lattice
order: :func:`fidelity_space` yields the points by ``index``, and the
codec profile tables index their arrays by it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import FidelityError, KnobError

#: Image-quality levels, poorest first, with the equivalent x264 CRF value.
QUALITIES: Tuple[str, ...] = ("worst", "bad", "good", "best")
QUALITY_CRF: Dict[str, int] = {"worst": 50, "bad": 40, "good": 23, "best": 0}

#: Crop factors: fraction of each linear dimension kept around the center.
CROP_FACTORS: Tuple[float, ...] = (0.50, 0.75, 1.00)

#: Named resolutions and their pixel dimensions (width, height).  The small
#: resolutions are square analysis frames as in the paper's Figure 8; 720p is
#: the 16:9 ingest resolution.  Heights are strictly increasing and so are
#: pixel counts, which keeps the richer-than order consistent with cost.
RESOLUTIONS: Dict[str, Tuple[int, int]] = {
    "60p": (60, 60),
    "100p": (100, 100),
    "144p": (144, 144),
    "180p": (180, 180),
    "200p": (200, 200),
    "360p": (360, 360),
    "400p": (400, 400),
    "540p": (540, 540),
    "600p": (600, 600),
    "720p": (1280, 720),
}

#: Resolution names ordered poorest to richest.
RESOLUTION_ORDER: Tuple[str, ...] = tuple(RESOLUTIONS)

#: Frame sampling rates, sparsest first (fractions of the ingest frame rate).
SAMPLING_RATES: Tuple[Fraction, ...] = (
    Fraction(1, 30),
    Fraction(1, 6),
    Fraction(1, 2),
    Fraction(2, 3),
    Fraction(1, 1),
)

#: Frame rate of every ingested stream (720p at 30 fps, Section 6.1).
INGEST_FPS = 30


def _index(seq: Sequence, value, knob: str) -> int:
    try:
        return seq.index(value)
    except ValueError:
        raise KnobError(f"illegal value {value!r} for knob {knob!r}") from None


def sampling_from_str(text: str) -> Fraction:
    """Parse a sampling rate written as in the paper, e.g. ``"1/30"`` or ``"1"``."""
    return Fraction(text)


#: Knob index of each sampling rate, keyed by the rate object's identity:
#: every lattice point holds these very objects, so a lookup costs no
#: ``Fraction.__hash__``.  (The tuple keeps them alive, so no other live
#: object can share an id.)
_SAMPLING_BY_ID: Dict[int, int] = {
    id(rate): i for i, rate in enumerate(SAMPLING_RATES)
}


def sampling_index(rate) -> Optional[int]:
    """The knob index of a legal sampling rate; ``None`` for any other
    value (``None`` included)."""
    index = _SAMPLING_BY_ID.get(id(rate))
    if index is None and rate is not None:
        try:
            index = SAMPLING_RATES.index(rate)
        except ValueError:
            pass
    return index


@dataclass(frozen=True, init=False, eq=False)
class Fidelity:
    """One fidelity option: a value for each of the four fidelity knobs.

    Every instance is a canonical lattice point (see the module
    docstring): ``Fidelity("best", "720p", 1, 1)`` *is* the richest
    point, whose ``sampling`` stays ``Fraction(1)`` and ``crop`` ``1.0``.
    Knob indices count from the poorest value (0).
    """

    __slots__ = (
        "quality", "resolution", "sampling", "crop",
        "quality_idx", "resolution_idx", "sampling_idx", "crop_idx",
        "index", "label", "pixels", "fps",
    )

    quality: str
    resolution: str
    sampling: Fraction
    crop: float

    def __new__(cls, quality: str, resolution: str, sampling: Fraction,
                crop: float) -> "Fidelity":
        return fidelity_at(
            _index(QUALITIES, quality, "quality"),
            _index(RESOLUTION_ORDER, resolution, "resolution"),
            _index(SAMPLING_RATES, sampling, "sampling"),
            _index(CROP_FACTORS, crop, "crop"),
        )

    def __reduce__(self):
        # Unpickling and copying go back through the constructor, which
        # returns the canonical point.
        return (Fidelity, (self.quality, self.resolution, self.sampling,
                           self.crop))

    def __eq__(self, other) -> bool:
        if other.__class__ is not Fidelity:
            return NotImplemented
        return self.index == other.index

    def __hash__(self) -> int:
        return self.index

    # Cached per point (set when the lattice is built):
    #
    # * ``quality_idx``/``resolution_idx``/``sampling_idx``/``crop_idx`` —
    #   knob indices;
    # * ``index`` — position in :func:`fidelity_space`, also the hash;
    # * ``label`` — paper-style label, e.g. ``best-720p-1-100%``;
    # * ``pixels`` — pixels per frame after resolution and crop;
    # * ``fps`` — frames per second after sampling the 30 fps ingest stream.

    @property
    def dimensions(self) -> Tuple[int, int]:
        """Pixel dimensions (width, height) after resizing and cropping."""
        return _dimensions(self.resolution, self.crop)

    @property
    def crf(self) -> int:
        """The x264 CRF equivalent of this option's image quality."""
        return QUALITY_CRF[self.quality]

    # -- partial order -------------------------------------------------------

    def richer_equal(self, other: "Fidelity") -> bool:
        """True iff self is richer than or equal to ``other`` on every knob."""
        return (self.quality_idx >= other.quality_idx
                and self.resolution_idx >= other.resolution_idx
                and self.sampling_idx >= other.sampling_idx
                and self.crop_idx >= other.crop_idx)

    def richer_than(self, other: "Fidelity") -> bool:
        """Strict richer-than: richer-or-equal everywhere, strictly on one knob."""
        return self.richer_equal(other) and self != other

    def comparable(self, other: "Fidelity") -> bool:
        """True iff the two options are ordered by richer-than (either way)."""
        return self.richer_equal(other) or other.richer_equal(self)

    def degrade_to(self, other: "Fidelity") -> "Fidelity":
        """Check that ``other`` is reachable by degradation and return it.

        Degradation (resize, crop, drop frames, re-quantize) can only move
        *down* the richer-than order; anything else raises
        :class:`~repro.errors.FidelityError` (requirement R1).
        """
        if not self.richer_equal(other):
            raise FidelityError(f"cannot degrade {self} to non-poorer {other}")
        return other

    # -- presentation --------------------------------------------------------

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.label

    @classmethod
    def parse(cls, label: str) -> "Fidelity":
        """Parse a label produced by :attr:`label`."""
        parts = label.split("-")
        if len(parts) != 4:
            raise KnobError(f"malformed fidelity label: {label!r}")
        quality, resolution, sampling, crop = parts
        if not crop.endswith("%"):
            raise KnobError(f"malformed crop in fidelity label: {label!r}")
        return cls(
            quality=quality,
            resolution=resolution,
            sampling=Fraction(sampling),
            crop=float(crop[:-1]) / 100.0,
        )


_SHAPE = (len(QUALITIES), len(RESOLUTION_ORDER), len(SAMPLING_RATES),
          len(CROP_FACTORS))


def _dimensions(resolution: str, crop: float) -> Tuple[int, int]:
    w, h = RESOLUTIONS[resolution]
    return (int(round(w * crop)), int(round(h * crop)))


def _lattice_point(index: int, qi: int, ri: int, si: int,
                   ci: int) -> Fidelity:
    """Build the canonical point at these knob indices (module load only)."""
    quality, resolution = QUALITIES[qi], RESOLUTION_ORDER[ri]
    sampling, crop = SAMPLING_RATES[si], CROP_FACTORS[ci]
    width, height = _dimensions(resolution, crop)
    values = (
        quality, resolution, sampling, crop, qi, ri, si, ci, index,
        f"{quality}-{resolution}-{sampling}-{int(crop * 100)}%",
        width * height, float(INGEST_FPS * sampling),
    )
    point = object.__new__(Fidelity)
    for name, value in zip(Fidelity.__slots__, values):
        object.__setattr__(point, name, value)
    return point


#: The 600 canonical points, in :func:`fidelity_space` order.
_LATTICE: Tuple[Fidelity, ...] = tuple(
    _lattice_point(index, *knobs)
    for index, knobs in enumerate(product(*(range(n) for n in _SHAPE)))
)


def fidelity_at(quality_idx: int, resolution_idx: int, sampling_idx: int,
                crop_idx: int) -> Fidelity:
    """The lattice point with these knob indices (0 = poorest value)."""
    n_q, n_r, n_s, n_c = _SHAPE
    if not (0 <= quality_idx < n_q and 0 <= resolution_idx < n_r
            and 0 <= sampling_idx < n_s and 0 <= crop_idx < n_c):
        raise KnobError(
            f"knob indices out of range: "
            f"{(quality_idx, resolution_idx, sampling_idx, crop_idx)!r}"
        )
    return _LATTICE[
        ((quality_idx * n_r + resolution_idx) * n_s + sampling_idx) * n_c
        + crop_idx
    ]


def fidelity_space() -> Iterator[Fidelity]:
    """Iterate the full 4-D fidelity space F (600 options)."""
    return iter(_LATTICE)


def richest_fidelity() -> Fidelity:
    """The knob-wise maximum of the whole space (the ingest format)."""
    return _LATTICE[-1]


def knobwise_max(options: Sequence[Fidelity]) -> Fidelity:
    """The knob-wise maximum fidelity of ``options`` (used when coalescing).

    The result is the cheapest fidelity that is richer than or equal to every
    input, i.e. the join in the richer-than lattice.
    """
    if not options:
        raise FidelityError("knobwise_max of an empty set")
    return fidelity_at(
        max(f.quality_idx for f in options),
        max(f.resolution_idx for f in options),
        max(f.sampling_idx for f in options),
        max(f.crop_idx for f in options),
    )


def knob_counts() -> Dict[str, int]:
    """Number of possible values per fidelity knob (for overhead analysis)."""
    return {
        "quality": len(QUALITIES),
        "resolution": len(RESOLUTION_ORDER),
        "sampling": len(SAMPLING_RATES),
        "crop": len(CROP_FACTORS),
    }


def fidelity_space_size() -> int:
    """|F| — the number of fidelity options (600 in this reproduction)."""
    sizes = knob_counts().values()
    total = 1
    for n in sizes:
        total *= n
    return total


def downgrades_of(fid: Fidelity) -> List[Fidelity]:
    """All options poorer than or equal to ``fid`` (its down-set in F)."""
    return [f for f in fidelity_space() if fid.richer_equal(f)]
