"""Fidelity knobs and the richer-than partial order (Table 1, Section 2.3)."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repro.errors import FidelityError, KnobError
from repro.video.fidelity import (
    CROP_FACTORS,
    Fidelity,
    QUALITIES,
    RESOLUTION_ORDER,
    RESOLUTIONS,
    SAMPLING_RATES,
    fidelity_at,
    fidelity_space,
    fidelity_space_size,
    knob_counts,
    knobwise_max,
    richest_fidelity,
)

fidelities = st.builds(
    Fidelity,
    quality=st.sampled_from(QUALITIES),
    resolution=st.sampled_from(RESOLUTION_ORDER),
    sampling=st.sampled_from(SAMPLING_RATES),
    crop=st.sampled_from(CROP_FACTORS),
)


def test_knob_domains_match_table1():
    counts = knob_counts()
    assert counts == {"quality": 4, "resolution": 10, "sampling": 5, "crop": 3}
    assert fidelity_space_size() == 600


def test_space_enumerates_exactly_once():
    space = list(fidelity_space())
    assert len(space) == 600
    assert len(set(space)) == 600


def test_illegal_knob_values_rejected():
    with pytest.raises(KnobError):
        Fidelity("great", "720p", Fraction(1), 1.0)
    with pytest.raises(KnobError):
        Fidelity("best", "480p", Fraction(1), 1.0)
    with pytest.raises(KnobError):
        Fidelity("best", "720p", Fraction(1, 3), 1.0)
    with pytest.raises(KnobError):
        Fidelity("best", "720p", Fraction(1), 0.9)


def test_pixels_monotone_in_resolution_order():
    pixel_counts = [RESOLUTIONS[r][0] * RESOLUTIONS[r][1] for r in RESOLUTION_ORDER]
    assert pixel_counts == sorted(pixel_counts)


def test_dimensions_apply_crop():
    f = Fidelity("best", "720p", Fraction(1), 0.5)
    assert f.dimensions == (640, 360)
    assert f.pixels == 640 * 360


def test_fps_follows_sampling():
    assert Fidelity("best", "720p", Fraction(1, 30), 1.0).fps == 1.0
    assert Fidelity("best", "720p", Fraction(1), 1.0).fps == 30.0


def test_label_round_trip():
    f = Fidelity("good", "540p", Fraction(1, 6), 0.75)
    assert f.label == "good-540p-1/6-75%"
    assert Fidelity.parse(f.label) == f


def test_parse_rejects_malformed():
    with pytest.raises(KnobError):
        Fidelity.parse("good-540p-1/6")
    with pytest.raises(KnobError):
        Fidelity.parse("good-540p-1/6-75")


def test_richest_is_ingest_format():
    top = richest_fidelity()
    assert top.label == "best-720p-1-100%"
    assert all(top.richer_equal(f) for f in fidelity_space())


def test_richer_than_strict_vs_equal():
    a = Fidelity("good", "540p", Fraction(1, 2), 1.0)
    b = Fidelity("good", "540p", Fraction(1, 6), 1.0)
    assert a.richer_than(b)
    assert a.richer_equal(a)
    assert not a.richer_than(a)


def test_incomparable_pair_from_paper():
    # good-50%-720p-1/2 vs bad-100%-540p-1 (Section 2.3).
    x = Fidelity("good", "720p", Fraction(1, 2), 0.5)
    y = Fidelity("bad", "540p", Fraction(1), 1.0)
    assert not x.richer_equal(y)
    assert not y.richer_equal(x)
    assert not x.comparable(y)


@given(fidelities, fidelities)
def test_partial_order_antisymmetry(a, b):
    if a.richer_equal(b) and b.richer_equal(a):
        assert a == b


@given(fidelities, fidelities, fidelities)
def test_partial_order_transitivity(a, b, c):
    if a.richer_equal(b) and b.richer_equal(c):
        assert a.richer_equal(c)


@given(fidelities, fidelities)
def test_knobwise_max_is_least_upper_bound(a, b):
    top = knobwise_max([a, b])
    assert top.richer_equal(a) and top.richer_equal(b)
    # No strictly poorer option is also an upper bound.
    for other in fidelity_space():
        if top.richer_than(other):
            assert not (other.richer_equal(a) and other.richer_equal(b))


@given(fidelities)
def test_knobwise_max_idempotent(a):
    assert knobwise_max([a, a]) == a


def test_knobwise_max_empty_rejected():
    with pytest.raises(FidelityError):
        knobwise_max([])


# -- the interned lattice -------------------------------------------------

LATTICE = list(fidelity_space())


def _reference_indices(f):
    """Knob indices straight from the knob tables."""
    return (QUALITIES.index(f.quality), RESOLUTION_ORDER.index(f.resolution),
            SAMPLING_RATES.index(f.sampling), CROP_FACTORS.index(f.crop))


def _equal_but_differently_typed(f):
    """Argument tuples equal to ``f``'s knob values in other types."""
    samplings = [Fraction(2 * f.sampling.numerator,
                          2 * f.sampling.denominator)]
    if f.sampling.denominator in (1, 2):  # exact as a float
        samplings.append(float(f.sampling))
    if f.sampling == 1:
        samplings.append(1)
    crops = [Fraction(f.crop)]
    if f.crop == 1.0:
        crops.append(1)
    return [(f.quality, f.resolution, s, c) for s in samplings for c in crops]


def test_lattice_is_indexed_in_space_order():
    assert [f.index for f in LATTICE] == list(range(600))
    assert [hash(f) for f in LATTICE] == list(range(600))
    for f in LATTICE:
        assert (f.quality_idx, f.resolution_idx, f.sampling_idx,
                f.crop_idx) == _reference_indices(f)
        assert fidelity_at(*_reference_indices(f)) is f


def test_differently_typed_arguments_give_the_canonical_point():
    for f in LATTICE:
        fields = (f.quality, f.resolution, f.sampling, f.crop)
        for args in _equal_but_differently_typed(f):
            g = Fidelity(*args)
            assert g == f and g is f and hash(g) == hash(f)
            kw = Fidelity(quality=args[0], resolution=args[1],
                          sampling=args[2], crop=args[3])
            assert kw is f
        # The canonical instance kept its own values and their types.
        assert (f.quality, f.resolution, f.sampling, f.crop) == fields
        assert type(f.sampling) is Fraction and type(f.crop) is float
        assert f.sampling in SAMPLING_RATES and f.crop in CROP_FACTORS
    top = Fidelity("best", "720p", 1, 1)
    assert repr(top) == ("Fidelity(quality='best', resolution='720p', "
                         "sampling=Fraction(1, 1), crop=1.0)")


def test_parse_pickle_and_deepcopy_round_trip():
    for f in LATTICE:
        for g in (Fidelity.parse(f.label), pickle.loads(pickle.dumps(f)),
                  copy.deepcopy(f), copy.copy(f)):
            assert g == f and hash(g) == hash(f) and g is f


def test_cached_quantities_match_their_definitions():
    for f in LATTICE:
        w, h = RESOLUTIONS[f.resolution]
        assert f.dimensions == (int(round(w * f.crop)),
                                int(round(h * f.crop)))
        assert f.pixels == f.dimensions[0] * f.dimensions[1]
        assert f.fps == float(30 * f.sampling)
        assert f.label == (f"{f.quality}-{f.resolution}-{f.sampling}"
                           f"-{int(f.crop * 100)}%")


def test_lattice_points_are_frozen():
    f = LATTICE[17]
    with pytest.raises(AttributeError):
        f.crop = 0.5
    with pytest.raises(AttributeError):
        f.index = 3
    assert f.crop == CROP_FACTORS[f.crop_idx] and f.index == 17


def test_order_and_join_agree_with_the_knob_tables():
    ref = {f: _reference_indices(f) for f in LATTICE}
    for a in LATTICE:
        ra = ref[a]
        for b in LATTICE:
            rb = ref[b]
            below = all(x >= y for x, y in zip(ra, rb))
            assert a.richer_equal(b) == below
        for b in LATTICE[a.index % 7::7]:
            join = tuple(max(x, y) for x, y in zip(ra, ref[b]))
            assert ref[knobwise_max([a, b])] == join


def test_illegal_knob_values_raise_knob_error():
    for bad in (("great", "720p", Fraction(1), 1.0),
                ("best", "480p", Fraction(1), 1.0),
                ("best", "720p", Fraction(1, 3), 1.0),
                ("best", "720p", 0.3, 1.0),
                ("best", "720p", Fraction(1), 0.9),
                ("best", "720p", Fraction(1), None),
                (None, "720p", Fraction(1), 1.0),
                ("best", "720p", [1], 1.0)):
        with pytest.raises(KnobError):
            Fidelity(*bad)
    for bad in ((4, 0, 0, 0), (0, 10, 0, 0), (0, 0, 5, 0), (0, 0, 0, 3),
                (-1, 0, 0, 0)):
        with pytest.raises(KnobError):
            fidelity_at(*bad)
    with pytest.raises(KnobError):
        Fidelity.parse("best-720p-1/3-100%")
