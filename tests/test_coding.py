"""Coding knobs (Table 1)."""

import copy
import pickle

import pytest

from repro.errors import KnobError
from repro.video.coding import (
    Coding,
    KEYFRAME_INTERVALS,
    RAW,
    SPEED_STEPS,
    coding_space,
    coding_space_size,
)


def test_domains_match_table1():
    assert SPEED_STEPS == ("slowest", "slow", "med", "fast", "fastest")
    assert KEYFRAME_INTERVALS == (5, 10, 50, 100, 250)
    assert coding_space_size() == 26
    assert coding_space_size(include_raw=False) == 25


def test_space_contains_raw_once():
    space = list(coding_space())
    assert space.count(RAW) == 1
    assert len(set(space)) == 26


def test_raw_takes_no_knobs():
    assert RAW.raw
    with pytest.raises(KnobError):
        Coding(speed_step="fast", raw=True)
    with pytest.raises(KnobError):
        _ = RAW.speed_idx


def test_illegal_values_rejected():
    with pytest.raises(KnobError):
        Coding(speed_step="turbo", keyframe_interval=250)
    with pytest.raises(KnobError):
        Coding(speed_step="fast", keyframe_interval=7)


def test_label_round_trip():
    c = Coding(speed_step="med", keyframe_interval=50)
    assert c.label == "50-med"
    assert Coding.parse(c.label) == c
    assert Coding.parse("RAW") == RAW


def test_parse_rejects_malformed():
    with pytest.raises(KnobError):
        Coding.parse("garbage")


def test_speed_idx_order():
    assert Coding("slowest", 250).speed_idx == 0
    assert Coding("fastest", 250).speed_idx == 4


# -- the interned options ---------------------------------------------------

SPACE = list(coding_space())


def test_options_are_indexed_in_space_order():
    assert [c.index for c in SPACE] == list(range(26))
    assert [hash(c) for c in SPACE] == list(range(26))
    assert SPACE[-1] is RAW
    for c in SPACE[:-1]:
        assert c.speed_idx == SPEED_STEPS.index(c.speed_step)
        assert c.index == (KEYFRAME_INTERVALS.index(c.keyframe_interval)
                           * len(SPEED_STEPS) + c.speed_idx)


def test_differently_typed_arguments_give_the_canonical_option():
    for c in SPACE[:-1]:
        fields = (c.speed_step, c.keyframe_interval, c.raw)
        for args in ((c.speed_step, float(c.keyframe_interval)),
                     (c.speed_step, c.keyframe_interval, 0)):
            assert Coding(*args) is c and Coding(*args) == c
        assert (c.speed_step, c.keyframe_interval, c.raw) == fields
        assert type(c.keyframe_interval) is int and c.raw is False
    assert Coding(raw=1) is RAW and RAW.raw is True


def test_parse_pickle_and_deepcopy_round_trip():
    for c in SPACE:
        for d in (Coding.parse(c.label), pickle.loads(pickle.dumps(c)),
                  copy.deepcopy(c), copy.copy(c)):
            assert d == c and hash(d) == hash(c) and d is c


def test_illegal_coding_values_raise_knob_error():
    for kwargs in ({}, {"speed_step": "fast"}, {"keyframe_interval": 10},
                   {"speed_step": "fast", "keyframe_interval": 11},
                   {"speed_step": None, "keyframe_interval": 10},
                   {"speed_step": "fast", "keyframe_interval": 10,
                    "raw": True},
                   {"keyframe_interval": 10, "raw": True}):
        with pytest.raises(KnobError):
            Coding(**kwargs)
    with pytest.raises(KnobError):
        Coding.parse("10-turbo")
