"""Segments: the unit of storage and erosion."""

from repro.video.segment import (
    Segment,
    segment_index_for,
    segments_for_range,
)


def test_segment_times():
    s = Segment("jackson", 3)
    assert s.t0 == 24.0
    assert s.t1 == 32.0
    assert s.key == "jackson/000000000003"


def test_index_for_time():
    assert segment_index_for(0.0) == 0
    assert segment_index_for(7.999) == 0
    assert segment_index_for(8.0) == 1
    assert segment_index_for(100.0) == 12


def test_segments_for_range_covers_exactly():
    segs = segments_for_range("s", 10.0, 30.0)
    assert [s.index for s in segs] == [1, 2, 3]
    # Boundary-exclusive end: 16.0 ends inside segment 1 only.
    assert [s.index for s in segments_for_range("s", 8.0, 16.0)] == [1]


def test_empty_range():
    assert segments_for_range("s", 10.0, 10.0) == []
    assert segments_for_range("s", 10.0, 5.0) == []
