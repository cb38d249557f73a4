"""Unit helpers."""

from repro.units import (
    DAY,
    GB,
    KB,
    MB,
    SEGMENT_SECONDS,
    TB,
    bytes_per_day,
    fmt_bytes,
    fmt_speed,
)


def test_binary_units_scale():
    assert MB == 1024 * KB
    assert GB == 1024 * MB
    assert TB == 1024 * GB


def test_day_seconds():
    assert DAY == 86400.0


def test_segment_length_matches_paper():
    assert SEGMENT_SECONDS == 8.0


def test_bytes_per_day():
    assert bytes_per_day(1.0) == 86400.0


def test_fmt_bytes_picks_unit():
    assert fmt_bytes(512) == "512 B"
    assert fmt_bytes(2048) == "2.00 KB"
    assert fmt_bytes(3 * GB) == "3.00 GB"


def test_fmt_speed_forms():
    assert fmt_speed(float("inf")) == "inf"
    assert fmt_speed(12000) == "12.0k x"
    assert fmt_speed(150) == "150x"
    assert fmt_speed(2.5) == "2.5x"
