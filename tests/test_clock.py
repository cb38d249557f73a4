"""Simulated clock accounting."""

import pytest

from repro.clock import SimClock


def test_charge_advances_clock():
    clock = SimClock()
    clock.charge(1.5, "decode")
    clock.charge(0.5, "decode")
    clock.charge(2.0, "consume")
    assert clock.now == pytest.approx(4.0)
    assert clock.spent("decode") == pytest.approx(2.0)
    assert clock.spent("consume") == pytest.approx(2.0)
    assert clock.spent("never") == 0.0


def test_negative_charge_rejected():
    clock = SimClock()
    with pytest.raises(ValueError):
        clock.charge(-1.0)


def test_default_category():
    clock = SimClock()
    clock.charge(1.0)
    assert clock.spent("other") == 1.0


def test_advance_to_charges_the_difference():
    clock = SimClock()
    clock.charge(1.0, "decode")
    clock.advance_to(3.5, "wait")
    assert clock.now == pytest.approx(3.5)
    assert clock.spent("wait") == pytest.approx(2.5)


def test_advance_to_same_instant_is_a_noop():
    clock = SimClock()
    clock.charge(2.0, "decode")
    clock.advance_to(2.0, "wait")  # same instant: a no-op
    assert clock.now == pytest.approx(2.0)
    assert clock.spent("wait") == 0.0


def test_advance_to_within_float_epsilon_is_a_noop():
    """Absolute event times are sums of float durations: two paths to the
    same instant may disagree by ulps, and that regression is tolerated."""
    clock = SimClock()
    clock.charge(2.0, "decode")
    clock.advance_to(2.0 - 1e-12, "wait")
    assert clock.now == pytest.approx(2.0)
    assert clock.spent("wait") == 0.0


def test_advance_to_the_past_raises():
    """Regression: backwards jumps of any magnitude used to be silently
    ignored, masking event-ordering bugs upstream."""
    clock = SimClock()
    clock.charge(2.0, "decode")
    with pytest.raises(ValueError):
        clock.advance_to(1.0, "wait")
    with pytest.raises(ValueError):
        clock.advance_to(2.0 - 1e-6, "wait")
    assert clock.now == pytest.approx(2.0)  # the failed jump changed nothing
