"""Unit tests for repro.hadoop.simclock."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hadoop.simclock import SimClock


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_custom_start(self):
        assert SimClock(5.0).now == 5.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimClock(-1.0)

    def test_advance(self):
        clock = SimClock()
        assert clock.advance(2.5) == 2.5
        assert clock.now == 2.5

    def test_advance_negative_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-0.1)

    def test_advance_to(self):
        clock = SimClock(1.0)
        clock.advance_to(4.0)
        assert clock.now == 4.0

    def test_advance_to_same_time_is_noop(self):
        clock = SimClock(3.0)
        clock.advance_to(3.0)
        assert clock.now == 3.0

    def test_advance_to_past_rejected(self):
        clock = SimClock(3.0)
        with pytest.raises(ValueError):
            clock.advance_to(2.9)

    @given(st.lists(st.floats(0, 100), max_size=20))
    def test_monotonic_property(self, deltas):
        clock = SimClock()
        prev = clock.now
        for d in deltas:
            clock.advance(d)
            assert clock.now >= prev
            prev = clock.now
