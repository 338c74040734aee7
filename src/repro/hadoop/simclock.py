"""Virtual time for the discrete-event cluster simulation.

The simulator never sleeps: all durations produced by the cost model are
added to a :class:`SimClock`. Keeping the clock an explicit object
(rather than a module global) lets tests run many independent
simulations side by side.
"""

from __future__ import annotations

__all__ = ["SimClock"]


class SimClock:
    """A monotonically advancing virtual clock measured in seconds."""

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError("the clock cannot start before time zero")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def advance(self, delta: float) -> float:
        """Move the clock forward by ``delta`` seconds and return the new time.

        Raises
        ------
        ValueError
            If ``delta`` is negative — virtual time never flows backwards.
        """
        if delta < 0:
            raise ValueError(f"cannot advance the clock by {delta!r} seconds")
        self._now += delta
        return self._now

    def advance_to(self, when: float) -> float:
        """Move the clock forward to the absolute time ``when``.

        Advancing to a time in the past is an error; advancing to the
        current time is a no-op, which makes the method safe to call with
        completion times produced by overlapping activities.
        """
        if when < self._now:
            raise ValueError(
                f"cannot rewind the clock from {self._now} to {when}"
            )
        self._now = float(when)
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={self._now:.3f})"
