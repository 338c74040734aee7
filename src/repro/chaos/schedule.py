"""Declarative, seeded, replayable fault schedules.

A :class:`ChaosSchedule` is a sorted list of :class:`ChaosEvent`s, each
pinned to a virtual time. ``run_redoop_series(config, schedule=...)``
applies an event as soon as its ingest/execute loop passes its ``at``
time — between batch arrivals, not just at window boundaries — so
faults land mid-recurrence the way real failures do. A batch ending at
``t`` lands before an event at exactly ``t``; an event later than the
last window's due time is never applied.

Schedules serialise to JSON (:meth:`ChaosSchedule.to_json`) so a failing
randomized run can be attached to a CI artifact and replayed bit-for-bit
with :meth:`ChaosSchedule.from_json`.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from typing import List, Optional, Sequence, Tuple

__all__ = ["ChaosEvent", "ChaosSchedule", "EVENT_KINDS"]

#: Every fault domain the harness can inject.
EVENT_KINDS = (
    "task-kill",       # transient task failures: set task_failure_prob
    "task-exhaust",    # doom one task to burn all attempts (degraded window)
    "node-kill",       # fail a slave node (slots, local caches, replicas)
    "node-recover",    # bring a failed node back, empty
    "cache-loss",      # destroy a fraction of live caches (rollback applies)
    "pane-loss",       # destroy every cache of a fraction of panes (Fig. 9)
    "cache-corrupt",   # silently tamper a fraction of live caches
    "slow-node",       # straggler: change one node's relative speed
    "ingest-burst",    # deliver the next N batches ahead of schedule
    "worker-kill",     # crash real pool workers (os._exit) on next tasks
    "worker-hang",     # hang real pool workers past the batch deadline
)


@dataclass(frozen=True)
class ChaosEvent:
    """One injected fault, pinned to a virtual time.

    Which optional fields matter depends on ``kind``:

    =============  ==================================================
    kind           parameters
    =============  ==================================================
    task-kill      ``prob`` (new task_failure_prob; 0 restores calm)
    task-exhaust   ``doom`` (task-key substring, one-shot)
    node-kill      ``node_id`` (``None``: seeded pick among live nodes)
    node-recover   ``node_id`` (``None``: the longest-dead node)
    cache-loss     ``fraction``, ``cache_type`` (``None`` = both)
    pane-loss      ``fraction`` (of panes; all their caches go)
    cache-corrupt  ``fraction``, ``cache_type``
    slow-node      ``node_id``, ``speed`` (1.0 restores full speed)
    ingest-burst   ``count`` (batches delivered early)
    worker-kill    ``count`` (tasks armed to crash their worker; 1)
    worker-hang    ``count`` (tasks armed to hang their worker; 1)
    =============  ==================================================

    The two ``worker-*`` kinds inject *real* process faults: they arm
    the runtime's supervised process backend so the next ``count``
    first-attempt pool submissions crash (``os._exit``) or hang past
    the batch deadline inside an actual worker. On a serial backend
    (or one without a deadline, for hangs) the event is skipped —
    ``applied`` stays false, like a ``node-kill`` on the last node.
    """

    at: float
    kind: str
    node_id: Optional[int] = None
    fraction: Optional[float] = None
    cache_type: Optional[int] = None
    prob: Optional[float] = None
    speed: Optional[float] = None
    count: Optional[int] = None
    doom: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown chaos event kind {self.kind!r}; "
                f"expected one of {EVENT_KINDS}"
            )
        if self.at < 0:
            raise ValueError("event times are non-negative virtual seconds")
        if self.kind == "task-kill" and self.prob is None:
            raise ValueError("task-kill needs prob")
        if self.kind == "task-exhaust" and not self.doom:
            raise ValueError("task-exhaust needs a doom task-key substring")
        if (
            self.kind in ("cache-loss", "cache-corrupt", "pane-loss")
            and self.fraction is None
        ):
            raise ValueError(f"{self.kind} needs fraction")
        for name in ("fraction", "prob"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.kind == "slow-node" and (self.node_id is None or self.speed is None):
            raise ValueError("slow-node needs node_id and speed")
        if self.kind == "ingest-burst" and not self.count:
            raise ValueError("ingest-burst needs a positive count")
        if (
            self.kind in ("worker-kill", "worker-hang")
            and self.count is not None
            and self.count < 1
        ):
            raise ValueError(f"{self.kind} count must be positive")

    def describe(self) -> str:
        """One human-readable line for logs and CLI output."""
        params = {
            k: v
            for k, v in asdict(self).items()
            if k not in ("at", "kind") and v is not None
        }
        detail = " ".join(f"{k}={v}" for k, v in sorted(params.items()))
        return f"t={self.at:.0f}s {self.kind}" + (f" ({detail})" if detail else "")


@dataclass(frozen=True)
class ChaosSchedule:
    """An ordered, seeded composition of chaos events.

    ``seed`` drives every random choice downstream of the schedule —
    which node dies, which caches are hit — so one ``(seed, events)``
    pair replays exactly.
    """

    seed: int
    events: Tuple[ChaosEvent, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events, key=lambda e: e.at))
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    # ------------------------------------------------------------------
    # generation
    # ------------------------------------------------------------------

    @classmethod
    def random(
        cls,
        seed: int,
        *,
        horizon: float,
        num_nodes: int,
        num_windows: int,
        slide: float,
        include: Sequence[str] = (
            "task-kill",
            "node-kill",
            "cache-loss",
            "cache-corrupt",
            "slow-node",
        ),
        events_per_window: float = 1.0,
        exhaust_window: Optional[int] = None,
        worker_kills: int = 0,
        worker_hangs: int = 0,
    ) -> "ChaosSchedule":
        """Compose a randomized-but-reproducible schedule.

        The generator keeps the schedule *recoverable by construction*:
        at most one node is down at a time (so re-execution always has
        somewhere to run), every ``node-kill`` is paired with a
        ``node-recover`` before the next kill, cache fractions stay
        below 1.0, and faults start after window 1 (there is nothing
        cached to lose earlier). ``exhaust_window`` additionally dooms
        that window's combine task — the one *non*-recoverable fault,
        expected to surface as a degraded window, not a wrong answer.
        ``worker_kills`` / ``worker_hangs`` scatter that many *real*
        process-fault events (``worker-kill`` / ``worker-hang``) over
        the same horizon; they only bite when the run executes on a
        supervised process backend.
        """
        if num_windows < 2:
            raise ValueError("chaos needs at least two windows")
        rng = random.Random(seed)
        events: List[ChaosEvent] = []
        total = max(1, round(events_per_window * (num_windows - 1)))
        #: End of the current kill/recover interval; a new kill must
        #: start strictly after it so at most one node is ever down.
        node_busy_until = float("-inf")
        # Faults strike inside the ingest stretch of windows 2..N.
        lo, hi = slide, max(slide + 1.0, horizon - 1.0)
        for _ in range(total):
            at = round(rng.uniform(lo, hi), 1)
            kind = rng.choice(list(include))
            if kind == "node-kill":
                if at <= node_busy_until:
                    continue  # would overlap the previous outage: skip
                events.append(ChaosEvent(at=at, kind="node-kill"))
                recover_at = round(
                    min(hi, at + rng.uniform(0.5, 2.0) * slide), 1
                )
                events.append(
                    ChaosEvent(at=recover_at, kind="node-recover")
                )
                node_busy_until = recover_at
            elif kind == "task-kill":
                events.append(
                    ChaosEvent(
                        at=at, kind="task-kill", prob=round(rng.uniform(0.05, 0.4), 2)
                    )
                )
                calm_at = min(hi, at + rng.uniform(0.5, 1.5) * slide)
                events.append(
                    ChaosEvent(at=round(calm_at, 1), kind="task-kill", prob=0.0)
                )
            elif kind in ("cache-loss", "cache-corrupt"):
                events.append(
                    ChaosEvent(
                        at=at,
                        kind=kind,
                        fraction=round(rng.uniform(0.1, 0.6), 2),
                        cache_type=rng.choice([None, 1, 2]),
                    )
                )
            elif kind == "slow-node":
                node_id = rng.randrange(num_nodes)
                events.append(
                    ChaosEvent(
                        at=at,
                        kind="slow-node",
                        node_id=node_id,
                        speed=round(rng.uniform(0.25, 0.75), 2),
                    )
                )
                restore_at = min(hi, at + rng.uniform(0.5, 2.0) * slide)
                events.append(
                    ChaosEvent(
                        at=round(restore_at, 1),
                        kind="slow-node",
                        node_id=node_id,
                        speed=1.0,
                    )
                )
            elif kind == "ingest-burst":
                events.append(
                    ChaosEvent(at=at, kind="ingest-burst", count=rng.randint(1, 4))
                )
            elif kind in ("worker-kill", "worker-hang"):
                events.append(
                    ChaosEvent(at=at, kind=kind, count=rng.randint(1, 2))
                )
        for kind, extra in (
            ("worker-kill", worker_kills),
            ("worker-hang", worker_hangs),
        ):
            for _ in range(extra):
                events.append(
                    ChaosEvent(
                        at=round(rng.uniform(lo, hi), 1), kind=kind, count=1
                    )
                )
        if exhaust_window is not None:
            if not 1 <= exhaust_window <= num_windows:
                raise ValueError("exhaust_window out of range")
            events.append(
                ChaosEvent(
                    at=round(max(0.0, exhaust_window * slide - 1.0), 1),
                    kind="task-exhaust",
                    doom=f"/w{exhaust_window}/",
                )
            )
        return cls(seed=seed, events=tuple(events))

    # ------------------------------------------------------------------
    # serialisation (CI artifacts, replays)
    # ------------------------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "seed": self.seed,
            "events": [
                {k: v for k, v in asdict(e).items() if v is not None}
                for e in self.events
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ChaosSchedule":
        payload = json.loads(text)
        return cls(
            seed=int(payload["seed"]),
            events=tuple(ChaosEvent(**e) for e in payload.get("events", [])),
        )
