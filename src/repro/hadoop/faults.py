"""Deterministic fault injection for tasks, nodes, and caches.

The paper evaluates fault tolerance (Sec. 6.4) by injecting *cache
removals* at the start of each window and relies on Hadoop's standard
task-retry machinery for task failures. This module provides both,
driven by a seeded RNG so experiments are exactly repeatable, plus the
knobs the chaos harness (:mod:`repro.chaos`) composes into mid-flight
fault schedules: forced attempt exhaustion (:meth:`FaultInjector.doom`)
and cache *corruption* victims (distinct from cache loss — the file
survives but its content no longer matches its checksum).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.exec import WorkerFaultError

__all__ = ["FaultInjector", "TaskAttemptsExhaustedError", "run_tasks_or_exhaust"]


class TaskAttemptsExhaustedError(RuntimeError):
    """A task failed every one of its allowed attempts.

    In real Hadoop this fails the whole job; the Redoop runtime instead
    catches it, marks the window *degraded* (its caches are rolled back,
    its output is empty) and proceeds with subsequent recurrences — see
    ``docs/fault-tolerance.md``. Subclasses :class:`RuntimeError` so
    pre-existing callers that guarded against the old bare error keep
    working.
    """

    def __init__(self, task_key: str, attempts: int, node_id: Optional[int] = None):
        super().__init__(
            f"task {task_key!r} failed {attempts} attempts"
        )
        self.task_key = task_key
        self.attempts = attempts
        #: Filled in by the runtime when it knows the placement.
        self.node_id = node_id


def run_tasks_or_exhaust(
    backend,
    fn,
    calls,
    *,
    phase: str,
    counters,
    tracer,
    now: float,
    task_key: str,
):
    """Run a task batch through ``backend``, mapping terminal pool loss.

    The supervision layer recovers worker crashes and hangs invisibly
    (retry/rebuild/quarantine); its *terminal* failure — a dead pool
    past the rebuild budget — becomes the same
    :class:`TaskAttemptsExhaustedError` simulated attempt exhaustion
    raises. The Redoop runtime then degrades the window and rolls back
    its caches; plain Hadoop, which has no degraded-window notion, fails
    the whole job.
    """
    try:
        return backend.run_tasks(
            fn,
            calls,
            phase=phase,
            counters=counters,
            tracer=tracer,
            now=now,
        )
    except WorkerFaultError as exc:
        counters.increment("task.exhausted")
        tracer.instant(
            "task.exhausted",
            "fault",
            time=now,
            node_id=None,
            task=task_key,
            attempts=exc.attempts,
        )
        raise TaskAttemptsExhaustedError(task_key, exc.attempts) from exc



@dataclass
class FaultInjector:
    """Injects failures with reproducible randomness.

    Parameters
    ----------
    task_failure_prob:
        Probability in ``[0, 1]`` that any given task *attempt* fails.
        A failed attempt wastes ``failed_attempt_fraction`` of the
        task's duration before the retry starts (Hadoop restarts failed
        tasks, paper Sec. 5, item 1). A probability of exactly 1
        guarantees attempt exhaustion — useful for chaos schedules.
    max_attempts:
        Attempts before the task is declared failed (Hadoop's
        ``mapred.map.max.attempts``, default 4).
    failed_attempt_fraction:
        Fraction of the task duration elapsed when the failure strikes.
    cache_loss_fraction:
        Fraction of cache entries destroyed by :meth:`pick_cache_victims`
        (the Fig. 9 experiment removes caches at each window start).
    cache_corruption_fraction:
        Fraction of cache entries silently corrupted by
        :meth:`pick_corruption_victims` (content tampered in place; the
        registry detects the mismatch on read).
    seed:
        RNG seed.
    """

    task_failure_prob: float = 0.0
    max_attempts: int = 4
    failed_attempt_fraction: float = 0.5
    cache_loss_fraction: float = 0.0
    cache_corruption_fraction: float = 0.0
    seed: int = 0
    _rng: random.Random = field(init=False, repr=False)
    _doomed: Set[str] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.task_failure_prob <= 1.0:
            raise ValueError("task_failure_prob must be in [0, 1]")
        if not 0.0 <= self.cache_loss_fraction <= 1.0:
            raise ValueError("cache_loss_fraction must be in [0, 1]")
        if not 0.0 <= self.cache_corruption_fraction <= 1.0:
            raise ValueError("cache_corruption_fraction must be in [0, 1]")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if not 0.0 < self.failed_attempt_fraction <= 1.0:
            raise ValueError("failed_attempt_fraction must be in (0, 1]")
        self._rng = random.Random(self.seed)
        self._doomed = set()

    # ------------------------------------------------------------------
    # pickling — chaos schedules must survive repro.service checkpoints,
    # so the RNG's position is serialised explicitly (a version-stable
    # state tuple) instead of relying on the Random object's own pickle.
    # ------------------------------------------------------------------

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state["_rng"] = self._rng.getstate()
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        rng_state = state.pop("_rng")
        self.__dict__.update(state)
        self._rng = random.Random()
        self._rng.setstate(rng_state)

    # ------------------------------------------------------------------
    # task failures
    # ------------------------------------------------------------------

    def doom(self, task_key_substring: str) -> None:
        """Doom the next task whose key contains ``task_key_substring``.

        The doomed task fails all of its attempts regardless of
        ``task_failure_prob`` and raises
        :class:`TaskAttemptsExhaustedError`. The doom is one-shot: the
        first matching task consumes it, so the re-execution in a later
        window succeeds.
        """
        if not task_key_substring:
            raise ValueError("doom needs a non-empty task-key substring")
        self._doomed.add(task_key_substring)

    def doomed(self) -> List[str]:
        """Pending one-shot dooms (monitoring/testing)."""
        return sorted(self._doomed)

    def attempt_duration(
        self, task_key: str, duration: float
    ) -> Tuple[float, int]:
        """Total time spent on ``task_key`` including failed attempts.

        Returns ``(effective_duration, retries)``. Raises
        :class:`TaskAttemptsExhaustedError` if the task exhausts
        ``max_attempts`` — in real Hadoop that fails the whole job; the
        Redoop runtime degrades the window instead (Sec. 5 rollback plus
        graceful degradation).
        """
        for marker in sorted(self._doomed):
            if marker in task_key:
                self._doomed.discard(marker)
                raise TaskAttemptsExhaustedError(task_key, self.max_attempts)
        if self.task_failure_prob == 0.0:
            return duration, 0
        total = 0.0
        for attempt in range(self.max_attempts):
            if self._rng.random() >= self.task_failure_prob:
                return total + duration, attempt
            total += duration * self.failed_attempt_fraction
        raise TaskAttemptsExhaustedError(task_key, self.max_attempts)

    # ------------------------------------------------------------------
    # cache failures
    # ------------------------------------------------------------------

    def pick_cache_victims(
        self, cache_ids: Sequence[str], *, fraction: Optional[float] = None
    ) -> List[str]:
        """Choose which cache entries to destroy this round.

        Selects ``fraction`` (default: ``cache_loss_fraction``) of
        ``cache_ids`` (at least one when the fraction is non-zero and
        any caches exist), sampling without replacement.
        """
        if fraction is None:
            fraction = self.cache_loss_fraction
        if fraction == 0.0 or not cache_ids:
            return []
        k = max(1, round(len(cache_ids) * fraction))
        k = min(k, len(cache_ids))
        return sorted(self._rng.sample(list(cache_ids), k))

    def pick_corruption_victims(
        self, cache_ids: Sequence[str], *, fraction: Optional[float] = None
    ) -> List[str]:
        """Choose which cache entries to silently corrupt this round."""
        if fraction is None:
            fraction = self.cache_corruption_fraction
        return self.pick_cache_victims(cache_ids, fraction=fraction)

    def pick_node_victim(self, node_ids: Sequence[int]) -> int:
        """Choose a node to kill (for slave-failure experiments)."""
        if not node_ids:
            raise ValueError("no nodes to choose a victim from")
        return self._rng.choice(list(node_ids))
