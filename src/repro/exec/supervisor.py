"""Worker supervision for the process-pool execution backend.

A real worker pool has failure modes the simulator's metadata-level
fault injection never exercises: a worker segfaults or is OOM-killed
(``BrokenProcessPool``), a worker wedges forever (``future.result()``
with no timeout never returns), a pool cannot be (re)started at all.
:class:`WorkerSupervisor` owns the ``ProcessPoolExecutor`` lifecycle
and runs every batch under a recovery ladder:

1. **per-batch deadline** — results are gathered with a bounded
   timeout; when it expires the surviving workers are reaped
   (terminated, not joined) so a hung worker can never wedge a run;
2. **broken-pool detection and bounded rebuild** — a crashed worker
   breaks the pool; the supervisor rebuilds it (at most
   ``max_pool_rebuilds`` times per batch) and retries the tasks that
   had no result yet;
3. **per-task retry with deterministic backoff** — each lost task is
   retried up to ``max_task_retries`` times; the pause between rebuild
   rounds follows the deterministic schedule
   ``min(cap, base * factor**(round-1))`` and is *accounted* (counters,
   trace instants at virtual time) without ever touching the cost
   model's virtual clock;
4. **poison-task quarantine** — a task that exhausts its retries is
   re-run serially in the coordinator process, where a genuine
   user-code exception surfaces exactly as it would on the serial
   backend;
5. **terminal path** — when the rebuild budget is spent,
   :class:`WorkerFaultError` is raised; the runtime funnels it into
   ``TaskAttemptsExhaustedError`` → degraded window → cache rollback,
   so a dead pool can never corrupt window digests or published reuse
   artifacts.

Because task bodies are pure and results are kept in submission order,
retries and quarantines are invisible in the output: the worker-fault
differential oracle pins the digests of a process run under real
worker faults to a fault-free serial run, byte for byte.

Like the rest of ``repro.exec`` this module has zero repro-internal
imports, so it can never participate in an import cycle.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import BrokenExecutor, Executor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .worker_faults import WorkerFault, WorkerFaultPlan, faulty_invoke

__all__ = [
    "BatchStats",
    "SupervisionConfig",
    "WorkerFaultError",
    "WorkerSupervisor",
]


class WorkerFaultError(RuntimeError):
    """Terminal worker-pool failure: the batch could not be completed.

    Raised when the pool-rebuild budget is exhausted with tasks still
    unrecovered. Carries enough for the runtime to translate into its
    ``TaskAttemptsExhaustedError`` degradation path and for the
    backend to flush the partial recovery accounting first.
    """

    def __init__(
        self,
        reason: str,
        *,
        tasks_lost: int,
        attempts: int,
        stats: "BatchStats",
    ) -> None:
        super().__init__(
            f"{reason}: {tasks_lost} task(s) unrecovered after "
            f"{stats.rebuilds} pool rebuild(s)"
        )
        self.reason = reason
        self.tasks_lost = tasks_lost
        #: Worst per-task attempt count when the batch died.
        self.attempts = attempts
        self.stats = stats


@dataclass(frozen=True)
class SupervisionConfig:
    """Tunable knobs of the recovery ladder (all physical seconds)."""

    #: Wall-clock budget for one gather round of a batch; ``None``
    #: disables the deadline (then a hung worker blocks forever, so
    #: hang injection refuses to arm without one).
    batch_deadline: Optional[float] = 120.0
    #: Retries per task before it is quarantined to in-process serial.
    max_task_retries: int = 2
    #: Pool rebuilds per batch before the terminal path.
    max_pool_rebuilds: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_cap: float = 1.0

    def __post_init__(self) -> None:
        if self.batch_deadline is not None and self.batch_deadline <= 0:
            raise ValueError("batch_deadline must be positive or None")
        if self.max_task_retries < 0 or self.max_pool_rebuilds < 0:
            raise ValueError("retry/rebuild budgets are non-negative")

    def backoff(self, round_no: int) -> float:
        """Deterministic pause before rebuild round ``round_no`` (1-based)."""
        return min(
            self.backoff_cap,
            self.backoff_base * self.backoff_factor ** max(0, round_no - 1),
        )

    def hang_seconds(self) -> float:
        """Sleep long enough that only a deadline reap ends the task."""
        if self.batch_deadline is None:
            raise ValueError(
                "hang injection needs a batch deadline; an undeadlined "
                "pool would wedge forever"
            )
        return self.batch_deadline * 4 + 1.0


@dataclass(slots=True)
class BatchStats:
    """Recovery accounting for one batch (flushed to ``exec.*``)."""

    retries: int = 0
    worker_lost: int = 0
    quarantined: int = 0
    rebuilds: int = 0
    deadline_reaps: int = 0
    backoff_seconds: float = 0.0

    def any(self) -> bool:
        return bool(
            self.retries
            or self.worker_lost
            or self.quarantined
            or self.rebuilds
            or self.deadline_reaps
        )


class _DoneCounter:
    """Thread-safe completion count for the incremental queue probe."""

    __slots__ = ("_n", "_lock")

    def __init__(self) -> None:
        self._n = 0
        self._lock = threading.Lock()

    def hit(self, _future) -> None:
        with self._lock:
            self._n += 1

    def value(self) -> int:
        with self._lock:
            return self._n


_UNSET = object()

#: Lane key for tasks the quarantine ran in the coordinator process.
WorkerKey = Tuple[int, int]


class WorkerSupervisor:
    """Owns the process pool and runs batches under the recovery ladder.

    The owning backend keeps the inline fallback and the counter /
    trace plumbing; the supervisor keeps everything that can break: the
    executor handle, the armed worker faults, and the retry loop.
    """

    def __init__(
        self, workers: int, config: Optional[SupervisionConfig] = None
    ) -> None:
        self.workers = workers
        self.config = config or SupervisionConfig()
        self._pool: Optional[Executor] = None
        #: Set when process pools cannot start in this environment.
        self._unavailable = False
        #: First-attempt task ordinal -> armed fault (chaos-controlled).
        self._armed: Dict[int, WorkerFault] = {}
        #: First-attempt submissions seen over the supervisor lifetime.
        self._ordinal = 0
        #: Stats of the most recent batch (read by the backend's
        #: accounting; the coordinator is single-threaded).
        self.last_stats: Optional[BatchStats] = None

    # -- pool lifecycle -------------------------------------------------

    def pool(self) -> Optional[Executor]:
        """The live executor, lazily created; ``None`` if unavailable."""
        if self._unavailable:
            return None
        if self._pool is None:
            try:
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
            except (OSError, PermissionError, ValueError):
                self._unavailable = True
                return None
        return self._pool

    def healthy(self) -> bool:
        """No broken pool left behind (the chaos invariant checker's
        view: the supervisor either rebuilt the pool or raised)."""
        return self._pool is None or not getattr(self._pool, "_broken", False)

    def reap(self) -> None:
        """Terminate every worker and drop the pool handle.

        Used both for hung-worker reaping (deadline expiry: workers may
        be wedged, so ``terminate`` — never ``join`` first) and for
        clearing a broken pool before a rebuild.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        procs = list(getattr(pool, "_processes", {}).values() or ())
        for proc in procs:
            try:
                proc.terminate()
            except Exception:
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        for proc in procs:
            try:
                proc.join(timeout=1.0)
            except Exception:
                pass

    def close(self) -> None:
        """Orderly shutdown (idempotent). A broken pool is reaped."""
        pool = self._pool
        if pool is None:
            return
        if getattr(pool, "_broken", False):
            self.reap()
            return
        self._pool = None
        pool.shutdown(wait=True, cancel_futures=True)

    # -- fault arming (chaos events, plans, CLI flags) ------------------

    def arm(self, kind: str, count: int = 1) -> None:
        """Arm ``count`` faults on the next free first-attempt ordinals."""
        if count < 1:
            raise ValueError("count must be >= 1")
        if kind == "kill":
            fault = WorkerFault("kill")
        elif kind == "hang":
            fault = WorkerFault("hang", seconds=self.config.hang_seconds())
        elif kind == "slow":
            fault = WorkerFault("slow", seconds=0.05)
        else:
            raise ValueError(f"unknown worker fault kind {kind!r}")
        ordinal = self._ordinal
        for _ in range(count):
            while ordinal in self._armed:
                ordinal += 1
            self._armed[ordinal] = fault
            ordinal += 1

    def arm_plan(self, plan: WorkerFaultPlan) -> None:
        """Arm a seeded scattering of faults starting at the current ordinal."""
        hang_seconds = (
            self.config.hang_seconds() if plan.hangs else 1.0
        )
        self._armed.update(
            plan.assign(self._ordinal, hang_seconds=hang_seconds)
        )

    def pending_faults(self) -> int:
        return len(self._armed)

    def drain_faults(self) -> int:
        """Discard unconsumed faults; returns how many were dropped."""
        n = len(self._armed)
        self._armed.clear()
        return n

    def _take_fault(self) -> Optional[WorkerFault]:
        fault = self._armed.pop(self._ordinal, None)
        self._ordinal += 1
        return fault

    # -- the supervised batch loop --------------------------------------

    def run_batch(
        self, fn: Callable[..., Any], calls: Sequence[Tuple[tuple, dict]]
    ) -> Tuple[List[Any], Dict[WorkerKey, Tuple[int, float]], int, BatchStats]:
        """Execute one batch with deadlines, retries, and quarantine.

        Returns ``(results, raw_lanes, queue_peak, stats)`` with results
        in submission order. Raises :class:`WorkerFaultError` when the
        rebuild budget is exhausted with tasks still unrecovered, and
        re-raises any genuine user-code exception (via the quarantine)
        untouched.
        """
        cfg = self.config
        n = len(calls)
        results: List[Any] = [_UNSET] * n
        attempts = [0] * n
        lanes: Dict[WorkerKey, Tuple[int, float]] = {}
        stats = BatchStats()
        self.last_stats = stats
        queue_peak = 0
        # Faults bind to first attempts by global ordinal, in submission
        # order — deterministic for a given workload + arming sequence.
        faults: Dict[int, WorkerFault] = {}
        for i in range(n):
            fault = self._take_fault()
            if fault is not None:
                faults[i] = fault
        pending = list(range(n))
        while pending:
            pool = self.pool()
            if pool is None:
                raise WorkerFaultError(
                    "process pool unavailable mid-batch",
                    tasks_lost=len(pending),
                    attempts=max((attempts[i] for i in pending), default=0),
                    stats=stats,
                )
            done = _DoneCounter()
            futures: Dict[int, Any] = {}
            failed = False
            for i in pending:
                fault = faults.pop(i, None) if attempts[i] == 0 else None
                args, kwargs = calls[i]
                try:
                    future = pool.submit(faulty_invoke, fault, fn, args, kwargs)
                except BrokenExecutor:
                    # A fault fired while the rest of the batch was
                    # still being submitted; the unsubmitted tail goes
                    # straight to the retry round.
                    stats.worker_lost += 1
                    failed = True
                    break
                future.add_done_callback(done.hit)
                futures[i] = future
                in_flight = len(futures) - done.value()
                queue_peak = max(queue_peak, in_flight - self.workers)

            if not failed:
                deadline = (
                    time.monotonic() + cfg.batch_deadline
                    if cfg.batch_deadline is not None
                    else None
                )
                for i in pending:
                    try:
                        if deadline is not None:
                            remaining = deadline - time.monotonic()
                            payload = futures[i].result(
                                timeout=max(0.0, remaining)
                            )
                        else:
                            payload = futures[i].result()
                    except FuturesTimeoutError:
                        stats.deadline_reaps += 1
                        stats.worker_lost += 1
                        failed = True
                        break
                    except BrokenExecutor:
                        stats.worker_lost += 1
                        failed = True
                        break
                    self._record(lanes, results, i, payload)
            if not failed:
                break

            # Harvest results that completed before the break, without
            # blocking; everything else survives to the retry round.
            survivors: List[int] = []
            for i in pending:
                if results[i] is not _UNSET:
                    continue
                future = futures.get(i)
                if future is not None and future.done():
                    try:
                        self._record(lanes, results, i, future.result(timeout=0))
                        continue
                    except Exception:
                        pass
                survivors.append(i)

            self.reap()
            stats.rebuilds += 1
            if stats.rebuilds > cfg.max_pool_rebuilds:
                raise WorkerFaultError(
                    "pool rebuild budget exhausted",
                    tasks_lost=len(survivors),
                    attempts=max((attempts[i] + 1 for i in survivors), default=0),
                    stats=stats,
                )
            retry: List[int] = []
            for i in survivors:
                attempts[i] += 1
                if attempts[i] > cfg.max_task_retries:
                    # Poison-task quarantine: run the offending call
                    # serially in-process. A genuine user-code error
                    # surfaces here exactly as the serial backend would
                    # raise it; an injection-victim simply succeeds.
                    args, kwargs = calls[i]
                    t0 = time.perf_counter()
                    result = fn(*args, **kwargs)
                    wall = time.perf_counter() - t0
                    self._record(
                        lanes,
                        results,
                        i,
                        (os.getpid(), threading.get_ident(), wall, result),
                    )
                    stats.quarantined += 1
                else:
                    retry.append(i)
                    stats.retries += 1
            pending = retry
            if pending:
                pause = cfg.backoff(stats.rebuilds)
                stats.backoff_seconds += pause
                time.sleep(pause)
        return results, lanes, queue_peak, stats

    @staticmethod
    def _record(lanes, results, index, payload) -> None:
        pid, ident, wall, result = payload
        tasks, busy = lanes.get((pid, ident), (0, 0.0))
        lanes[(pid, ident)] = (tasks + 1, busy + wall)
        results[index] = result

    # -- checkpoint safety ----------------------------------------------

    def __getstate__(self):
        state = self.__dict__.copy()
        # Live executors never ride a checkpoint; armed faults are
        # transient chaos state and a restored supervisor starts clean
        # (ordinal 0, healthy, re-probing pool availability).
        state["_pool"] = None
        state["_unavailable"] = False
        state["_armed"] = {}
        state["_ordinal"] = 0
        state["last_stats"] = None
        return state
