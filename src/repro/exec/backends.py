"""Pluggable execution backends for map/reduce task user-code.

The simulator separates two concerns that real Hadoop fuses: *when* a
task runs (virtual time, decided by the cost model, the slot simulation
and the cache-aware scheduler) and *what* it computes (the pure data
transformations in :mod:`repro.hadoop.task`). A backend parallelises
only the second concern. The scheduling loops stay sequential and
authoritative for virtual time, so a run's span spine, counters (other
than ``exec.*``), window digests and scheduling decisions are identical
whichever backend executed the task bodies.

Determinism contract
--------------------
``run_tasks`` returns results strictly in **submission order**, however
the pool interleaves completions. Task functions must be pure (no
shared mutable state), which every ``execute_*`` helper in
:mod:`repro.hadoop.task` is. Under that contract serial and parallel
runs are byte-identical — the parity oracle in
``tests/exec/test_parity.py`` enforces it the same way the chaos
differential oracle enforces recovery neutrality.

Fallback ladder
---------------
:class:`ProcessPoolBackend` probes each batch for picklability (the
function *and every call's* arguments must survive ``pickle.dumps``).
Non-picklable jobs run inline on the calling thread, exactly as the
serial backend would (counted in ``exec.pickle_fallbacks``); in an
environment where process pools cannot start at all (sandboxes without
working semaphores) every batch runs inline
(``exec.process_pool_unavailable``). Task bodies are pure Python, so a
thread pool would only have interleaved them under the GIL.

Supervision
-----------
Process-mode batches run under the :class:`~repro.exec.supervisor.
WorkerSupervisor` recovery ladder: per-batch deadlines reap hung
workers, broken pools are rebuilt a bounded number of times, lost
tasks retry with deterministic backoff, poison tasks are quarantined
to in-process serial execution, and a spent rebuild budget raises
:class:`~repro.exec.supervisor.WorkerFaultError` into the runtime's
degraded-window machinery. Recovery is accounted in ``exec.retries``,
``exec.worker_lost``, ``exec.quarantined`` and ``exec.pool_rebuilds``
plus an ``exec.recovery`` trace instant — all at virtual time, never
perturbing the cost model. See ``docs/parallelism.md``.

Observability
-------------
Every batch emits ``exec.*`` counters into the caller's bag and, when a
tracer is supplied, one ``exec.batch`` instant plus one ``exec.worker``
instant per pool worker used — the per-worker lanes the Chrome exporter
renders as ``exec-w<n>`` threads. Wall times never touch span
timestamps: virtual time stays the only time on the spine's spans.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from concurrent.futures import Executor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .supervisor import SupervisionConfig, WorkerFaultError, WorkerSupervisor
from .worker_faults import WorkerFaultPlan

__all__ = [
    "BACKENDS",
    "ExecBackend",
    "ProcessPoolBackend",
    "SerialBackend",
    "make_backend",
]

#: Registry of backend names accepted by :func:`make_backend` and the
#: CLI's ``--backend`` flag.
BACKENDS: Tuple[str, ...] = ("serial", "process")

#: One positional-args/keyword-args pair per task.
TaskCall = Tuple[tuple, dict]

#: Trace category for exec instants. Kept as a local constant (it
#: mirrors ``repro.trace.CAT_EXEC``) so this package has zero
#: repro-internal imports and can never participate in a cycle.
CAT_EXEC = "exec"


def _run_inline(
    fn: Callable[..., Any], calls: Sequence[TaskCall]
) -> Tuple[List[Any], float]:
    """Run every call on the calling thread; return ``(results, busy)``."""
    results: List[Any] = []
    busy = 0.0
    for args, kwargs in calls:
        t0 = time.perf_counter()
        results.append(fn(*args, **kwargs))
        busy += time.perf_counter() - t0
    return results, busy


class ExecBackend:
    """Base class: run batches of pure task calls, in order.

    Subclasses implement :meth:`_execute`; the base class wraps it with
    the shared accounting (``exec.*`` counters, trace instants).
    """

    #: Registry name (matches the CLI's ``--backend`` choices).
    name: str = "abstract"
    #: Worker slots this backend can occupy concurrently.
    workers: int = 1
    #: Whether task bodies may run concurrently.
    parallel: bool = False

    def run_tasks(
        self,
        fn: Callable[..., Any],
        calls: Sequence[TaskCall],
        *,
        phase: str = "task",
        counters: Any = None,
        tracer: Any = None,
        now: Optional[float] = None,
    ) -> List[Any]:
        """Execute ``fn`` over every call in ``calls``.

        Results come back in submission order regardless of completion
        order — the determinism contract every caller relies on.
        ``counters`` (a :class:`~repro.hadoop.counters.Counters`-like
        bag) receives the ``exec.*`` family; ``tracer`` receives batch
        and per-worker-lane instants stamped at virtual time ``now``.
        """
        calls = list(calls)
        if not calls:
            return []
        t0 = time.perf_counter()
        results, lanes, mode, queue_peak = self._execute(fn, calls)
        wall = time.perf_counter() - t0
        self._account(
            phase, len(calls), wall, mode, lanes, queue_peak, counters, tracer, now
        )
        return results

    def _execute(
        self, fn: Callable[..., Any], calls: Sequence[TaskCall]
    ):
        """Return ``(results, lanes, mode, queue_peak)``.

        ``lanes`` maps a dense worker index to ``(tasks, busy_seconds)``.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release any pools (idempotent; serial backends are no-ops)."""

    # ------------------------------------------------------------------
    # shared accounting
    # ------------------------------------------------------------------

    def _account(
        self,
        phase: str,
        n_tasks: int,
        wall: float,
        mode: str,
        lanes: Dict[int, Tuple[int, float]],
        queue_peak: int,
        counters: Any,
        tracer: Any,
        now: Optional[float],
    ) -> None:
        # Counters hold only run-deterministic facts: the runtime's
        # counter bag is compared bit-for-bit across repeat runs.
        # Physical measurements (wall seconds, queue depth) vary with
        # machine load, so they ride the exec.* trace instants instead.
        if counters is not None:
            counters.increment("exec.batches")
            counters.increment("exec.tasks_dispatched", n_tasks)
            counters.increment("exec.tasks_completed", n_tasks)
        if tracer is not None and now is not None:
            tracer.instant(
                "exec.batch",
                CAT_EXEC,
                time=now,
                phase=phase,
                tasks=n_tasks,
                wall_ms=round(wall * 1000, 3),
                mode=mode,
                backend=self.name,
                workers=self.workers,
                queue_peak=queue_peak,
            )
            for lane in sorted(lanes):
                tasks, busy = lanes[lane]
                tracer.instant(
                    "exec.worker",
                    CAT_EXEC,
                    time=now,
                    phase=phase,
                    worker=lane,
                    tasks=tasks,
                    busy_ms=round(busy * 1000, 3),
                )


class SerialBackend(ExecBackend):
    """Today's behaviour: run every task inline, one after another.

    The default everywhere; parity between this and the pool backends
    is what the digest oracle pins.
    """

    name = "serial"
    workers = 1
    parallel = False

    def _execute(self, fn, calls):
        results, busy = _run_inline(fn, calls)
        return results, {0: (len(calls), busy)}, "serial", 0


class ProcessPoolBackend(ExecBackend):
    """Run task bodies across a supervised ``ProcessPoolExecutor``.

    Pools are created lazily (a restored checkpoint or a run that never
    batches more than one task never forks) and owned by a
    :class:`~repro.exec.supervisor.WorkerSupervisor`, which gathers
    every batch under the deadline/retry/rebuild/quarantine ladder.
    Each batch is probed for picklability; jobs carrying unpicklable
    payloads run inline instead so no workload is ever rejected. Results come back in submission order whichever path ran
    them, which is the whole determinism story: completion order — and
    recovery — never matters.
    """

    name = "process"
    parallel = True

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        batch_deadline: Optional[float] = SupervisionConfig.batch_deadline,
        max_task_retries: int = SupervisionConfig.max_task_retries,
        max_pool_rebuilds: int = SupervisionConfig.max_pool_rebuilds,
        backoff_base: float = SupervisionConfig.backoff_base,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers if workers else max(2, (os.cpu_count() or 2) - 1)
        self._supervisor = WorkerSupervisor(
            self.workers,
            SupervisionConfig(
                batch_deadline=batch_deadline,
                max_task_retries=max_task_retries,
                max_pool_rebuilds=max_pool_rebuilds,
                backoff_base=backoff_base,
            ),
        )
        #: (pid, thread ident) -> dense lane index, stable per backend.
        self._lane_ids: Dict[Tuple[int, int], int] = {}
        #: Stats of the last supervised batch, for ``_account``.
        self._last_stats = None

    # -- pool management ------------------------------------------------

    @property
    def _pool(self) -> Optional[Executor]:
        """The supervisor's live executor (``None`` until first use)."""
        return self._supervisor._pool

    @property
    def _process_unavailable(self) -> bool:
        return self._supervisor._unavailable

    @property
    def supervision(self) -> SupervisionConfig:
        return self._supervisor.config

    def close(self) -> None:
        """Release the process pool (idempotent)."""
        self._supervisor.close()

    def pool_healthy(self) -> bool:
        """Chaos-invariant probe: no broken pool left behind."""
        return self._supervisor.healthy()

    # -- worker fault injection (chaos events, CLI flags) ---------------

    def inject_worker_faults(self, kind: str, count: int = 1) -> None:
        """Arm real faults (``kill``/``hang``/``slow``) on the next
        ``count`` first-attempt process-pool submissions."""
        self._supervisor.arm(kind, count)

    def arm_worker_fault_plan(self, plan: WorkerFaultPlan) -> None:
        self._supervisor.arm_plan(plan)

    def pending_worker_faults(self) -> int:
        return self._supervisor.pending_faults()

    def drain_worker_faults(self) -> int:
        """Discard unconsumed armed faults (end-of-run hygiene)."""
        return self._supervisor.drain_faults()

    # -- pickling (service checkpoints snapshot the whole runtime) ------

    def __getstate__(self):
        state = self.__dict__.copy()
        # A live pool cannot (and must not) ride a checkpoint; a
        # restored backend re-creates it lazily on first use, with
        # lanes reset and pool availability re-probed (a checkpoint
        # taken on a degraded sandbox must not pin a healthy restore
        # host to inline execution). The supervisor strips its own
        # pool handle and transient fault state.
        state["_lane_ids"] = {}
        state["_last_stats"] = None
        return state

    # -- execution ------------------------------------------------------

    @staticmethod
    def _batch_picklable(fn: Callable[..., Any], calls: Sequence[TaskCall]) -> bool:
        # The probe must cover the *whole* batch: a batch whose later
        # call is unpicklable would otherwise be submitted to the
        # process pool and die mid-gather with a PicklingError.
        try:
            pickle.dumps((fn, list(calls)))
        except Exception:
            return False
        return True

    def _lane(self, worker_key: Tuple[int, int]) -> int:
        lane = self._lane_ids.get(worker_key)
        if lane is None:
            lane = len(self._lane_ids)
            self._lane_ids[worker_key] = lane
        return lane

    def _execute(self, fn, calls):
        self._last_stats = None
        if self._batch_picklable(fn, calls):
            if self._supervisor.pool() is not None:
                raw, lanes_raw, queue_peak, stats = self._supervisor.run_batch(
                    fn, calls
                )
                self._last_stats = stats
                lanes: Dict[int, Tuple[int, float]] = {}
                for key, (tasks, busy) in lanes_raw.items():
                    lane = self._lane(key)
                    have_tasks, have_busy = lanes.get(lane, (0, 0.0))
                    lanes[lane] = (have_tasks + tasks, have_busy + busy)
                return raw, lanes, "process", queue_peak
            mode = "inline-degraded"
        else:
            mode = "inline"
        results, busy = _run_inline(fn, calls)
        lane = self._lane((os.getpid(), threading.get_ident()))
        return results, {lane: (len(calls), busy)}, mode, 0

    def run_tasks(self, fn, calls, *, phase="task", counters=None,
                  tracer=None, now=None):
        try:
            return super().run_tasks(
                fn, calls, phase=phase, counters=counters, tracer=tracer, now=now
            )
        except WorkerFaultError as exc:
            # Terminal batch death: flush the partial recovery
            # accounting before the error funnels into the runtime's
            # degraded-window path, so the retries/rebuilds that were
            # attempted stay visible.
            self._flush_recovery(exc.stats, phase, counters, tracer, now)
            raise

    def _flush_recovery(self, stats, phase, counters, tracer, now) -> None:
        if stats is None or not stats.any():
            return
        if counters is not None:
            if stats.retries:
                counters.increment("exec.retries", stats.retries)
            if stats.worker_lost:
                counters.increment("exec.worker_lost", stats.worker_lost)
            if stats.quarantined:
                counters.increment("exec.quarantined", stats.quarantined)
            if stats.rebuilds:
                counters.increment("exec.pool_rebuilds", stats.rebuilds)
        if tracer is not None and now is not None:
            tracer.instant(
                "exec.recovery",
                CAT_EXEC,
                time=now,
                phase=phase,
                retries=stats.retries,
                worker_lost=stats.worker_lost,
                quarantined=stats.quarantined,
                rebuilds=stats.rebuilds,
                deadline_reaps=stats.deadline_reaps,
                backoff_ms=round(stats.backoff_seconds * 1000, 3),
            )

    def _account(self, phase, n_tasks, wall, mode, lanes, queue_peak,
                 counters, tracer, now):
        if counters is not None:
            if mode == "inline":
                counters.increment("exec.pickle_fallbacks")
            elif mode == "inline-degraded":
                counters.increment("exec.process_pool_unavailable")
        stats, self._last_stats = self._last_stats, None
        self._flush_recovery(stats, phase, counters, tracer, now)
        super()._account(
            phase, n_tasks, wall, mode, lanes, queue_peak, counters, tracer, now
        )


def make_backend(
    name: str,
    workers: Optional[int] = None,
    **supervision: Any,
) -> ExecBackend:
    """Build a backend from its registry name (``serial`` | ``process``).

    ``supervision`` keywords (``batch_deadline``, ``max_task_retries``,
    ``max_pool_rebuilds``, ``backoff_base``) tune the process backend's
    recovery ladder and are rejected for the serial backend.
    """
    if name == "serial":
        if supervision:
            raise ValueError("the serial backend takes no supervision knobs")
        return SerialBackend()
    if name == "process":
        return ProcessPoolBackend(workers, **supervision)
    raise ValueError(
        f"unknown execution backend {name!r}; expected one of {BACKENDS}"
    )
