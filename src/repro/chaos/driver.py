"""Apply one :class:`~repro.chaos.schedule.ChaosEvent` to a runtime.

:func:`apply_event` is the only place a schedule event touches the
system. ``run_redoop_series(config, schedule=...)`` calls it between
ingest steps of its run loop, and ``twin_run``'s multi-tenant service
path calls it as virtual time passes each event. Every applied event
counts in ``chaos.events_injected`` and leaves a ``chaos.event`` trace
instant; an event with nothing to act on (killing the last live node,
recovering a node that is up, a worker fault on a serial backend) is
skipped and leaves neither.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..core.recovery import RecoveryManager
from ..trace import CAT_CHAOS
from .schedule import ChaosEvent

__all__ = ["apply_event"]


def apply_event(
    event: ChaosEvent,
    recovery: RecoveryManager,
    ingest: Optional[Callable[[int], int]] = None,
) -> bool:
    """Apply ``event`` to ``recovery.runtime``; return whether it took effect.

    Random choices (which node dies, which caches are hit) draw from the
    runtime's ``FaultInjector``. ``ingest(count)`` delivers up to
    ``count`` pending batches early and returns how many it delivered;
    without it an ``ingest-burst`` is skipped.
    """
    runtime = recovery.runtime
    cluster = runtime.cluster
    injector = runtime.faults
    kind = event.kind
    when = max(cluster.clock.now, event.at)
    if kind == "task-kill":
        injector.task_failure_prob = event.prob
    elif kind == "task-exhaust":
        injector.doom(event.doom)
    elif kind == "node-kill":
        live = cluster.live_node_ids()
        if len(live) <= 1:
            return False  # never kill the last node
        node_id = (
            event.node_id
            if event.node_id is not None
            else injector.pick_node_victim(live)
        )
        if not cluster.node(node_id).alive:
            return False
        recovery.fail_node(node_id)
    elif kind == "node-recover":
        # No node_id: revive the longest-dead node.
        node_id = event.node_id
        if node_id is None and recovery.failed_nodes:
            node_id = recovery.failed_nodes[0]
        if node_id is None or cluster.node(node_id).alive:
            return False
        recovery.recover_node(node_id)
    elif kind == "cache-loss":
        recovery.inject_cache_failures(
            injector, fraction=event.fraction, cache_type=event.cache_type
        )
    elif kind == "pane-loss":
        recovery.inject_pane_cache_failures(injector, fraction=event.fraction)
    elif kind == "cache-corrupt":
        recovery.inject_cache_corruption(
            injector, fraction=event.fraction, cache_type=event.cache_type
        )
    elif kind == "slow-node":
        if not cluster.node(event.node_id).alive:
            return False
        cluster.set_node_speed(event.node_id, event.speed)
    elif kind == "ingest-burst":
        if ingest is None or ingest(event.count) == 0:
            return False
    else:
        # worker-kill / worker-hang: real process faults. Arm the
        # supervised backend so the next first-attempt pool submissions
        # crash or hang inside an actual worker; skipped on backends
        # that cannot host them (serial, or a hang without a batch
        # deadline to reap it).
        backend = runtime.backend
        inject = getattr(backend, "inject_worker_faults", None)
        if inject is None or not getattr(backend, "parallel", False):
            return False
        try:
            inject("kill" if kind == "worker-kill" else "hang", count=event.count or 1)
        except ValueError:
            return False
    runtime.counters.increment("chaos.events_injected")
    runtime.tracer.instant(
        "chaos.event",
        CAT_CHAOS,
        time=when,
        node_id=event.node_id,
        kind=kind,
        detail=event.describe(),
    )
    return True
