"""Failure recovery for Redoop caches and nodes (paper Sec. 5).

Redoop keeps Hadoop's fault-tolerance guarantees while adding one new
failure domain: the caches, which live on task nodes' *local* file
systems and are therefore not protected by HDFS replication. Recovery
is metadata rollback plus re-execution:

* a **lost cache** rolls the pane's ready bit back to HDFS-available
  (the controller's ready listeners make the pane map-eligible again),
  removes any scheduled reduce tasks that relied on it from the
  scheduler's ``reduceTaskList`` — matching job-namespaced pane pids
  and combination pids alike — and lets the next recurrence rebuild it
  by re-running the producing tasks — "without incurring any
  additional costs" beyond that re-execution;
* a **lost node** additionally loses its slots and HDFS replicas; HDFS
  re-replicates blocks immediately, and every cache the node hosted is
  rolled back as above.

:class:`RecoveryManager` drives both paths against a
:class:`~repro.core.runtime.RedoopRuntime`, and doubles as the
injection point for the paper's Fig. 9 experiment (cache removals at
the start of each window).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..hadoop.faults import FaultInjector
from .cache_registry import cache_file_name
from .runtime import RedoopRuntime

__all__ = ["LostCache", "RecoveryManager"]


@dataclass(frozen=True, slots=True)
class LostCache:
    """Identifies one destroyed cache partition."""

    node_id: int
    pid: str
    cache_type: int
    partition: int

    @property
    def key(self) -> str:
        return f"{self.node_id}:{self.pid}:{self.cache_type}:{self.partition}"


class RecoveryManager:
    """Cache/node failure handling and injection for a Redoop runtime."""

    def __init__(self, runtime: RedoopRuntime) -> None:
        self.runtime = runtime
        #: Nodes failed through :meth:`fail_node` and not yet recovered,
        #: oldest failure first.
        self.failed_nodes: List[int] = []

    # ------------------------------------------------------------------
    # inventory
    # ------------------------------------------------------------------

    def live_caches(self) -> List[LostCache]:
        """Every live cache partition across the cluster."""
        found: List[LostCache] = []
        for node_id, registry in sorted(self.runtime.registries().items()):
            if not registry.node.alive:
                continue
            for entry in registry.live_entries():
                if registry.node.has_local(entry.local_name):
                    found.append(
                        LostCache(
                            node_id=node_id,
                            pid=entry.pid,
                            cache_type=entry.cache_type,
                            partition=entry.partition,
                        )
                    )
        return found

    # ------------------------------------------------------------------
    # cache failures
    # ------------------------------------------------------------------

    def destroy_cache(self, victim: LostCache) -> None:
        """Destroy one cache partition and roll back its metadata.

        Implements Sec. 5's rollback: the data is deleted, the local
        registry forgets the entry, the controller reverts the pane's
        ready bit (if no copies remain — notifying ready listeners so
        the runtime re-marks the pane map-eligible), and any scheduled
        reduce task that depended on the cache leaves the reduce task
        list ("the scheduled tasks, using this cache, must be removed
        from the ReduceTaskList immediately"). The rollback itself is
        :meth:`~repro.core.runtime.RedoopRuntime.discard_cache` — the
        same path corruption detection and degraded windows take.
        """
        self.runtime.discard_cache(
            victim.node_id, victim.pid, victim.cache_type, victim.partition
        )

    def corrupt_cache(self, victim: LostCache) -> None:
        """Silently tamper with one cache partition's content.

        Unlike :meth:`destroy_cache`, no metadata changes: the registry
        row, controller ready bit, and placement all still claim the
        cache is good. The tampering only surfaces when the runtime
        reads the entry and its checksum fails — which must then funnel
        through the same rollback as a lost cache instead of leaking a
        wrong window.
        """
        runtime = self.runtime
        registry = runtime.registries().get(victim.node_id)
        if registry is None:
            raise ValueError(f"node {victim.node_id} holds no caches")
        name = cache_file_name(victim.pid, victim.cache_type, victim.partition)
        node = registry.node
        if not node.has_local(name):
            raise ValueError(f"node {victim.node_id} holds no file {name!r}")
        lf = node.read_local(name)
        poisoned = self._tamper(lf.payload)
        node.store_local(name, lf.size, poisoned, created_at=lf.created_at)
        runtime.counters.increment("faults.caches_corrupted")
        runtime.tracer.instant(
            "chaos.cache_corrupted",
            "chaos",
            time=runtime.cluster.clock.now,
            node_id=victim.node_id,
            pid=victim.pid,
            cache_type=victim.cache_type,
            partition=victim.partition,
        )

    @staticmethod
    def _tamper(payload: object) -> object:
        """A minimal content mutation that defeats the repr checksum."""
        if isinstance(payload, list):
            return payload + [("__corrupt__", -1)]
        if isinstance(payload, tuple):
            return payload + (("__corrupt__", -1),)
        return ("__corrupt__", payload)

    def inject_pane_cache_failures(
        self, injector: FaultInjector, *, fraction: float
    ) -> List[LostCache]:
        """Destroy all caches of a random ``fraction`` of *panes* (Fig. 9).

        The paper's fault-tolerance experiment removes cached
        intermediate data at pane granularity: a victim pane loses its
        reduce-input and reduce-output caches on every partition, and
        the next recurrence reconstructs them by re-mapping the pane.
        Caches of surviving panes keep being reused — which is why
        Redoop-with-failures still beats plain Hadoop.
        """
        pool = self.live_caches()
        pids = sorted({c.pid for c in pool})
        victims = set(injector.pick_cache_victims(pids, fraction=fraction))
        destroyed = [c for c in pool if c.pid in victims]
        for victim in destroyed:
            self.destroy_cache(victim)
        return destroyed

    def inject_cache_failures(
        self,
        injector: FaultInjector,
        *,
        fraction: float,
        cache_type: Optional[int] = None,
    ) -> List[LostCache]:
        """Destroy a random ``fraction`` of live cache partitions.

        Unlike :meth:`inject_pane_cache_failures` a pane can lose some
        partitions and keep others, or lose only its reduce-output
        caches (``cache_type``; ``None`` targets both types). The
        injector supplies the seeded RNG.
        """
        destroyed = self._pick(injector, fraction, cache_type)
        for victim in destroyed:
            self.destroy_cache(victim)
        return destroyed

    def inject_cache_corruption(
        self,
        injector: FaultInjector,
        *,
        fraction: float,
        cache_type: Optional[int] = None,
    ) -> List[LostCache]:
        """Silently corrupt a random fraction of live caches.

        The complement of :meth:`inject_cache_failures`: nothing is
        rolled back here — detection is the runtime's job, via the
        content checksums, when (and only when) the poisoned entry is
        next read.
        """
        corrupted = self._pick(injector, fraction, cache_type)
        for victim in corrupted:
            self.corrupt_cache(victim)
        return corrupted

    def _pick(
        self, injector: FaultInjector, fraction: float, cache_type: Optional[int]
    ) -> List[LostCache]:
        by_key = {
            c.key: c
            for c in self.live_caches()
            if cache_type is None or c.cache_type == cache_type
        }
        victims = injector.pick_cache_victims(sorted(by_key), fraction=fraction)
        return [by_key[k] for k in victims]

    # ------------------------------------------------------------------
    # node failures
    # ------------------------------------------------------------------

    def fail_node(self, node_id: int) -> List[Tuple[str, int, int]]:
        """Kill a slave node and roll back everything it hosted.

        Returns the ``(pid, cache_type, partition)`` triples of caches
        lost with the node. The next recurrence reconstructs them by
        re-executing the producing tasks on other nodes (the caches
        land wherever those re-executions run — Sec. 5, item 2).
        """
        runtime = self.runtime
        runtime.cluster.fail_node(node_id)
        self.failed_nodes.append(node_id)
        registry = runtime.registries().get(node_id)
        if registry is not None:
            registry.forget_all()
        lost = runtime.controller.node_lost(node_id)
        for pid, _cache_type, _partition in lost:
            runtime.scheduler.drop_reduce_tasks_using(pid)
        runtime.counters.increment("faults.nodes_failed")
        runtime.tracer.instant(
            "node.lost",
            "fault",
            time=runtime.cluster.clock.now,
            node_id=node_id,
            caches_lost=len(lost),
        )
        return lost

    def recover_node(self, node_id: int) -> None:
        """Bring a failed node back with empty local state."""
        runtime = self.runtime
        runtime.cluster.recover_node(node_id)
        if node_id in self.failed_nodes:
            self.failed_nodes.remove(node_id)
        runtime.counters.increment("faults.nodes_recovered")
        runtime.tracer.instant(
            "node.rejoined",
            "fault",
            time=runtime.cluster.clock.now,
            node_id=node_id,
        )
