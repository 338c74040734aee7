#!/usr/bin/env python3
"""Fault-tolerance walk-through: losing caches and a whole node.

Redoop's caches live on task nodes' *local* file systems — outside
HDFS replication — so the paper adds dedicated recovery (Sec. 5):
metadata rollback plus task re-execution. This demo exercises both
failure domains on a live runtime and shows that answers never change
and caches rebuild themselves.

Run:  python examples/fault_tolerance_demo.py
"""

import random

from repro.core import (
    RecoveryManager,
    RecurringQuery,
    RedoopRuntime,
    WindowSpec,
    merging_finalizer,
)
from repro.hadoop import (
    BatchFile,
    Cluster,
    FaultInjector,
    MapReduceJob,
    Record,
    small_test_config,
)


def mapper(record):
    yield record.value, 1


def reducer(key, values):
    yield key, sum(values)


def feed(runtime, upto, batch_seconds=10.0):
    i, t = 0, 0.0
    while t < upto - 1e-9:
        rng = random.Random(i)
        records = [
            Record(ts=t + j * batch_seconds / 30, value=f"k{rng.randrange(6)}", size=100)
            for j in range(30)
        ]
        runtime.ingest(
            BatchFile(path=f"/b/{i}", source="clicks", t_start=t, t_end=t + batch_seconds),
            records,
        )
        i += 1
        t += batch_seconds


def cache_count(runtime):
    return sum(len(r.live_entries()) for r in runtime.registries().values())


def main() -> None:
    job = MapReduceJob(
        name="agg", mapper=mapper, reducer=reducer, combiner=reducer, num_reducers=4
    )
    query = RecurringQuery(
        name="agg",
        job=job,
        windows={"clicks": WindowSpec(win=40.0, slide=10.0)},
        finalize=merging_finalizer(sum),
    )
    runtime = RedoopRuntime(Cluster(small_test_config(), seed=5))
    runtime.register_query(query, {"clicks": 500_000.0})
    recovery = RecoveryManager(runtime)
    feed(runtime, 90.0)

    r1 = runtime.run_recurrence("agg", 1)
    print(f"window 1: response {r1.response_time:.2f}s, "
          f"{cache_count(runtime)} cache entries on the cluster")

    # --- failure 1: half the panes lose their caches -------------------
    injector = FaultInjector(seed=2)
    destroyed = recovery.inject_pane_cache_failures(injector, fraction=0.5)
    lost_pids = sorted({c.pid for c in destroyed})
    print(f"\ninjected cache failure: destroyed caches of panes {lost_pids}")
    print(f"  cache entries now: {cache_count(runtime)}")

    r2 = runtime.run_recurrence("agg", 2)
    print(f"window 2: response {r2.response_time:.2f}s "
          f"(re-mapped {r2.counters.get('panes.processed'):.0f} panes, "
          f"reused {r2.counters.get('cache.pane_hits'):.0f} from cache)")
    print(f"  cache entries rebuilt: {cache_count(runtime)}")

    # --- failure 2: a slave node dies ----------------------------------
    hosting = sorted({c.node_id for c in recovery.live_caches()})
    victim = hosting[0]
    lost = recovery.fail_node(victim)
    print(f"\nnode {victim} failed: {len(lost)} cache partitions lost, "
          "HDFS re-replicated its blocks")

    r3 = runtime.run_recurrence("agg", 3)
    print(f"window 3: response {r3.response_time:.2f}s — recovered "
          "transparently; caches re-created on surviving nodes")

    recovery.recover_node(victim)
    print(f"node {victim} rejoined (empty local state)")

    # The recovered system still produces correct answers.
    r4 = runtime.run_recurrence("agg", 4)
    total = sum(v for _k, v in r4.output)
    print(f"\nwindow 4: {total} records aggregated, "
          f"{len(r4.output)} keys — all correct ✔")


if __name__ == "__main__":
    main()
