"""Soak test: a long-lived recurring query under periodic failures.

Fifty recurrences with cache failures injected every third window and a
node failure (plus recovery) midway — the kind of lifetime a deployed
recurring query actually sees. Asserts correctness at every window and
that resource bookkeeping stays bounded.
"""

from __future__ import annotations

from collections import Counter as PyCounter

import pytest

from repro.core import RecoveryManager, RecurringQuery, RedoopRuntime, WindowSpec, merging_finalizer
from repro.hadoop import BatchFile, Cluster, FaultInjector, Record, small_test_config

from ..conftest import wordcount_job

WIN, SLIDE = 60.0, 15.0  # 4 panes per window, 1 new per slide
RECURRENCES = 50


def _batch_records(i: int):
    import random

    rng = random.Random(i)
    t0 = i * SLIDE
    return [
        Record(ts=t0 + j * SLIDE / 25, value=f"k{rng.randrange(8)}", size=100)
        for j in range(25)
    ]


@pytest.mark.parametrize("inject_failures", [False, True])
def test_fifty_recurrences(inject_failures):
    cluster = Cluster(small_test_config(num_nodes=6), seed=13)
    runtime = RedoopRuntime(cluster)
    query = RecurringQuery(
        name="soak",
        job=wordcount_job(num_reducers=6, name="soak"),
        windows={"S1": WindowSpec(win=WIN, slide=SLIDE)},
        finalize=merging_finalizer(sum),
    )
    runtime.register_query(query, {"S1": 500_000.0})
    recovery = RecoveryManager(runtime)
    injector = FaultInjector(seed=4)

    all_records = []
    batches_fed = 0

    def feed_until(t):
        nonlocal batches_fed
        while batches_fed * SLIDE < t - 1e-9:
            records = _batch_records(batches_fed)
            runtime.ingest(
                BatchFile(
                    path=f"/b/{batches_fed}",
                    source="S1",
                    t_start=batches_fed * SLIDE,
                    t_end=(batches_fed + 1) * SLIDE,
                ),
                records,
            )
            all_records.extend(records)
            batches_fed += 1

    spec = query.windows["S1"]
    cache_entry_counts = []
    for k in range(1, RECURRENCES + 1):
        feed_until(spec.execution_time(k))
        if inject_failures and k % 3 == 0:
            recovery.inject_pane_cache_failures(injector, fraction=0.3)
        if inject_failures and k == 25:
            victim = cluster.live_node_ids()[0]
            recovery.fail_node(victim)
        if inject_failures and k == 30:
            recovery.recover_node(victim)

        result = runtime.run_recurrence("soak", k)
        start, end = result.window_bounds["S1"]
        expected = PyCounter(r.value for r in all_records if start <= r.ts < end)
        assert dict(result.output) == dict(expected), f"window {k} diverged"
        cache_entry_counts.append(
            sum(len(r.live_entries()) for r in runtime.registries().values())
        )

    # Bookkeeping stays bounded: entries plateau, never balloon.
    steady = cache_entry_counts[10:]
    assert max(steady) <= 2 * min(s for s in steady if s > 0)
    assert runtime.counters.get("cache.entries_purged") > 0
    state = runtime._states["soak"]
    assert len(state.pane_work) <= 2 * spec.panes_per_window
    assert runtime.controller.matrix("soak").num_tracked_cells() <= 16
