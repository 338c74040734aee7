"""Fig. 9's fault series, run as chaos schedules, keep their numbers.

The literals below were recorded with the per-series fault-injector
keyword arguments that ``run_redoop_series`` took before Fig. 9's
faults became schedule events (``cache_failure_injector`` at fraction
0.5, ``cache_corruption_injector`` at 0.2, ``node_failure_window=2``,
each with a ``FaultInjector(seed=config.seed)``). The schedules must
make the same random draws at the same loop points, so virtual times,
answers and fault counts stay put. WCC data does not depend on the
interpreter's hash salt, so the pins hold in any process.
"""

from __future__ import annotations

import pytest

from repro.bench.experiments import fig9_schedules
from repro.bench.harness import ExperimentConfig, build_workload, run_redoop_series
from repro.bench.service import window_digest
from repro.hadoop import small_test_config


def wcc_config() -> ExperimentConfig:
    return ExperimentConfig(
        kind="aggregation",
        win=40.0,
        overlap=0.5,
        num_windows=4,
        rate=2_000_000.0,
        record_size=200_000,
        num_reducers=4,
        cluster_config=small_test_config(),
        seed=11,
        batches_per_pane=2,
    )


#: Every series answers the same windows.
DIGESTS = ["689027b631c130e2", "c8cece33918517d4", "6dc1c76eb2ae9071", "7b4ba6c77bd2047d"]

#: label -> (per-window response times, fault counters).
PINNED = {
    "redoop(f)": (
        [1.6347970340770033, 1.634756423847513, 1.6345031852526404, 1.6346468955292295],
        {"faults.caches_destroyed": 24.0},
    ),
    "redoop(c)": (
        [1.6347970340770033, 1.634756423847513, 1.6345031852526404, 1.6346468955292295],
        {"faults.caches_corrupted": 9.0},
    ),
    "redoop(node-f)": (
        [1.6347970340770033, 1.9013768830429285, 1.6345060462755896, 1.6346554785980771],
        {"faults.nodes_failed": 1.0, "faults.nodes_recovered": 1.0},
    ),
}


@pytest.fixture(scope="module")
def series():
    config = wcc_config()
    workload = build_workload(config)
    schedules = fig9_schedules(
        config,
        cache_loss_fraction=0.5,
        cache_corruption_fraction=0.2,
        node_failure_window=2,
    )
    assert set(schedules) == set(PINNED)
    return {
        label: run_redoop_series(
            config, label=label, schedule=schedule, workload=workload
        )
        for label, schedule in schedules.items()
    }


@pytest.mark.parametrize("label", sorted(PINNED))
def test_schedule_series_matches_the_recorded_kwargs_run(series, label):
    times, faults = PINNED[label]
    run = series[label]
    assert run.response_times() == times
    assert [window_digest(d)[:16] for d in run.output_digests] == DIGESTS
    got = {k: v for k, v in run.runtime_counters.items() if k.startswith("faults.")}
    assert got == faults
    assert run.violations == []


def test_schedules_fire_at_due_times():
    config = wcc_config()
    due = config.spec.execution_time
    schedules = fig9_schedules(
        config, cache_corruption_fraction=0.2, node_failure_window=2
    )
    assert [(e.at, e.kind, e.fraction) for e in schedules["redoop(f)"].events] == [
        (due(r), "pane-loss", 0.5) for r in (2, 3, 4)
    ]
    assert [e.kind for e in schedules["redoop(c)"].events] == ["cache-corrupt"] * 3
    assert [(e.at, e.kind) for e in schedules["redoop(node-f)"].events] == [
        (due(2), "node-kill"),
        (due(3), "node-recover"),
    ]
    assert {s.seed for s in schedules.values()} == {config.seed}


def test_node_failure_in_the_last_window_has_no_recovery():
    config = wcc_config()
    schedules = fig9_schedules(config, node_failure_window=config.num_windows)
    assert [e.kind for e in schedules["redoop(node-f)"].events] == ["node-kill"]
    assert "redoop(c)" not in schedules
    with pytest.raises(ValueError, match="node_failure_window"):
        fig9_schedules(config, node_failure_window=config.num_windows + 1)
