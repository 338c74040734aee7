"""Schedules in the series loop: event application, bookkeeping, trace output."""

from __future__ import annotations


from repro.bench.harness import build_workload, run_redoop_series
from repro.chaos import ChaosEvent, ChaosSchedule, driver
from repro.core.runtime import RedoopRuntime
from repro.hadoop import small_test_config
from repro.trace import CAT_CHAOS

from .conftest import mini_config


class TestEventApplication:
    def test_events_recorded_in_order(self):
        cfg = mini_config()
        sched = ChaosSchedule(
            seed=2,
            events=(
                ChaosEvent(at=45.0, kind="cache-loss", fraction=0.3),
                ChaosEvent(at=65.0, kind="cache-corrupt", fraction=0.3),
            ),
        )
        series = run_redoop_series(cfg, schedule=sched)
        assert len(series.events_applied) == 2
        assert "cache-loss" in series.events_applied[0]
        assert "cache-corrupt" in series.events_applied[1]
        assert series.tracer is not None
        counters = {
            e.attrs.get("kind")
            for e in series.tracer.events(category=CAT_CHAOS)
            if e.name == "chaos.event"
        }
        assert {"cache-loss", "cache-corrupt"} <= counters

    def test_injection_counter_matches_applied(self):
        cfg = mini_config()
        sched = ChaosSchedule(
            seed=2,
            events=(
                ChaosEvent(at=45.0, kind="task-kill", prob=0.2),
                ChaosEvent(at=55.0, kind="task-kill", prob=0.0),
                ChaosEvent(at=62.0, kind="node-kill"),
                ChaosEvent(at=78.0, kind="node-recover"),
            ),
        )
        series = run_redoop_series(cfg, schedule=sched)
        # chaos.events_injected counts once per applied event.
        assert len(series.events_applied) == 4
        assert series.runtime_counters["chaos.events_injected"] == 4
        assert series.violations == []

    def test_never_kills_the_last_node(self):
        cfg = mini_config(
            cluster_config=small_test_config(num_nodes=1), num_reducers=2
        )
        sched = ChaosSchedule(
            seed=2, events=(ChaosEvent(at=45.0, kind="node-kill"),)
        )
        series = run_redoop_series(cfg, schedule=sched)
        assert series.events_applied == []  # skipped, run completed
        assert len(series.windows) == cfg.num_windows

    def test_node_recover_without_outage_is_noop(self):
        cfg = mini_config()
        sched = ChaosSchedule(
            seed=2, events=(ChaosEvent(at=45.0, kind="node-recover"),)
        )
        series = run_redoop_series(cfg, schedule=sched)
        assert series.events_applied == []
        assert series.violations == []

    def test_ingest_burst_is_output_neutral(self):
        cfg = mini_config()
        workload = build_workload(cfg)
        baseline = run_redoop_series(cfg, workload=workload)
        sched = ChaosSchedule(
            seed=2,
            events=(ChaosEvent(at=30.0, kind="ingest-burst", count=3),),
        )
        series = run_redoop_series(cfg, schedule=sched, workload=workload)
        assert len(series.events_applied) == 1
        assert series.output_digests == baseline.output_digests
        assert series.violations == []

    def test_straggler_slows_but_does_not_change_output(self):
        cfg = mini_config()
        workload = build_workload(cfg)
        baseline = run_redoop_series(cfg, workload=workload)
        sched = ChaosSchedule(
            seed=2,
            events=(
                ChaosEvent(at=45.0, kind="slow-node", node_id=0, speed=0.25),
            ),
        )
        series = run_redoop_series(cfg, schedule=sched, workload=workload)
        assert series.output_digests == baseline.output_digests
        assert series.violations == []


class TestDegradedBookkeeping:
    def test_exhaustion_surfaces_as_degraded_window(self):
        cfg = mini_config()
        sched = ChaosSchedule(
            seed=2,
            events=(ChaosEvent(at=45.0, kind="task-exhaust", doom="/w3/"),),
        )
        series = run_redoop_series(cfg, schedule=sched)
        assert series.degraded_windows == [3]
        assert series.output_digests[2] == ()
        # Later windows still produce output.
        assert series.output_digests[3] != ()
        assert series.violations == []


class TestEventTiming:
    def test_event_after_last_due_time_is_not_applied(self):
        # No window can observe an event after the last due time (100 s
        # here), so it is neither applied nor counted as injected.
        cfg = mini_config(num_windows=4)
        workload = build_workload(cfg)
        baseline = run_redoop_series(cfg, workload=workload)
        sched = ChaosSchedule(
            seed=2,
            events=(ChaosEvent(at=105.0, kind="cache-loss", fraction=1.0),),
        )
        series = run_redoop_series(cfg, schedule=sched, workload=workload)
        assert series.events_applied == []
        assert "chaos.events_injected" not in series.runtime_counters
        assert "faults.caches_destroyed" not in series.runtime_counters
        assert series.output_digests == baseline.output_digests

    def test_event_at_the_last_due_time_is_applied(self):
        cfg = mini_config(num_windows=4)
        sched = ChaosSchedule(
            seed=2,
            events=(ChaosEvent(at=100.0, kind="cache-loss", fraction=1.0),),
        )
        series = run_redoop_series(cfg, schedule=sched)
        assert series.events_applied == ["t=100s cache-loss (fraction=1.0)"]
        assert series.runtime_counters["faults.caches_destroyed"] > 0

    def test_batch_ending_at_the_event_time_lands_first(self, monkeypatch):
        # Batches end every 10 s. An event at exactly t=30 applies after
        # the batch ending at 30 lands and before the one ending at 40.
        log = []
        real_ingest = RedoopRuntime.ingest
        real_apply = driver.apply_event

        def ingest(self, batch, records):
            log.append(("batch", batch.t_end))
            return real_ingest(self, batch, records)

        def apply_event(event, recovery, ingest=None):
            log.append(("event", event.at))
            return real_apply(event, recovery, ingest)

        monkeypatch.setattr(RedoopRuntime, "ingest", ingest)
        monkeypatch.setattr(driver, "apply_event", apply_event)
        sched = ChaosSchedule(
            seed=2, events=(ChaosEvent(at=30.0, kind="cache-loss", fraction=0.5),)
        )
        series = run_redoop_series(mini_config(num_windows=2), schedule=sched)
        assert series.events_applied == ["t=30s cache-loss (fraction=0.5)"]
        at = log.index(("event", 30.0))
        assert log[at - 1] == ("batch", 30.0)
        assert log[at + 1] == ("batch", 40.0)

    def test_empty_schedule_checks_invariants_and_matches_fault_free(self):
        cfg = mini_config(num_windows=3)
        workload = build_workload(cfg)
        baseline = run_redoop_series(cfg, workload=workload)
        series = run_redoop_series(
            cfg, schedule=ChaosSchedule(seed=1), workload=workload
        )
        assert series.events_applied == []
        assert series.violations == []
        assert series.output_digests == baseline.output_digests
        assert series.response_times() == baseline.response_times()
