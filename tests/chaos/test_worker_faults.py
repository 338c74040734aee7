"""Real-process worker faults under the chaos harness.

``worker-kill`` / ``worker-hang`` events crash and hang *actual* pool
workers mid-run; ``twin_run`` then pins the supervised process
backend's digests to a fault-free serial run. Deadlines stay
small (≤ 2s) so a hung worker can never stall the fast lane.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.chaos import (
    Arm,
    ChaosEvent,
    ChaosSchedule,
    EVENT_KINDS,
    run_chaos_series,
    twin_run,
)
from repro.exec import ProcessPoolBackend, make_backend

from .conftest import mini_config


def worker_twin(config, schedule, **supervision):
    """Fault-free serial arm vs. a supervised process arm whose real
    workers the schedule's ``worker-*`` events crash and hang."""
    backend = partial(make_backend, "process", workers=2, **supervision)
    return twin_run(
        config,
        Arm("fault-free"),
        Arm("worker-chaos", backend=backend, schedule=schedule,
            expect=("exec.worker_lost",)),
    )


def worker_schedule(**first_kwargs) -> ChaosSchedule:
    """A kill and a hang, early enough to be consumed mid-run."""
    return ChaosSchedule(
        seed=4,
        events=(
            ChaosEvent(at=45.0, kind="worker-kill", **first_kwargs),
            ChaosEvent(at=55.0, kind="worker-hang"),
        ),
    )


class TestScheduleKinds:
    def test_worker_kinds_are_registered(self):
        assert "worker-kill" in EVENT_KINDS
        assert "worker-hang" in EVENT_KINDS

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError, match="count must be positive"):
            ChaosEvent(at=10.0, kind="worker-kill", count=0)
        # count=None means "one fault" and is fine.
        ChaosEvent(at=10.0, kind="worker-hang")

    def test_json_round_trip(self):
        sched = worker_schedule(count=2)
        revived = ChaosSchedule.from_json(sched.to_json())
        assert revived == sched
        assert [e.kind for e in revived.events] == [
            "worker-kill",
            "worker-hang",
        ]

    def test_random_schedules_scatter_worker_events(self):
        kwargs = dict(
            horizon=120.0,
            num_nodes=4,
            num_windows=5,
            slide=20.0,
            events_per_window=0.0,
            worker_kills=2,
            worker_hangs=1,
        )
        sched = ChaosSchedule.random(9, **kwargs)
        kinds = [e.kind for e in sched.events]
        assert kinds.count("worker-kill") == 2
        assert kinds.count("worker-hang") == 1
        assert all(0 <= e.at <= 120.0 for e in sched.events)
        # Seeded: the same call replays the same scattering.
        assert ChaosSchedule.random(9, **kwargs) == sched


class TestDriverApplication:
    def test_serial_backend_skips_worker_events(self):
        # The default runtime backend is serial: real worker faults
        # have nowhere to land, so the events report applied=False.
        report = run_chaos_series(mini_config(), worker_schedule())
        assert report.events_applied == []
        assert report.ok, report.violations

    def test_process_backend_consumes_worker_events(self):
        backend = ProcessPoolBackend(
            workers=2, batch_deadline=2.0, backoff_base=0.01
        )
        try:
            report = run_chaos_series(
                mini_config(), worker_schedule(), backend=backend
            )
            # Leftover armed faults are drained at end of run, so a
            # shared backend cannot leak faults into the next series.
            assert backend.pending_worker_faults() == 0
            assert backend.pool_healthy()
        finally:
            backend.close()
        assert len(report.events_applied) == 2
        assert any("worker-kill" in d for d in report.events_applied)
        assert any("worker-hang" in d for d in report.events_applied)
        assert report.series.runtime_counters.get("exec.worker_lost", 0) > 0
        assert report.ok, report.violations


class TestWorkerFaultDifferential:
    def test_kill_and_hang_are_output_neutral(self):
        report = worker_twin(
            mini_config(), worker_schedule(), batch_deadline=2.0
        )
        chaos = report.variants[0]
        assert any("worker-kill" in d for d in chaos.events_applied)
        assert any("worker-hang" in d for d in chaos.events_applied)
        assert chaos.counters["exec.worker_lost"] > 0
        assert report.mismatches == []
        assert report.degraded_windows == []
        assert report.ok, report.summary()
        assert "worker_lost=" in report.summary()

    def test_join_workload_parity_under_kills(self):
        sched = ChaosSchedule(
            seed=6,
            events=(ChaosEvent(at=45.0, kind="worker-kill", count=2),),
        )
        report = worker_twin(
            mini_config("join"), sched, batch_deadline=2.0
        )
        assert report.variants[0].counters["exec.worker_lost"] > 0
        assert report.mismatches == []
        assert report.ok, report.summary()

    def test_terminal_fault_degrades_one_window_and_converges(self):
        # A rebuild budget of zero turns the first worker loss into the
        # terminal path: WorkerFaultError -> TaskAttemptsExhaustedError
        # -> degraded window with cache rollback. Later windows must
        # converge back to the fault-free baseline exactly.
        sched = ChaosSchedule(
            seed=8, events=(ChaosEvent(at=45.0, kind="worker-kill"),)
        )
        report = worker_twin(
            mini_config(),
            sched,
            batch_deadline=2.0,
            max_task_retries=0,
            max_pool_rebuilds=0,
        )
        assert report.variants[0].counters["exec.worker_lost"] > 0
        assert report.degraded_windows != []
        assert report.mismatches == []
        (query,) = report.baseline.digests
        assert (
            report.variants[0].digests[query][-1]
            == report.baseline.digests[query][-1]
        )
        assert report.ok, report.summary()

    def test_armed_but_unexercised_run_fails_the_verdict(self):
        # A worker event that never actually lost a worker proves
        # nothing: this one is armed after the last window, so the
        # end-of-run drain discards it unconsumed. The verdict must
        # refuse to claim fault coverage even though every digest
        # matches.
        sched = ChaosSchedule(
            seed=2, events=(ChaosEvent(at=500.0, kind="worker-kill"),)
        )
        report = worker_twin(
            mini_config(num_windows=2), sched, batch_deadline=2.0
        )
        assert report.variants[0].events_applied == ["t=500s worker-kill"]
        assert report.mismatches == []
        assert report.unexercised == ["worker-chaos: exec.worker_lost"]
        assert not report.ok
        assert "NOT EXERCISED worker-chaos: exec.worker_lost" in report.summary()
