"""Unit tests for the execution backends themselves.

The parity oracle (``test_parity.py``) proves end-to-end neutrality;
these tests pin the mechanics the oracle relies on: submission-order
results, the fallback ladder, accounting, and checkpoint pickling.
"""

from __future__ import annotations

import pickle

import pytest

from repro.exec import (
    BACKENDS,
    ExecBackend,
    ProcessPoolBackend,
    SerialBackend,
    make_backend,
)
from repro.hadoop.counters import Counters
from repro.trace import Tracer


def square(x: int) -> int:
    return x * x


def describe(x) -> str:
    return type(x).__name__


def offset(x: int, *, base: int = 0) -> int:
    return base + x


class TestMakeBackend:
    def test_registry_covers_both_backends(self):
        assert BACKENDS == ("serial", "process")
        assert isinstance(make_backend("serial"), SerialBackend)
        backend = make_backend("process", workers=2)
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.workers == 2
        backend.close()

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            make_backend("gpu")

    def test_worker_count_validation(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(workers=0)


class TestResultOrdering:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_results_in_submission_order(self, name):
        backend = make_backend(name, workers=2)
        try:
            calls = [((i,), {}) for i in range(20)]
            assert backend.run_tasks(square, calls) == [
                i * i for i in range(20)
            ]
        finally:
            backend.close()

    @pytest.mark.parametrize("name", BACKENDS)
    def test_kwargs_are_forwarded(self, name):
        backend = make_backend(name, workers=2)
        try:
            out = backend.run_tasks(
                offset, [((i,), {"base": 100}) for i in range(5)]
            )
            assert out == [100, 101, 102, 103, 104]
        finally:
            backend.close()

    def test_empty_batch_is_a_noop(self):
        counters = Counters()
        backend = SerialBackend()
        assert backend.run_tasks(square, [], counters=counters) == []
        assert counters.get("exec.batches") == 0


class TestCounters:
    def test_serial_accounting(self):
        counters = Counters()
        tracer = Tracer()
        SerialBackend().run_tasks(
            square, [((i,), {}) for i in range(3)], phase="map",
            counters=counters, tracer=tracer, now=1.0,
        )
        assert counters.get("exec.batches") == 1
        assert counters.get("exec.tasks_dispatched") == 3
        assert counters.get("exec.tasks_completed") == 3
        # Physical wall time is NOT a counter (the counter bag must be
        # bit-deterministic across repeat runs); it rides the instant.
        assert counters.get("exec.wall_seconds_map") == 0
        batch = next(
            e for e in tracer.events(category="exec") if e.name == "exec.batch"
        )
        assert batch.attrs["wall_ms"] >= 0

    def test_process_accounting_and_queue_peak(self):
        counters = Counters()
        tracer = Tracer()
        backend = ProcessPoolBackend(workers=2)
        try:
            backend.run_tasks(
                square, [((i,), {}) for i in range(16)], phase="reduce",
                counters=counters, tracer=tracer, now=1.0,
            )
        finally:
            backend.close()
        assert counters.get("exec.batches") == 1
        assert counters.get("exec.tasks_dispatched") == 16
        # 16 tasks on 2 workers must have queued beyond the slots —
        # reported on the batch instant, not the deterministic counters.
        batch = next(
            e for e in tracer.events(category="exec") if e.name == "exec.batch"
        )
        assert batch.attrs["queue_peak"] > 0
        assert counters.get("exec.queue_depth_peak") == 0
        # Picklable workload: the process path, not a fallback.
        assert counters.get("exec.pickle_fallbacks") == 0

    def test_pickle_fallback_counts_and_still_computes(self):
        counters = Counters()
        tracer = Tracer()
        backend = ProcessPoolBackend(workers=2)
        unpicklable = lambda x: x + 1  # noqa: E731 - deliberately a lambda
        try:
            out = backend.run_tasks(
                unpicklable, [((i,), {}) for i in range(4)],
                counters=counters, tracer=tracer, now=0.0,
            )
            # The batch ran inline: no process pool was ever started.
            assert backend._pool is None
        finally:
            backend.close()
        assert out == [1, 2, 3, 4]
        assert counters.get("exec.pickle_fallbacks") == 1
        batch = next(
            e for e in tracer.events(category="exec") if e.name == "exec.batch"
        )
        assert batch.attrs["mode"] == "inline"
        assert batch.attrs["queue_peak"] == 0

    def test_unavailable_pool_runs_batches_inline(self):
        counters = Counters()
        backend = ProcessPoolBackend(workers=2)
        backend._supervisor._unavailable = True  # a sandbox without pools
        try:
            for _ in range(2):
                out = backend.run_tasks(
                    square, [((i,), {}) for i in range(3)], counters=counters
                )
                assert out == [0, 1, 4]
            assert backend._pool is None
        finally:
            backend.close()
        assert counters.get("exec.process_pool_unavailable") == 2
        assert counters.get("exec.pickle_fallbacks") == 0

    def test_pickle_probe_covers_the_whole_batch(self):
        # The fn and the first call are picklable; a *later* call is
        # not. Probing only calls[0] would ship the batch to the
        # process pool and die mid-gather with a PicklingError — the
        # probe must cover every call's arguments.
        import threading

        counters = Counters()
        backend = ProcessPoolBackend(workers=2)
        calls = [(("fine",), {}), ((threading.Lock(),), {})]
        try:
            out = backend.run_tasks(describe, calls, counters=counters)
        finally:
            backend.close()
        assert out == ["str", "lock"]
        assert counters.get("exec.pickle_fallbacks") == 1


class TestTraceInstants:
    def test_batch_and_worker_instants_at_virtual_time(self):
        tracer = Tracer()
        SerialBackend().run_tasks(
            square, [((1,), {})], phase="map", tracer=tracer, now=42.0
        )
        events = tracer.events(category="exec")
        names = {e.name for e in events}
        assert names == {"exec.batch", "exec.worker"}
        assert all(e.time == 42.0 for e in events)
        batch = next(e for e in events if e.name == "exec.batch")
        assert batch.attrs["phase"] == "map"
        assert batch.attrs["backend"] == "serial"
        worker = next(e for e in events if e.name == "exec.worker")
        assert worker.attrs["worker"] == 0

    def test_no_tracer_no_instants_needed(self):
        # now=None (no virtual timestamp) must not emit or crash.
        tracer = Tracer()
        SerialBackend().run_tasks(square, [((1,), {})], tracer=tracer)
        assert tracer.events(category="exec") == []


class TestCheckpointPickling:
    def test_backend_pickles_without_live_pools(self):
        backend = ProcessPoolBackend(workers=2)
        try:
            backend.run_tasks(square, [((i,), {}) for i in range(4)])
            revived = pickle.loads(pickle.dumps(backend))
        finally:
            backend.close()
        assert isinstance(revived, ProcessPoolBackend)
        assert revived.workers == 2
        assert revived._pool is None
        # And the revived backend still executes.
        try:
            assert revived.run_tasks(square, [((3,), {})]) == [9]
        finally:
            revived.close()


class TestLifecycle:
    def test_close_is_idempotent(self):
        backend = ProcessPoolBackend(workers=2)
        backend.run_tasks(square, [((i,), {}) for i in range(4)])
        backend.close()
        backend.close()  # second close is a no-op, not an error
        assert backend._pool is None

    def test_restored_backend_reprobes_availability_and_resets_lanes(self):
        backend = ProcessPoolBackend(workers=2)
        try:
            backend.run_tasks(square, [((i,), {}) for i in range(6)])
            assert backend._lane_ids  # lanes were assigned
            # Simulate a degraded sandbox: pools could not start here.
            backend._supervisor._unavailable = True
            assert backend._process_unavailable
            revived = pickle.loads(pickle.dumps(backend))
        finally:
            backend.close()
        # The checkpoint must not pin a healthy restore host to the
        # inline fallback: availability is re-probed, lanes start dense.
        assert revived._process_unavailable is False
        assert revived._lane_ids == {}
        try:
            assert revived.run_tasks(square, [((4,), {})]) == [16]
            assert revived._lane_ids  # fresh lanes on the restore host
        finally:
            revived.close()


class TestBaseClass:
    def test_execute_is_abstract(self):
        with pytest.raises(NotImplementedError):
            ExecBackend().run_tasks(square, [((1,), {})])
