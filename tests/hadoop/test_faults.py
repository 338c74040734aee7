"""Unit tests for the fault injector."""

from __future__ import annotations

import pickle

import pytest

from repro.hadoop.faults import FaultInjector, TaskAttemptsExhaustedError


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"task_failure_prob": -0.1},
            {"task_failure_prob": 1.1},
            {"max_attempts": 0},
            {"failed_attempt_fraction": 0.0},
            {"failed_attempt_fraction": 1.5},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultInjector(**kwargs)

    def test_probability_one_is_valid(self):
        # The docstring always promised [0, 1]; the validator used to
        # enforce [0, 1). prob=1 is the deterministic-exhaustion knob.
        inj = FaultInjector(task_failure_prob=1.0, max_attempts=2)
        with pytest.raises(TaskAttemptsExhaustedError):
            inj.attempt_duration("t", 1.0)


class TestTaskFailures:
    def test_zero_probability_passthrough(self):
        inj = FaultInjector(task_failure_prob=0.0)
        assert inj.attempt_duration("t", 10.0) == (10.0, 0)

    def test_retries_add_time(self):
        inj = FaultInjector(task_failure_prob=0.9, seed=42, max_attempts=100)
        effective, retries = inj.attempt_duration("t", 10.0)
        assert retries >= 1
        assert effective == pytest.approx(10.0 + retries * 5.0)

    def test_deterministic_for_seed(self):
        a = FaultInjector(task_failure_prob=0.5, seed=7, max_attempts=50)
        b = FaultInjector(task_failure_prob=0.5, seed=7, max_attempts=50)
        results_a = [a.attempt_duration(f"t{i}", 1.0) for i in range(20)]
        results_b = [b.attempt_duration(f"t{i}", 1.0) for i in range(20)]
        assert results_a == results_b

    def test_exhausted_attempts_raise(self):
        inj = FaultInjector(
            task_failure_prob=0.999, max_attempts=1, seed=0
        )
        with pytest.raises(RuntimeError):
            for i in range(1000):
                inj.attempt_duration(f"t{i}", 1.0)

    def test_exhaustion_error_is_typed(self):
        inj = FaultInjector(task_failure_prob=1.0, max_attempts=3)
        with pytest.raises(TaskAttemptsExhaustedError) as exc_info:
            inj.attempt_duration("q/map/p0#1", 1.0)
        assert exc_info.value.task_key == "q/map/p0#1"
        assert exc_info.value.attempts == 3

    def test_doom_is_one_shot_and_matches_substring(self):
        inj = FaultInjector(seed=0)
        inj.doom("w2/")
        # Non-matching tasks are untouched even with prob == 0.
        assert inj.attempt_duration("q/merge/w1/0", 5.0) == (5.0, 0)
        with pytest.raises(TaskAttemptsExhaustedError):
            inj.attempt_duration("q/merge/w2/0", 5.0)
        # The doom was consumed: re-execution succeeds.
        assert inj.attempt_duration("q/merge/w2/0", 5.0) == (5.0, 0)
        assert inj.doomed() == []

    def test_doom_rejects_empty_marker(self):
        with pytest.raises(ValueError):
            FaultInjector().doom("")


class TestPickling:
    def test_round_trip_preserves_rng_position(self):
        inj = FaultInjector(task_failure_prob=0.5, seed=11, max_attempts=50)
        for i in range(10):
            inj.attempt_duration(f"warm{i}", 1.0)
        clone = pickle.loads(pickle.dumps(inj))
        draws = [inj.attempt_duration(f"t{i}", 1.0) for i in range(20)]
        cloned = [clone.attempt_duration(f"t{i}", 1.0) for i in range(20)]
        assert draws == cloned

    def test_round_trip_preserves_dooms(self):
        inj = FaultInjector(seed=0)
        inj.doom("w3/")
        clone = pickle.loads(pickle.dumps(inj))
        assert clone.doomed() == ["w3/"]
        with pytest.raises(TaskAttemptsExhaustedError):
            clone.attempt_duration("q/join/w3/1", 1.0)


class TestCacheFailures:
    def test_zero_fraction_picks_nothing(self):
        inj = FaultInjector()
        assert inj.pick_cache_victims(["a", "b"], fraction=0.0) == []

    def test_empty_pool_picks_nothing(self):
        inj = FaultInjector()
        assert inj.pick_cache_victims([], fraction=0.5) == []

    def test_at_least_one_victim_when_enabled(self):
        inj = FaultInjector(seed=1)
        assert len(inj.pick_cache_victims(["a", "b", "c"], fraction=0.01)) == 1

    def test_fraction_respected(self):
        inj = FaultInjector(seed=1)
        pool = [f"c{i}" for i in range(100)]
        victims = inj.pick_cache_victims(pool, fraction=0.5)
        assert len(victims) == 50
        assert set(victims) <= set(pool)

    def test_full_fraction_takes_all(self):
        inj = FaultInjector(seed=1)
        assert inj.pick_cache_victims(["a", "b"], fraction=1.0) == ["a", "b"]

    def test_fraction_override(self):
        # Each call carries its own fraction; nothing carries over.
        inj = FaultInjector(seed=1)
        pool = [f"c{i}" for i in range(10)]
        assert len(inj.pick_cache_victims(pool, fraction=0.3)) == 3
        assert len(inj.pick_cache_victims(pool, fraction=0.6)) == 6


class TestNodeVictim:
    def test_picks_from_pool(self):
        inj = FaultInjector(seed=3)
        assert inj.pick_node_victim([4, 5, 6]) in {4, 5, 6}

    def test_empty_pool_raises(self):
        with pytest.raises(ValueError):
            FaultInjector().pick_node_victim([])
