"""ChaosEvent validation, schedule generation, and serialisation."""

from __future__ import annotations

import pickle

import pytest

from repro.chaos import ChaosEvent, ChaosSchedule, EVENT_KINDS


class TestEventValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos event kind"):
            ChaosEvent(at=1.0, kind="meteor-strike")

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ChaosEvent(at=-1.0, kind="node-kill")

    @pytest.mark.parametrize(
        "kind,kwargs,missing",
        [
            ("task-kill", {}, "prob"),
            ("task-exhaust", {}, "doom"),
            ("cache-loss", {}, "fraction"),
            ("cache-corrupt", {}, "fraction"),
            ("slow-node", {"node_id": 1}, "speed"),
            ("slow-node", {"speed": 0.5}, "node_id"),
            ("ingest-burst", {}, "count"),
            ("pane-loss", {}, "fraction"),
        ],
    )
    def test_required_params_enforced(self, kind, kwargs, missing):
        with pytest.raises(ValueError, match=kind):
            ChaosEvent(at=1.0, kind=kind, **kwargs)

    @pytest.mark.parametrize(
        "kind,kwargs",
        [
            # A negative fraction used to destroy one cache (k = max(1, ...)),
            # and one above 1 every cache; prob > 1 failed every attempt.
            ("cache-loss", {"fraction": -0.5}),
            ("cache-loss", {"fraction": 1.5}),
            ("cache-corrupt", {"fraction": 1.01}),
            ("pane-loss", {"fraction": -0.1}),
            ("task-kill", {"prob": 1.5}),
            ("task-kill", {"prob": -0.2}),
        ],
    )
    def test_fraction_and_prob_outside_unit_interval_rejected(self, kind, kwargs):
        with pytest.raises(ValueError, match=r"must be in \[0, 1\]"):
            ChaosEvent(at=1.0, kind=kind, **kwargs)

    def test_unit_interval_bounds_accepted(self):
        for value in (0.0, 1.0):
            ChaosEvent(at=1.0, kind="cache-loss", fraction=value)
            ChaosEvent(at=1.0, kind="pane-loss", fraction=value)
            ChaosEvent(at=1.0, kind="task-kill", prob=value)

    def test_replayed_json_is_range_checked(self):
        text = (
            '{"seed": 1, "events": '
            '[{"at": 5.0, "kind": "cache-loss", "fraction": -0.5}]}'
        )
        with pytest.raises(ValueError, match="fraction must be in"):
            ChaosSchedule.from_json(text)

    def test_node_kill_needs_nothing(self):
        ChaosEvent(at=0.0, kind="node-kill")
        ChaosEvent(at=0.0, kind="node-recover")

    def test_describe_names_the_kind_and_params(self):
        e = ChaosEvent(at=30.0, kind="cache-corrupt", fraction=0.5, cache_type=1)
        text = e.describe()
        assert "cache-corrupt" in text
        assert "fraction=0.5" in text
        assert "cache_type=1" in text


class TestScheduleOrdering:
    def test_events_sorted_by_time(self):
        sched = ChaosSchedule(
            seed=1,
            events=(
                ChaosEvent(at=50.0, kind="node-kill"),
                ChaosEvent(at=10.0, kind="cache-loss", fraction=0.3),
                ChaosEvent(at=30.0, kind="node-recover"),
            ),
        )
        assert [e.at for e in sched.events] == [10.0, 30.0, 50.0]
        assert len(sched) == 3


class TestRandomGeneration:
    KW = dict(horizon=100.0, num_nodes=4, num_windows=5, slide=20.0)

    def test_same_seed_same_schedule(self):
        a = ChaosSchedule.random(7, **self.KW)
        b = ChaosSchedule.random(7, **self.KW)
        assert a == b

    def test_different_seeds_differ(self):
        a = ChaosSchedule.random(7, **self.KW)
        b = ChaosSchedule.random(8, **self.KW)
        assert a != b

    def test_only_known_kinds(self):
        sched = ChaosSchedule.random(3, events_per_window=3.0, **self.KW)
        assert sched.events
        assert all(e.kind in EVENT_KINDS for e in sched.events)

    def test_at_most_one_node_down_at_a_time(self):
        # Kills and recoveries interleave; walking the sorted events
        # must never see two concurrent outages.
        for seed in range(1, 30):
            sched = ChaosSchedule.random(
                seed,
                include=("node-kill",),
                events_per_window=4.0,
                **self.KW,
            )
            down = 0
            for e in sched.events:
                if e.kind == "node-kill":
                    down += 1
                elif e.kind == "node-recover":
                    down -= 1
                assert 0 <= down <= 1, f"seed {seed}: {down} nodes down"

    def test_exhaust_window_adds_doom(self):
        sched = ChaosSchedule.random(5, exhaust_window=3, **self.KW)
        dooms = [e for e in sched.events if e.kind == "task-exhaust"]
        assert len(dooms) == 1
        assert dooms[0].doom == "/w3/"

    def test_exhaust_window_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            ChaosSchedule.random(5, exhaust_window=9, **self.KW)

    def test_needs_two_windows(self):
        with pytest.raises(ValueError, match="two windows"):
            ChaosSchedule.random(
                5, horizon=20.0, num_nodes=4, num_windows=1, slide=20.0
            )


class TestSerialisation:
    def make(self):
        return ChaosSchedule.random(
            9,
            horizon=100.0,
            num_nodes=4,
            num_windows=5,
            slide=20.0,
            events_per_window=2.0,
            exhaust_window=2,
        )

    def test_json_round_trip(self):
        sched = self.make()
        assert ChaosSchedule.from_json(sched.to_json()) == sched

    def test_json_is_replayable_text(self):
        text = self.make().to_json()
        assert '"seed": 9' in text
        assert '"events"' in text

    def test_pickle_round_trip(self):
        sched = self.make()
        assert pickle.loads(pickle.dumps(sched)) == sched
